"""The paper's contribution: the independence definitions and their comparison.

* :mod:`repro.core.cr` — Definition 4.3 (Chor & Rabin).
* :mod:`repro.core.g` — Definition 4.4 (Gennaro).
* :mod:`repro.core.gstar` — Definitions B.1/B.2 (G*, G**).
* :mod:`repro.core.sb` — Definitions 4.1/4.2 (simulation-based).
* :mod:`repro.core.relations` — the ∀-adversary measurement engine behind
  Figure 1.
"""

from .announced import (
    HONEST,
    AdversaryFactory,
    AnnouncedSample,
    announce_once,
    sample_announced,
    sample_announced_fixed,
)
from .cr import cr_report, cr_report_from_samples
from .g import g_report, g_report_from_samples
from .gstar import g_star_report, g_star_star_report
from .predicates import (
    Predicate,
    default_family,
    equality_predicate,
    parity_predicate,
    projection_predicate,
    threshold_predicate,
)
from .relations import DEFINITIONS, MeasurementBudget, measure
from .sb import sb_report
from .simulators import (
    HonestInputSimulator,
    ReplaySimulator,
    Simulator,
    default_distinguishers,
    ideal_exec_vector,
    sb_advantage,
)
from .verdict import IndependenceReport

__all__ = [
    "HONEST",
    "AdversaryFactory",
    "AnnouncedSample",
    "announce_once",
    "sample_announced",
    "sample_announced_fixed",
    "cr_report",
    "cr_report_from_samples",
    "g_report",
    "g_report_from_samples",
    "g_star_report",
    "g_star_star_report",
    "sb_report",
    "Simulator",
    "HonestInputSimulator",
    "ReplaySimulator",
    "default_distinguishers",
    "ideal_exec_vector",
    "sb_advantage",
    "Predicate",
    "default_family",
    "parity_predicate",
    "projection_predicate",
    "equality_predicate",
    "threshold_predicate",
    "DEFINITIONS",
    "MeasurementBudget",
    "measure",
    "IndependenceReport",
]

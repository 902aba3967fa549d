"""The seeded scenario fuzzer: index → :class:`Scenario`, purely.

:func:`generate_scenario` is a *pure function* of ``(campaign_seed,
index)`` — the property every campaign guarantee rests on:

* **resumability** — a checkpoint stores only outcome rows; re-deriving
  scenario ``i`` after a restart gives byte-identical specs;
* **``--jobs`` equivalence** — workers receive fully built scenario
  dicts, but even re-generation inside a worker would agree with the
  coordinator;
* **corpus stability** — a corpus entry's ``scenario_id`` names the same
  scenario in every run of the same campaign.

The sampler sweeps the cross-product the motivation calls out:
distribution classes × adversary strategies × fault plans ×
delay/omission models × ``(n, t)`` corners, with the weights biased
toward the boundaries where the paper's claims live (corruption
fractions at the resilience bound, non-degenerate network timing).
Heavy-crypto zoo members (cgma, chor-rabin, gennaro) ride in the default
pool at low weight — affordable since the crypto layer grew batch
verification and shared warm tables (ROADMAP item 2); their ``(n, t)``
draws respect each member's resilience bound via the registry specs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..faults.plan import KINDS
from .spec import Scenario

#: Multiplier mixing the campaign seed with the scenario index (the same
#: idiom as ExperimentConfig.rng / FaultPlan.injector_seed).
_SEED_MIX = 1_000_003

#: The default fuzz pool: the whole zoo, weighted so the known-dirty
#: members (the fuzzer's positive controls) stay frequent and the
#: heavy-crypto members stay a bounded fraction of the budget.
PROTOCOL_POOL: Tuple[Tuple[str, int], ...] = (
    ("sequential", 3),
    ("ideal-sb", 3),
    ("naive-commit-reveal", 4),
    ("pi-g", 2),
    ("bracha", 3),
    ("phase-king", 2),
    ("cgma", 1),
    ("chor-rabin", 1),
    ("gennaro", 1),
)

#: Fault probabilities the rule sampler draws from — boundary-heavy.
_PROBABILITIES = (0.05, 0.1, 0.25, 1.0)

#: Delay model specs of the timed half (empty = the paper's rush default).
_DELAY_MODELS = (
    "",
    "constant:1",
    "uniform:0.5,1.5",
    "exponential:1.0",
    "rush:uniform:0.5,1.5",
)


def _weighted(rng: random.Random, pool: Tuple[Tuple[str, int], ...]) -> str:
    total = sum(weight for _, weight in pool)
    pick = rng.randrange(total)
    for key, weight in pool:
        pick -= weight
        if pick < 0:
            return key
    return pool[-1][0]


def _sample_parameters(rng: random.Random, protocol: str) -> Tuple[int, int]:
    """Draw ``(n, t)`` biased toward each member's resilience boundary."""
    if protocol == "phase-king":
        n = rng.randrange(5, 10)
        t_max = (n - 1) // 4
    elif protocol == "bracha":
        n = rng.randrange(4, 8)
        t_max = (n - 1) // 3
    elif protocol in ("cgma", "chor-rabin"):
        # Honest-majority members; keep n small — every trial pays VSS
        # dealings for all n parties even with batch verification.
        n = rng.randrange(3, 6)
        t_max = (n - 1) // 2
    elif protocol == "gennaro":
        n = rng.randrange(3, 6)
        t_max = n - 1
    else:
        n = rng.randrange(3, 7)
        t_max = n - 1
    # Two-thirds of draws sit at the boundary t = t_max — the corner the
    # motivation (Cohen et al., Arapinis et al.) says failures live at.
    t = t_max if rng.randrange(3) < 2 else rng.randrange(t_max + 1)
    return n, t


def _sample_adversary(rng: random.Random, protocol: str, n: int, t: int) -> str:
    options: List[str] = ["none"]
    if t >= 1:
        corrupted = sorted(rng.sample(range(1, n + 1), rng.randrange(1, t + 1)))
        listed = ",".join(str(p) for p in corrupted)
        options.append(f"passive:{listed}")
        options.append(f"silent:{listed}")
        if protocol == "naive-commit-reveal":
            target = rng.randrange(1, n + 1)
            copier = rng.choice([p for p in range(1, n + 1) if p != target])
            # Weighted double: the acceptance criterion's known violation.
            options.extend([f"commit-echo:{copier},{target}"] * 2)
        if protocol == "sequential" and n >= 2:
            target = rng.randrange(1, n)
            copier = rng.randrange(target + 1, n + 1)
            options.extend([f"sequential-copier:{copier},{target}"] * 2)
    return options[rng.randrange(len(options))]


def _sample_distribution(rng: random.Random, n: int) -> str:
    pick = rng.randrange(10)
    if pick < 6:
        return "uniform"
    if pick < 8:
        bias = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        return f"bernoulli:{bias}"
    bits = ",".join(str(rng.randrange(2)) for _ in range(n))
    return f"singleton:{bits}"


def _sample_faults(rng: random.Random, n: int) -> Dict[str, object]:
    """A fault-plan dict: empty half the time, else 1–3 rules + 0–2 crashes."""
    if rng.randrange(2):
        return {}
    plan: Dict[str, object] = {"seed": rng.getrandbits(16)}
    rules = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(KINDS)
        rule: Dict[str, object] = {
            "kind": kind,
            "probability": rng.choice(_PROBABILITIES),
        }
        if rng.randrange(3) == 0:
            rule["senders"] = [rng.randrange(1, n + 1)]
        if rng.randrange(3) == 0:
            rule["rounds"] = [rng.randrange(1, 5)]
        if kind == "delay":
            rule["delay"] = rng.randrange(1, 3)
        if kind == "duplicate":
            rule["copies"] = rng.randrange(1, 3)
        if kind == "corrupt":
            rule["mode"] = rng.choice(("garbage", "flip"))
        rules.append(rule)
    plan["rules"] = rules
    crashes = []
    for _ in range(rng.randrange(3)):
        at_round = rng.randrange(1, 5)
        crash: Dict[str, object] = {
            "party": rng.randrange(1, n + 1),
            "at_round": at_round,
        }
        if rng.randrange(2):
            crash["recover_at"] = at_round + rng.randrange(1, 4)
        crashes.append(crash)
    if crashes:
        plan["crashes"] = crashes
    return plan


def _sample_network(rng: random.Random, n: int) -> Tuple[str, str]:
    """``(delay_model, omission)`` — the paper's timing half the time."""
    if rng.randrange(2):
        return "", ""
    delay = rng.choice(_DELAY_MODELS)
    omission = ""
    pick = rng.randrange(4)
    if pick == 0:
        omission = f"random:{rng.choice((0.02, 0.05, 0.1))}"
    elif pick == 1:
        omission = f"drop-all:{rng.randrange(1, n + 1)}"
    return delay, omission


def generate_scenario(campaign_seed: int, index: int) -> Scenario:
    """The campaign's scenario at ``index`` — pure, validated, replayable."""
    rng = random.Random(campaign_seed * _SEED_MIX + index)
    protocol = _weighted(rng, PROTOCOL_POOL)
    n, t = _sample_parameters(rng, protocol)
    adversary = _sample_adversary(rng, protocol, n, t)
    data: Dict[str, object] = {
        "name": f"fuzz-{index:06d}",
        "protocol": protocol,
        "n": n,
        "t": t,
        "seed": rng.getrandbits(32),
        "trials": rng.randrange(3, 6),
        "distribution": _sample_distribution(rng, n),
        "adversary": adversary,
    }
    if protocol in ("bracha", "phase-king"):
        data["sender"] = rng.randrange(1, n + 1)
    faults = _sample_faults(rng, n)
    if faults:
        data["faults"] = faults
    delay_model, omission = _sample_network(rng, n)
    if delay_model:
        data["delay_model"] = delay_model
    if omission:
        data["omission"] = omission
    return Scenario.from_dict(data)


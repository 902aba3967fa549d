"""The repo-specific rule battery for ``repro analyze``.

Each rule encodes one invariant the reproduction's replay gates depend
on.  Module allowlists below are the *designed seams* — every entry
carries the justification that an auditor needs; anything else goes
through an inline ``# repro: allow[...]`` (spot exemption, justified in
a comment at the site).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .engine import SEVERITY_ERROR, SEVERITY_WARNING, FileContext, Finding, Rule

# -- documented allowlists -----------------------------------------------------------

#: DET002 — the obs timing allowlist.  Wall-clock reads are legal only where
#: the value demonstrably stays out of diffjson-gated artifact payloads:
TIMING_ALLOWLIST: Mapping[str, str] = {
    "repro.obs.tracer": (
        "span/event timestamps; exported traces are wall-clock by design and"
        " never enter experiment artifacts"
    ),
    "repro.obs.flightrec": (
        "ring-buffer record timestamps; flight dumps are debugging artifacts,"
        " not diffjson-gated payloads"
    ),
    "repro.experiments.registry": (
        "run_experiment wall_seconds accounting; diffjson strips"
        " metrics.wall_seconds before comparing artifacts"
    ),
    "repro.experiments.ablation": (
        "per-variant ms/run measurement; recorded under the wall-clock"
        " metrics keys diffjson strips, never in table/data payloads"
    ),
}

#: ENV001 — deployment settings.  A ``REPRO_*`` read may steer only how a
#: run is deployed, never a computed value, so ``--jobs N`` stays replayable:
ENV_SEAM_ALLOWLIST: Mapping[str, str] = {
    "repro.parallel.warmup": (
        "the shm-table gate decides how workers get their warm tables; it"
        " only moves setup cost, never a computed value"
    ),
}

#: DET001 — no module is allowed ambient randomness; the empty allowlist is
#: the point (every RNG stream must descend from an explicit seed).
RANDOMNESS_ALLOWLIST: Mapping[str, str] = {}

_METRIC_NAME = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_]+)*")
_METRIC_FRAGMENT = re.compile(r"[a-z0-9_.]*")


def _call_name(ctx: FileContext, node: ast.Call) -> Optional[str]:
    return ctx.qualified(node.func)


def _is_metrics_receiver(node: ast.AST) -> bool:
    """Heuristic: is this expression a Metrics registry?

    Matches the repo's naming convention — a bare ``metrics`` name, any
    ``*.metrics`` attribute (``self.metrics``, ``_obs.metrics``), or the
    conventional leading-underscore variants.
    """
    if isinstance(node, ast.Name):
        return node.id in ("metrics", "_metrics") or node.id.endswith("_metrics")
    if isinstance(node, ast.Attribute):
        return node.attr in ("metrics", "_metrics")
    return False


def _is_tracer_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("tracer", "_tracer") or node.id.endswith("_tracer")
    if isinstance(node, ast.Attribute):
        return node.attr in ("tracer", "_tracer")
    return False


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class UnseededRandomness(Rule):
    """DET001 — ambient or unseeded randomness.

    Every random value in an execution must descend from an explicit seed
    so that serial, ``--jobs N``, and replay runs draw identical streams.
    The module-level ``random.*`` functions share one ambient generator;
    ``random.Random()`` with no seed self-seeds from the OS; ``os.urandom``
    / ``uuid.uuid4`` / ``secrets`` are entropy by definition.
    """

    id = "DET001"
    severity = SEVERITY_ERROR
    title = "unseeded or ambient randomness"
    rationale = "breaks seed-replayability of executions and artifacts"

    _AMBIENT = {
        "random.random", "random.randint", "random.randrange", "random.choice",
        "random.choices", "random.shuffle", "random.sample", "random.getrandbits",
        "random.uniform", "random.gauss", "random.seed", "random.betavariate",
        "random.expovariate", "random.randbytes",
    }
    _ENTROPY_PREFIXES = ("os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module in RANDOMNESS_ALLOWLIST:
            return
        for call in _walk_calls(ctx.tree):
            name = _call_name(ctx, call)
            if name is None:
                continue
            if name in self._AMBIENT:
                yield self.finding(
                    ctx, call,
                    f"ambient RNG call {name}() — draw from an explicitly"
                    " seeded random.Random stream instead",
                )
            elif any(
                name == prefix or name.startswith(prefix)
                for prefix in self._ENTROPY_PREFIXES
            ):
                yield self.finding(
                    ctx, call,
                    f"{name}() is OS entropy — executions must be"
                    " seed-replayable",
                )
            elif name in ("random.Random", "random.SystemRandom"):
                if name == "random.SystemRandom":
                    yield self.finding(
                        ctx, call, "random.SystemRandom is OS entropy"
                    )
                elif not call.args and not any(
                    kw.arg in (None, "x", "seed") for kw in call.keywords
                ):
                    yield self.finding(
                        ctx, call,
                        "random.Random() without a seed self-seeds from the"
                        " OS — pass a derived seed",
                    )


class WallClockRead(Rule):
    """DET002 — wall-clock reads outside the obs timing allowlist.

    Wall time is the canonical nondeterminism: any read that flows into a
    diffjson-gated artifact breaks serial-vs-parallel equality.  Timing
    belongs in the obs layer (tracer/flightrec) or in the wall-clock
    metrics keys that ``experiments.diffjson`` strips.
    """

    id = "DET002"
    severity = SEVERITY_ERROR
    title = "wall-clock read outside the obs timing allowlist"
    rationale = "wall time in an artifact path breaks replay equality"

    _CLOCKS = {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module in TIMING_ALLOWLIST:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            name = ctx.qualified(node)
            if name in self._CLOCKS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {name} — only the obs timing allowlist"
                    " may read the clock (see repro.analysis.rules"
                    ".TIMING_ALLOWLIST)",
                )


class UnorderedIteration(Rule):
    """DET003 — iterating a set/frozenset without an explicit order.

    Set iteration order depends on insertion history and hash seeds; when
    it feeds transcripts, artifacts, or message emission the result is a
    run-to-run diff that no seed replays.  Wrap the iterable in
    ``sorted(...)`` (or iterate an ordered container).
    """

    id = "DET003"
    severity = SEVERITY_ERROR
    title = "iteration over an unordered set"
    rationale = "set order leaks insertion/hash history into outputs"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        set_locals = self._set_typed_names(ctx)
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                reason = self._set_reason(ctx, iter_expr, set_locals)
                if reason is not None:
                    yield self.finding(
                        ctx, iter_expr,
                        f"iterating {reason} — wrap in sorted(...) so the"
                        " order is deterministic",
                    )

    def _set_typed_names(self, ctx: FileContext) -> Set[str]:
        """Names assigned (anywhere in the module) from a set expression.

        Deliberately flow-insensitive: a name that ever holds a set is
        suspect everywhere.  False positives opt out inline.
        """
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(ctx, node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ann = ast.unparse(node.annotation) if node.annotation else ""
                if re.match(r"(typing\.)?(Set|FrozenSet|set|frozenset)\b", ann):
                    names.add(node.target.id)
        return names

    def _is_set_expr(
        self, ctx: FileContext, node: ast.expr, set_locals: Set[str]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_locals
        if isinstance(node, ast.Call):
            name = _call_name(ctx, node)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                # ``a.union(b)`` only returns a set when a is one; resolve
                # through the locally inferred set names to avoid flagging
                # unrelated APIs that happen to share the method name.
                return self._is_set_expr(ctx, node.func.value, set_locals)
        return False

    def _set_reason(
        self, ctx: FileContext, node: ast.expr, set_locals: Set[str]
    ) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call) and self._is_set_expr(ctx, node, set_locals):
            return f"the result of {ast.unparse(node.func)}(...)"
        if isinstance(node, ast.Name) and node.id in set_locals:
            return f"set-typed name {node.id!r}"
        return None


class TelemetryIntoMetrics(Rule):
    """DET004 — process-local telemetry flowing into artifact counters.

    ``fastpath.STATS`` (and anything like it) counts cache warmth, which
    depends on process topology: folding it into a :class:`Metrics`
    registry makes serial and ``--jobs N`` artifacts diverge by design.
    Telemetry leaves a process only through ``fastpath.stats()``.
    """

    id = "DET004"
    severity = SEVERITY_ERROR
    title = "process-local telemetry recorded into Metrics"
    rationale = "cache-warmth counters differ across process topologies"

    _TELEMETRY = ("repro.fastpath.STATS", "repro.fastpath.kernels.STATS",
                  "repro.fastpath.stats", "fastpath.STATS", "fastpath.stats")

    def _references_telemetry(self, ctx: FileContext, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Attribute, ast.Name)):
                name = ctx.qualified(sub)
                if name is None:
                    continue
                if any(
                    name == t or name.startswith(t + ".") for t in self._TELEMETRY
                ):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("inc", "observe", "merge"):
                continue
            if not _is_metrics_receiver(func.value):
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if self._references_telemetry(ctx, arg):
                    yield self.finding(
                        ctx, call,
                        "process-local telemetry (fastpath.STATS) recorded"
                        " into a Metrics registry — telemetry must stay out"
                        " of diffjson-gated counters",
                    )
                    break


class FloatIntoCounter(Rule):
    """ART001 — float arithmetic written into artifact counters.

    Counters land verbatim in diffjson-gated artifacts; float division or
    literals make values platform/rounding sensitive and turn exact
    artifact equality into luck.  Keep counters integral — derive ratios
    at render time, or use a histogram for measured values.
    """

    id = "ART001"
    severity = SEVERITY_ERROR
    title = "float arithmetic into a diffjson-gated counter"
    rationale = "rounding detail becomes part of the replay contract"

    def _has_float_arith(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            func = call.func
            if not isinstance(func, ast.Attribute) or func.attr != "inc":
                continue
            if not _is_metrics_receiver(func.value):
                continue
            if len(call.args) < 2 and not call.keywords:
                continue
            amounts = call.args[1:] + [
                kw.value for kw in call.keywords if kw.arg == "amount"
            ]
            for amount in amounts:
                if self._has_float_arith(amount):
                    yield self.finding(
                        ctx, call,
                        "float arithmetic in a counter increment — counters"
                        " are diffjson-gated; keep them integral (use a"
                        " histogram for measured values)",
                    )
                    break


class MessageSlots(Rule):
    """MSG001 — message/record dataclasses must declare ``slots=True``.

    These classes are allocated per message on the scheduler hot path and
    pickled across pool shards; ``__dict__``-backed instances cost memory
    and admit silent attribute typos that replay comparisons then chase.
    """

    id = "MSG001"
    severity = SEVERITY_WARNING
    title = "message/record dataclass without slots=True"
    rationale = "hot-path allocations and typo-safety on replayed records"

    _NAME = re.compile(r"(Message|Record|Draft)$")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._NAME.search(node.name):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = ctx.qualified(target)
                if name not in ("dataclass", "dataclasses.dataclass"):
                    continue
                has_slots = isinstance(decorator, ast.Call) and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords
                )
                if not has_slots:
                    yield self.finding(
                        ctx, node,
                        f"dataclass {node.name} looks like a message/record"
                        " type but lacks slots=True",
                    )


class RunHonorsTimeout(Rule):
    """PROTO001 — ``run`` overrides must honor ``timeout_rounds``.

    The zoo contract (``protocols.base``): under ``timeout_rounds`` a
    party that misses the deadline announces the default output instead of
    raising.  An override that drops the parameter silently strips the
    graceful-degradation path the fault-conformance suite relies on.
    """

    id = "PROTO001"
    severity = SEVERITY_ERROR
    title = "protocol run() override ignores timeout_rounds"
    rationale = "fault conformance needs the default-output fallback"

    def _is_protocol_class(self, ctx: FileContext, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = ctx.qualified(base) or ""
            if "Protocol" in name or "Broadcast" in name:
                return True
        methods = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        return {"setup", "program"} <= methods

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_protocol_class(ctx, node):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name not in (
                    "run", "announced",
                ):
                    continue
                mentioned = {
                    arg.arg
                    for args in (
                        item.args.args, item.args.kwonlyargs, item.args.posonlyargs,
                    )
                    for arg in args
                }
                mentioned.update(
                    sub.id for sub in ast.walk(item) if isinstance(sub, ast.Name)
                )
                mentioned.update(
                    sub.attr for sub in ast.walk(item) if isinstance(sub, ast.Attribute)
                )
                if "timeout_rounds" not in mentioned:
                    yield self.finding(
                        ctx, item,
                        f"{node.name}.{item.name}() overrides the zoo entry"
                        " point without accepting/forwarding timeout_rounds"
                        " (graceful default-output fallback)",
                    )


class EnvOutsideSeam(Rule):
    """ENV001 — ``REPRO_*`` environment reads outside the deployment allowlist.

    A ``REPRO_*`` variable may steer only deployment settings (how workers
    warm up, where debug dumps land), never a computed value: everything
    an artifact depends on is an explicit argument, so a worker under
    ``spawn``, with whatever environment the OS hands it, computes what the
    coordinator would.
    """

    id = "ENV001"
    severity = SEVERITY_ERROR
    title = "REPRO_* environment read outside the deployment allowlist"
    rationale = "a computed value must not depend on a process's environment"

    def _env_key(self, ctx: FileContext, call: ast.Call) -> Optional[ast.expr]:
        name = _call_name(ctx, call)
        if name in ("os.environ.get", "os.getenv") and call.args:
            return call.args[0]
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module in ENV_SEAM_ALLOWLIST:
            return
        for node in ast.walk(ctx.tree):
            key: Optional[ast.expr] = None
            where: ast.AST = node
            if isinstance(node, ast.Call):
                key = self._env_key(ctx, node)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                if ctx.qualified(node.value) == "os.environ":
                    key = node.slice
                    where = node
            if key is None:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if key.value.startswith("REPRO_"):
                    yield self.finding(
                        ctx, where,
                        f"{key.value} read outside the deployment allowlist"
                        " — it may steer only deployment settings (see"
                        " repro.analysis.rules.ENV_SEAM_ALLOWLIST)",
                    )


class MetricNameShape(Rule):
    """OBS001 — metric/span names are stable dotted lowercase keys.

    Experiment artifacts and the golden files key counters by their
    dotted names, and a ``--trace`` file's spans are read the same way,
    so every literal name must match ``[a-z][a-z0-9_]*(.[a-z0-9_]+)*``:
    no uppercase, no other separator (``/``, ``-``, space), no leading
    digit and no empty segment.
    """

    id = "OBS001"
    severity = SEVERITY_ERROR
    title = "metric/span name is not a dotted lowercase key"
    rationale = "artifacts, goldens and traces address names by dotted segment"

    def _check_literal(self, name: str) -> Optional[str]:
        if not _METRIC_NAME.fullmatch(name):
            return (
                f"name {name!r} must match [a-z][a-z0-9_]*(.[a-z0-9_]+)* to"
                " be a dotted lowercase key"
            )
        return None

    def _check_fstring(self, node: ast.JoinedStr) -> Optional[str]:
        for index, part in enumerate(node.values):
            if not isinstance(part, ast.Constant):
                continue
            text = str(part.value)
            fragment = _METRIC_FRAGMENT.fullmatch(text)
            if fragment is None or (index == 0 and not re.match(r"[a-z]", text)):
                return (
                    f"metric-name fragment {text!r} contains characters outside"
                    " a dotted lowercase key"
                )
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            is_metric = func.attr in ("inc", "observe") and _is_metrics_receiver(
                func.value
            )
            is_span = func.attr in ("span", "event") and _is_tracer_receiver(func.value)
            if not (is_metric or is_span) or not call.args:
                continue
            name_arg = call.args[0]
            problem: Optional[str] = None
            if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
                problem = self._check_literal(name_arg.value)
            elif isinstance(name_arg, ast.JoinedStr):
                problem = self._check_fstring(name_arg)
            if problem is not None:
                yield self.finding(ctx, call, problem)


class BuiltinHashOrder(Rule):
    """DET005 — builtin ``hash()`` of process-randomized types.

    ``str``/``bytes`` hashing is salted per interpreter (PYTHONHASHSEED),
    so any value or ordering derived from builtin ``hash()`` differs
    between the coordinator and spawned pool workers.  Use ``hashlib`` (as
    ``crypto.prg`` does) for anything that reaches transcripts or seeds.
    """

    id = "DET005"
    severity = SEVERITY_ERROR
    title = "builtin hash() is interpreter-salted"
    rationale = "PYTHONHASHSEED varies across processes; use hashlib"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # ``__hash__`` implementations delegating to ``hash(...)`` are the
        # protocol's intended idiom: those values never leave the process
        # (in-process dict/set identity only), so they are exempt.
        inside_dunder_hash: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                inside_dunder_hash.update(
                    id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)
                )
        for call in _walk_calls(ctx.tree):
            if id(call) in inside_dunder_hash:
                continue
            if isinstance(call.func, ast.Name) and call.func.id == "hash":
                if ctx.imports.get("hash") is None:
                    yield self.finding(
                        ctx, call,
                        "builtin hash() is salted per process"
                        " (PYTHONHASHSEED) — derive deterministic digests"
                        " via hashlib instead",
                    )


class ScenarioBypassesSchema(Rule):
    """SCN001 — direct ``Scenario(...)`` construction outside the DSL.

    The scenario DSL validates at its entry points — ``from_dict`` /
    ``build`` / ``load`` — not in ``__post_init__``, so a
    direct dataclass call skips every cross-field schema check (protocol
    resilience bounds, adversary applicability, event-only network
    knobs).  Downstream consumers (campaign runner, corpus, shrinker, CI
    gates) all assume "a Scenario exists ⇒ it validated"; construction
    inside ``repro.scenario.*`` is the designed seam and stays exempt.
    """

    id = "SCN001"
    severity = SEVERITY_ERROR
    title = "Scenario constructed directly, bypassing schema validation"
    rationale = "scenario invariants hold only through the validated entry points"

    #: Resolved names of the dataclass (package re-export and home module).
    _TARGETS = ("repro.scenario.Scenario", "repro.scenario.spec.Scenario")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == "repro.scenario" or ctx.module.startswith("repro.scenario."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(ctx, node) in self._TARGETS:
                yield self.finding(
                    ctx, node,
                    "Scenario(...) called directly; use Scenario.from_dict /"
                    " build / load so the spec is schema-validated",
                )


class ModularPowOutsideCrypto(Rule):
    """CRY001 — modular exponentiation outside the crypto/fastpath seam.

    Three-argument ``pow(base, exp, mod)`` is group arithmetic that
    bypasses :meth:`GroupElement.__pow__`: it skips exponent
    normalization, the ``crypto.group.exp`` cost counter and the
    fixed-base table cache — so a call site outside ``repro.crypto`` /
    ``repro.fastpath`` silently re-opens the per-callsite arithmetic the
    kernels were built to close.
    Protocol and experiment code must go through ``GroupElement`` (or a
    fastpath kernel); non-group modular arithmetic opts out inline with a
    justified ``# repro: allow[CRY001]``.
    """

    id = "CRY001"
    severity = SEVERITY_ERROR
    title = "modular exponentiation bypasses the crypto kernels"
    rationale = "pow(b, e, m) outside crypto/fastpath skips counters and tables"

    _SEAM_PREFIXES = ("repro.crypto", "repro.fastpath")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self._SEAM_PREFIXES
        ):
            return
        for call in _walk_calls(ctx.tree):
            name = _call_name(ctx, call)
            if name == "pow" and len(call.args) == 3 and ctx.imports.get("pow") is None:
                yield self.finding(
                    ctx, call,
                    "3-argument pow() is modular exponentiation — route it"
                    " through GroupElement.__pow__ / repro.fastpath so the"
                    " tables and cost counters apply",
                )


#: The battery, in catalog order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    WallClockRead(),
    UnorderedIteration(),
    TelemetryIntoMetrics(),
    BuiltinHashOrder(),
    FloatIntoCounter(),
    MessageSlots(),
    RunHonorsTimeout(),
    EnvOutsideSeam(),
    MetricNameShape(),
    ScenarioBypassesSchema(),
    ModularPowOutsideCrypto(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


def rule_catalog() -> List[Dict[str, str]]:
    """Machine-readable catalog (the ``--list-rules`` payload)."""
    return [
        {
            "id": rule.id,
            "severity": rule.severity,
            "title": rule.title,
            "rationale": rule.rationale,
        }
        for rule in ALL_RULES
    ]


def resolve_rules(ids: Optional[Sequence[str]] = None) -> Tuple[Rule, ...]:
    """The full battery, or the subset named by ``ids``."""
    if not ids:
        return ALL_RULES
    unknown = [rule_id for rule_id in ids if rule_id not in RULES_BY_ID]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return tuple(RULES_BY_ID[rule_id] for rule_id in ids)

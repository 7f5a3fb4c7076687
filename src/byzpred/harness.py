"""Scenario files, sweep execution, metrics records, and replay.

Scenario file (JSON, schema_version 1):

    {
      "schema_version": 1,
      "protocol": "ba-with-predictions",
      "variant": "unauthenticated",  # or a list of variants
      "value_domain": [0, 1],        # ascending distinct ints or strings
      "params": {},
      "axes": {
        "n": [4, 7],
        "t": "max",                    # or list of ints
        "f": [0, 1, "half", "max"],    # ints, "half" (t//2), "max" (t)
        "error_budget": [0, "n", "4n"],# ints or "<k>n"
        "allocation": ["adversarial-worst"],
        "adversary": "catalog",        # or list of names / {name, params}
        "inputs": ["alternating"],     # pattern or explicit list
        "fault_placement": ["lowest"],
        "seeds": [1, 2, 3, 4, 5]
      }
    }

The sweep is the cross-product of the axes.  A point is indexed in that
order.  An infeasible point (budget not realizable, f > t, f > n, or t
over the variant's resilience bound: 3t < n unauthenticated, 2t < n
authenticated) is skipped with its index and reason, never silently
dropped.  A duplicate f
after resolution ("half" equal to 0, say) is expanded once and takes no
index.  One metrics record is emitted per executed point as a JSON line;
records are byte-reproducible from the point alone, which `replay` checks.
A record (schema_version 2; sweep files stay at 1) holds the point (index,
scenario, protocol, params) and what the execution gave:

    schema_version, index, scenario, protocol, params,
    realized_budget        the prediction errors actually placed,
    misclassification      k_A, k_H and k_F of the honest classifications,
                           or null if no process classified,
    rounds_elapsed, honest_messages_total, honest_messages_by_protocol,
    alpha                  the wrapper's alpha, or null,
    decision               the honest decision if all agree, else null,
    decisions_distinct, verdicts (name, ok, detail), ok.

`load_records` refuses a record of any other schema_version.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import predictions
from .adversaries import make_strategy, strategy_catalog
from .agreement import (
    check_conditional_params,
    compute_alpha,
    conditional_round_budget,
    size_condition_holds,
    wrapper_phase_count,
    wrapper_rounds_through_phase,
)
from .blocks import es_rounds_needed
from .engine import protocol_names, run_execution
from .errors import ConfigurationError, ScenarioFileError
from .scenario import AUTHENTICATED, UNAUTHENTICATED, VARIANTS, AdversarySpec, Scenario
from .verify import all_pass, misclassification, verify_execution

SWEEP_SCHEMA_VERSION = 1
RECORD_SCHEMA_VERSION = 2

INPUT_PATTERNS = ("unanimous-0", "unanimous-1", "alternating", "split-half")
FAULT_PLACEMENTS = ("lowest", "highest", "spread")


# ---------------------------------------------------------------------------
# Sweep point expansion
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    index: int
    scenario: Scenario
    protocol: str
    params: Dict[str, Any]

    @classmethod
    def from_json_dict(cls, d: Dict[str, Any]) -> "SweepPoint":
        return cls(d["index"], Scenario.from_json_dict(d["scenario"]), d["protocol"], d["params"])


@dataclass
class SkippedPoint:
    index: int
    reason: str


def resolve_t(spec, n: int, variant: str) -> int:
    if spec == "max":
        if variant == UNAUTHENTICATED:
            return (n - 1) // 3
        return max((n - 1) // 2 - 1, 0)
    return int(spec)


def resolve_f(spec, t: int) -> int:
    if spec == "half":
        return t // 2
    if spec == "max":
        return t
    return int(spec)


_BUDGET_SPEC = re.compile(r"(\d*)n")


def resolve_budget(spec, n: int) -> int:
    if isinstance(spec, str):
        m = _BUDGET_SPEC.fullmatch(spec)
        if not m:
            raise ScenarioFileError(f"bad error budget spec {spec!r}")
        return (int(m.group(1)) if m.group(1) else 1) * n
    return int(spec)


def fault_ids(n: int, f: int, placement: str) -> frozenset:
    """f faulty ids in 1..n, placed lowest, highest or spread evenly.  An f
    above n raises `ConfigurationError`, so a sweep skips its points."""
    if f == 0:
        return frozenset()
    if f > n:
        raise ConfigurationError(f"f = {f} exceeds n = {n}")
    if placement == "lowest":
        return frozenset(range(1, f + 1))
    if placement == "highest":
        return frozenset(range(n - f + 1, n + 1))
    if placement == "spread":
        return frozenset(1 + (i * n) // f for i in range(f))
    raise ScenarioFileError(f"unknown fault placement {placement!r}")


def input_vector(spec, n: int, domain: Tuple[Any, ...]) -> Tuple[Any, ...]:
    if isinstance(spec, (list, tuple)):
        return tuple(spec)
    if spec == "unanimous-0":
        return (domain[0],) * n
    if spec == "unanimous-1":
        return (domain[-1],) * n
    if spec == "alternating":
        return tuple(domain[i % len(domain)] for i in range(n))
    if spec == "split-half":
        return tuple(domain[0] if i < n // 2 else domain[-1] for i in range(n))
    raise ScenarioFileError(f"unknown input pattern {spec!r}")


def resolve_adversaries(spec) -> List[AdversarySpec]:
    if spec == "catalog":
        return strategy_catalog()
    out = []
    for item in spec:
        if isinstance(item, str):
            out.append(AdversarySpec.make(item))
        else:
            out.append(AdversarySpec.make(item["name"], item.get("params")))
    return out


def load_sweep_file(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(str(exc.msg), line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScenarioFileError(f"a sweep file holds a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SWEEP_SCHEMA_VERSION:
        raise ScenarioFileError(
            f"unsupported schema_version {doc.get('schema_version')!r},"
            f" expected {SWEEP_SCHEMA_VERSION}"
        )
    return doc


def _is_int(entry) -> bool:
    return isinstance(entry, int) and not isinstance(entry, bool)


def _is_adversary(entry) -> bool:
    """A strategy name, or an object with one as "name" and, if given, an
    object as "params", that `adversaries.make_strategy` accepts."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("params"), (dict, type(None)))):
        return False
    try:
        make_strategy(AdversarySpec.make(entry["name"], entry.get("params")))
    except ConfigurationError:
        return False
    return True


def _check_list(where: str, entries, accepts: Callable[[Any], bool], expected: str) -> None:
    """Reject `entries` (an axis or a top-level key, named by `where`) if it
    is not a list or holds an entry `accepts` refuses, with an error naming
    it and the entry's position."""
    if not isinstance(entries, (list, tuple)):
        raise ScenarioFileError(f"{where} must be a list, got {entries!r}")
    for pos, entry in enumerate(entries):
        if not accepts(entry):
            raise ScenarioFileError(f"{where} entry {pos}: expected {expected}, got {entry!r}")


def _is_domain(domain) -> bool:
    """A non-empty ascending list of distinct integers or of distinct strings."""
    if not isinstance(domain, (list, tuple)) or not domain:
        return False
    if not (all(map(_is_int, domain)) or all(isinstance(v, str) for v in domain)):
        return False
    return list(domain) == sorted(set(domain))


def _is_ids(entry, n: int) -> bool:
    """A list of process ids in 1..n."""
    return isinstance(entry, list) and all(_is_int(p) and 1 <= p <= n for p in entry)


def _check_params(protocol: str, params: Dict[str, Any], ns: List[int], variants) -> None:
    """Reject params that are no JSON object or that a protocol cannot run with.

    The `k` of the conditional BA, of the standalone broadcast, of graded
    consensus with a core set and of conciliation, any given `T` and the
    broadcast's `sender` must be integers of at least 0, 0 and 1.  Graded
    consensus with a core set and conciliation need a `window` of process
    ids or `windows` holding one for each process; a given broadcast
    `committee` must be a list of process ids.  A process id is an integer
    in 1..n for every n of the sweep.  The conditional BA's own rules are
    `agreement.check_conditional_params`, applied at every n of the sweep,
    authenticated if the sweep has that variant."""
    if not isinstance(params, dict):
        raise ScenarioFileError(f"key 'params' must be a JSON object, got {params!r}")
    windowed = protocol in ("graded-consensus-core", "conciliate")
    checks = (("k", 0, windowed or protocol in ("ba-classification", "bb-committee")),
              ("T", 0, params.get("T") is not None),
              ("sender", 1, protocol == "bb-committee"))
    for key, low, needed in checks:
        if needed and not (_is_int(params.get(key)) and params[key] >= low):
            raise ScenarioFileError(
                f"key 'params': {key!r} must be an integer of at least {low} for {protocol},"
                f" got {params!r}"
            )
    if protocol == "ba-classification":
        try:
            for n in ns:
                check_conditional_params(params, n, AUTHENTICATED in variants, range(1, n + 1))
        except ConfigurationError as exc:
            raise ScenarioFileError(f"key 'params': {exc}") from exc
    window, windows = params.get("window"), params.get("windows")
    if windowed and not (
        all(_is_ids(window, n) for n in ns) if windows is None
        else isinstance(windows, dict)
        and all(_is_ids(windows.get(p, windows.get(str(p))), n)
                for n in ns for p in range(1, n + 1))
    ):
        raise ScenarioFileError(
            f"key 'params': 'window' or 'windows' must be given for {protocol}: a list of"
            f" process ids in 1..n, or an object holding one for each process 1..n, got {params!r}"
        )
    if protocol == "bb-committee" and "committee" in params and not all(
        _is_ids(params["committee"], n) for n in ns
    ):
        raise ScenarioFileError(
            f"key 'params': 'committee' must be a list of integers in 1..n for every n of"
            f" the sweep, got {params['committee']!r}"
        )


def expand_sweep(doc: Dict[str, Any]) -> Tuple[List[SweepPoint], List[SkippedPoint]]:
    protocol = doc.get("protocol", "ba-with-predictions")
    if protocol not in protocol_names():
        raise ScenarioFileError(
            f"key 'protocol': expected one of {', '.join(protocol_names())}, got {protocol!r}"
        )
    variants = doc.get("variant", UNAUTHENTICATED)
    if isinstance(variants, str):
        variants = [variants]
    _check_list("key 'variant'", variants, lambda e: e in VARIANTS,
                "one of " + ", ".join(VARIANTS))
    domain = doc.get("value_domain", (0, 1))
    if not _is_domain(domain):
        raise ScenarioFileError(
            "key 'value_domain' must be a non-empty ascending list of distinct integers"
            f" or of distinct strings, got {domain!r}"
        )
    domain = tuple(domain)
    params = doc.get("params", {})
    axes = doc.get("axes", {})
    if not isinstance(axes, dict):
        raise ScenarioFileError(f"'axes' must be a JSON object, got {axes!r}")
    ns = axes.get("n", [4])
    t_specs = axes.get("t", "max")
    if not isinstance(t_specs, list):
        t_specs = [t_specs]
    f_specs = axes.get("f", [0])
    budgets = axes.get("error_budget", [0])
    allocations = axes.get("allocation", ["concentrated-on-faulty"])
    adversary_specs = axes.get("adversary", [AdversarySpec().name])
    inputs = axes.get("inputs", ["alternating"])
    placements = axes.get("fault_placement", ["lowest"])
    seeds = axes.get("seeds", [0])
    _check_list("axis 'n'", ns, _is_int, "an integer")
    _check_params(protocol, params, ns, variants)
    _check_list("axis 't'", t_specs, lambda e: e == "max" or _is_int(e), "an integer or \"max\"")
    _check_list("axis 'f'", f_specs, lambda e: e in ("half", "max") or (_is_int(e) and e >= 0),
                "an integer of at least 0, \"half\" or \"max\"")
    _check_list("axis 'error_budget'", budgets,
                lambda e: _is_int(e) or isinstance(e, str) and _BUDGET_SPEC.fullmatch(e),
                "an integer or \"<k>n\"")
    _check_list("axis 'allocation'", allocations, lambda e: e in predictions.ALLOCATION_POLICIES,
                "one of " + ", ".join(predictions.ALLOCATION_POLICIES))
    if adversary_specs != "catalog":
        _check_list("axis 'adversary'", adversary_specs, _is_adversary,
                    "a catalog strategy name or an object with one as \"name\" and valid \"params\"")
    _check_list("axis 'inputs'", inputs,
                lambda e: e in INPUT_PATTERNS
                or isinstance(e, (list, tuple)) and all(len(e) == n for n in ns),
                "one of " + ", ".join(INPUT_PATTERNS)
                + " or a list of one input per process for every n of the sweep")
    _check_list("axis 'fault_placement'", placements, lambda e: e in FAULT_PLACEMENTS,
                "one of " + ", ".join(FAULT_PLACEMENTS))
    _check_list("axis 'seeds'", seeds, _is_int, "an integer")
    adversaries = resolve_adversaries(adversary_specs)

    points: List[SweepPoint] = []
    skipped: List[SkippedPoint] = []
    for variant, n, t_spec in itertools.product(variants, ns, t_specs):
        t = resolve_t(t_spec, n, variant)
        fs = dict.fromkeys(resolve_f(f_spec, t) for f_spec in f_specs)
        resolved = [resolve_budget(spec, n) for spec in budgets]
        for f, budget, allocation, adv, input_spec, placement, seed in itertools.product(
            fs, resolved, allocations, adversaries, inputs, placements, seeds
        ):
            index = len(points) + len(skipped)
            try:
                scenario = Scenario(
                    n=n,
                    t=t,
                    fault_set=fault_ids(n, f, placement),
                    inputs=input_vector(input_spec, n, domain),
                    error_budget=budget,
                    error_allocation=allocation,
                    adversary=adv,
                    seed=seed,
                    variant=variant,
                    value_domain=domain,
                )
            except ConfigurationError as exc:
                skipped.append(SkippedPoint(index, str(exc)))
            else:
                points.append(SweepPoint(index, scenario, protocol, dict(params)))
    return points, skipped


# ---------------------------------------------------------------------------
# Metrics records
# ---------------------------------------------------------------------------

def run_point(point: SweepPoint) -> Dict[str, Any]:
    """Execute one point and build its metrics record."""
    result = run_execution(point.scenario, point.protocol, point.params)
    mis = misclassification(result)
    verdicts = verify_execution(result, mis)
    scenario = point.scenario
    decisions = [result.decisions.get(p) for p in scenario.honest]
    distinct = {repr(v) for v in decisions}
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "index": point.index,
        "scenario": scenario.to_json_dict(),
        "protocol": point.protocol,
        "params": point.params,
        "realized_budget": result.trace["prediction_report"],
        "misclassification": None if mis is None else {
            "k_A": mis.num_total, "k_H": mis.num_honest, "k_F": mis.num_faulty
        },
        "rounds_elapsed": result.rounds_elapsed,
        "honest_messages_total": result.honest_messages_total,
        "honest_messages_by_protocol": dict(sorted(result.honest_messages_by_protocol.items())),
        "alpha": result.trace.get("alpha"),
        "decision": decisions[0] if len(distinct) == 1 else None,
        "decisions_distinct": len(distinct),
        "verdicts": [v.as_dict() for v in verdicts],
        "ok": all_pass(verdicts),
    }
    return record


def record_bytes(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class SweepSummary:
    executed: int = 0
    skipped: int = 0
    violations: int = 0
    first_violation: Optional[Dict[str, Any]] = None
    by_axis: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def as_text(self) -> str:
        lines = [
            f"points executed: {self.executed}",
            f"points skipped:  {self.skipped}",
            f"violations:      {self.violations}",
        ]
        for axis in sorted(self.by_axis):
            lines.append(f"-- by {axis}:")
            for key in sorted(self.by_axis[axis], key=str):
                agg = self.by_axis[axis][key]
                lines.append(
                    f"   {key}: runs={agg['runs']:.0f} mean_rounds={agg['mean_rounds']:.1f} "
                    f"max_rounds={agg['max_rounds']:.0f} mean_msgs={agg['mean_msgs']:.1f}"
                )
        return "\n".join(lines)


def run_sweep(
    doc: Dict[str, Any],
    output_path: Optional[str] = None,
    workers: int = 1,
    progress=None,
) -> Tuple[List[Dict[str, Any]], SweepSummary]:
    points, skipped = expand_sweep(doc)
    records: List[Dict[str, Any]] = []

    if workers > 1 and len(points) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            for record in pool.imap(run_point, points, chunksize=1):
                records.append(record)
                if progress:
                    progress(record)
    else:
        for point in points:
            record = run_point(point)
            records.append(record)
            if progress:
                progress(record)

    summary = summarize(records, skipped)
    if output_path:
        with open(output_path, "w") as fh:
            for record in records:
                fh.write(record_bytes(record).decode() + "\n")
    return records, summary


def summarize(records: List[Dict[str, Any]], skipped: List[SkippedPoint]) -> SweepSummary:
    summary = SweepSummary(executed=len(records), skipped=len(skipped))
    axes = ("n", "f", "error_budget", "adversary", "variant")
    acc: Dict[str, Dict[str, List[Tuple[int, int]]]] = {a: {} for a in axes}
    for record in records:
        if not record["ok"]:
            summary.violations += 1
            if summary.first_violation is None:
                summary.first_violation = record
        sc = record["scenario"]
        keyvals = {
            "n": sc["n"],
            "f": len(sc["fault_set"]),
            "error_budget": sc["error_budget"],
            "adversary": sc["adversary"]["name"],
            "variant": sc["variant"],
        }
        for axis, key in keyvals.items():
            acc[axis].setdefault(str(key), []).append(
                (record["rounds_elapsed"], record["honest_messages_total"])
            )
    for axis, groups in acc.items():
        summary.by_axis[axis] = {}
        for key, vals in groups.items():
            rounds = [r for r, _m in vals]
            msgs = [m for _r, m in vals]
            summary.by_axis[axis][key] = {
                "runs": len(vals),
                "mean_rounds": sum(rounds) / len(rounds),
                "max_rounds": max(rounds),
                "mean_msgs": sum(msgs) / len(msgs),
            }
    return summary


def replay_record(record: Dict[str, Any]) -> bool:
    """Re-execute a record's point; True iff byte-identical."""
    fresh = run_point(SweepPoint.from_json_dict(record))
    return record_bytes(fresh) == record_bytes(record)


def load_records(path: str) -> List[Dict[str, Any]]:
    """The records of a JSON-lines file.  A line that does not hold a
    record of this schema_version, or whose point names an unknown
    protocol or adversary strategy or gives either params it cannot run
    with, raises `ScenarioFileError` naming the line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                point = SweepPoint.from_json_dict(record)
            except json.JSONDecodeError as exc:
                raise ScenarioFileError(str(exc.msg), line=lineno, column=exc.colno) from exc
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ScenarioFileError(
                    "a record is an object holding index, scenario, protocol and params,"
                    f" and its scenario loads; this one fails with {exc!r}", line=lineno
                ) from exc
            if record.get("schema_version") != RECORD_SCHEMA_VERSION:
                raise ScenarioFileError(
                    f"unsupported record schema_version {record.get('schema_version')!r},"
                    f" expected {RECORD_SCHEMA_VERSION}", line=lineno
                )
            if point.protocol not in protocol_names():
                raise ScenarioFileError(f"unknown protocol {point.protocol!r}", line=lineno)
            adversary = point.scenario.adversary
            if not _is_adversary({"name": adversary.name, "params": adversary.param_dict()}):
                raise ScenarioFileError(
                    f"unknown adversary strategy {adversary.name!r}, or params it cannot run"
                    f" with: {adversary.param_dict()!r}", line=lineno
                )
            try:
                _check_params(point.protocol, point.params, [point.scenario.n],
                              [point.scenario.variant])
            except ScenarioFileError as exc:
                raise ScenarioFileError(str(exc), line=lineno) from exc
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Standalone conditional-BA runs (classification derived from a real vote round)
# ---------------------------------------------------------------------------

def run_conditional_standalone(
    scenario: Scenario,
    k: Optional[int] = None,
    T: Optional[int] = None,
):
    """Run the classify round, then the conditional BA with the resulting
    per-process classifications as parameters.

    Returns (classify_result, conditional_result, k).  When k is None the
    smallest k covering the realized misclassification count is chosen.
    """
    cls_result = run_execution(scenario, "classify")
    vectors = cls_result.trace.get("classifications", {})  # honest writers only
    if k is None:
        report = predictions.misclassification_report(vectors, scenario.n, scenario.fault_set)
        k = max(report.num_total, 1)
    truth = predictions.correct_classification(scenario.n, scenario.fault_set)
    table = {p: vectors.get(p, truth) for p in range(1, scenario.n + 1)}
    params = {"k": k, "classifications": table}
    if T is not None:
        params["T"] = T
    cond_result = run_execution(scenario, "ba-classification", params)
    return cls_result, cond_result, k


# ---------------------------------------------------------------------------
# Round-envelope prediction (criterion 6 support)
# ---------------------------------------------------------------------------

def misclassification_proof_bound(n: int, f: int, realized_budget: int) -> float:
    denom = math.ceil(n / 2) - f
    if denom <= 0:
        return math.inf
    return realized_budget / denom


def predicted_exit_phase(scenario: Scenario) -> int:
    """Earliest wrapper phase whose sub-protocol guarantees fire, plus the
    one helper phase, capped at the phase count.  Uses the proof-level
    misclassification bound, not the realized one."""
    variant, n, t, f = scenario.variant, scenario.n, scenario.t, scenario.f
    _vectors, report = predictions.generate_predictions(
        n, scenario.fault_set, scenario.error_budget, scenario.error_allocation
    )
    k_a_bound = misclassification_proof_bound(n, f, report.total)
    alpha = compute_alpha(variant, t)
    phases = wrapper_phase_count(t)
    for phase in range(1, phases + 1):
        k = 2 ** (phase - 1)
        T = alpha * k
        es_ok = T >= es_rounds_needed(variant, t, f)
        cond_ok = (
            k >= k_a_bound
            and size_condition_holds(variant, n, t, k)
            and T >= conditional_round_budget(variant, k)
        )
        if es_ok or cond_ok:
            return min(phase + 1, phases)
    return phases


def round_envelope(scenario: Scenario) -> int:
    """Upper bound on wrapper rounds from component formulas, with the
    stated tolerance of one extra doubling phase."""
    phase = min(predicted_exit_phase(scenario) + 1, wrapper_phase_count(scenario.t))
    return wrapper_rounds_through_phase(scenario.variant, scenario.t, phase)

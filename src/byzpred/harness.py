"""Scenario files, sweep execution, metrics records, and replay.

Scenario file (JSON, schema_version 1):

    {
      "schema_version": 1,
      "protocol": "ba-with-predictions",
      "variant": "unauthenticated",  # or a list of variants
      "value_domain": [0, 1],        # ascending distinct ints or strings
      "params": {},                  # only params the protocol declares (engine.check_params)
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

`KEYS` lists the top-level keys and `AXES` the axes, each with its default
and the test of its entries; an unknown key or axis is refused.  The sweep
is the cross-product of the axes in `AXES` order: variant, then the axes as
above.  A point is indexed in that order.  An infeasible point (budget not
realizable, f > t, f > n, or t over the variant's resilience bound: 3t < n
unauthenticated, 2t < n authenticated) is skipped with its index and
reason, never silently dropped.  A duplicate f after resolution ("half"
equal to 0, say) is expanded once and takes no index.  One metrics record
(`Record`) is emitted per executed point as a JSON line; records are
byte-reproducible from the point alone, which `replay` checks.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from . import predictions
from .adversaries import make_strategy, strategy_catalog
from .agreement import (
    compute_alpha,
    conditional_round_budget,
    size_condition_holds,
    wrapper_phase_count,
    wrapper_rounds_through_phase,
)
from .blocks import es_rounds_needed
from .engine import check_params, protocol_names, run_execution
from .errors import ConfigurationError, ScenarioFileError
from .scenario import UNAUTHENTICATED, VARIANTS, AdversarySpec, Scenario
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


def _refuse_unknown(what: str, given, known, line=None) -> None:
    """Refuse a key of `given` that `known` does not list, naming it as a `what`."""
    for key in given:
        if key not in known:
            raise ScenarioFileError(f"unknown {what} {key!r}; known: {', '.join(known)}",
                                    line=line)


def _is_int(entry) -> bool:
    return isinstance(entry, int) and not isinstance(entry, bool)


def _is_domain(domain) -> bool:
    """A non-empty ascending list of distinct integers or of distinct strings."""
    if not isinstance(domain, (list, tuple)) or not domain:
        return False
    if not (all(map(_is_int, domain)) or all(isinstance(v, str) for v in domain)):
        return False
    return list(domain) == sorted(set(domain))


def _check_params(protocol: str, params, ns: List[int], variants, line=None) -> None:
    """Reject params that are no JSON object, or that `protocol` does not
    read or cannot run with at some n and variant (`engine.check_params`),
    with an error at `line` if given."""
    if not isinstance(params, dict):
        raise ScenarioFileError(f"key 'params' must be a JSON object, got {params!r}", line=line)
    try:
        for n, variant in itertools.product(ns, variants):
            check_params(protocol, params, n, variant)
    except ConfigurationError as exc:
        raise ScenarioFileError(f"key 'params': {exc}", line=line) from exc


KEYS = ("schema_version", "protocol", "variant", "value_domain", "params", "axes")


def _entry(accepts: Callable[[Any], bool]) -> Callable[[Any, Dict[str, list]], Any]:
    """The test of an axis whose accepted entries expand as written."""
    return lambda entry, _outer: entry if accepts(entry) else None


def _adversary(entry, _outer=None) -> Optional[AdversarySpec]:
    """The spec of a strategy name, or of an object with one as "name" and,
    if given, an object as "params", that `adversaries.make_strategy`
    accepts; None for anything else."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("params"), (dict, type(None)))):
        return None
    spec = AdversarySpec.make(entry["name"], entry.get("params"))
    try:
        make_strategy(spec)
    except ConfigurationError:
        return None
    return spec


def _inputs(entry, outer: Dict[str, list]):
    """An input pattern, or a list of one input per process for every n of the sweep."""
    listed = isinstance(entry, (list, tuple)) and all(len(entry) == n for n in outer["n"])
    return entry if listed or entry in INPUT_PATTERNS else None


@dataclass(frozen=True)
class Axis:
    """A sweep axis.  `test(entry, outer)` gives an entry as expansion reads
    it, or None to refuse it, and `expected` says what it accepts; `outer`
    holds the entries of the axes listed before.  `shorthand` maps a file's
    value to the entry list it stands for, `values` maps the entries to the
    axis' values at a point whose outer axes are set, and `summary`, if
    given, reads the axis from a record's scenario for `summarize`."""

    name: str
    default: Any
    test: Callable[[Any, Dict[str, list]], Any]
    expected: str
    shorthand: Callable[[Any], Any] = lambda value: value
    values: Callable[[list, Dict[str, Any]], Iterable] = lambda entries, _point: entries
    summary: Optional[Callable[[Dict[str, Any]], Any]] = None

    def read(self, doc: Dict[str, Any], outer: Dict[str, list]) -> list:
        """This axis' entries in sweep document `doc`, or its default, each as
        `test` reads it; an error names the axis (the key, for one in `KEYS`)."""
        where = f"key {self.name!r}" if self.name in KEYS else f"axis {self.name!r}"
        source = doc if self.name in KEYS else doc.get("axes", {})
        entries = self.shorthand(source.get(self.name, self.default))
        if not isinstance(entries, (list, tuple)):
            raise ScenarioFileError(f"{where} must be a list, got {entries!r}")
        read = [self.test(entry, outer) for entry in entries]
        if None in read:
            pos = read.index(None)
            raise ScenarioFileError(
                f"{where} entry {pos}: expected {self.expected}, got {entries[pos]!r}")
        return read


# In expansion order: the first axis varies slowest.
AXES = (
    Axis("variant", UNAUTHENTICATED, _entry(lambda e: e in VARIANTS),
         "one of " + ", ".join(VARIANTS),
         shorthand=lambda value: [value] if isinstance(value, str) else value,
         summary=lambda sc: sc["variant"]),
    Axis("n", [4], _entry(_is_int), "an integer", summary=lambda sc: sc["n"]),
    Axis("t", "max", _entry(lambda e: e == "max" or _is_int(e)), "an integer or \"max\"",
         shorthand=lambda value: value if isinstance(value, list) else [value],
         values=lambda specs, p: [resolve_t(spec, p["n"], p["variant"]) for spec in specs]),
    Axis("f", [0], _entry(lambda e: e in ("half", "max") or (_is_int(e) and e >= 0)),
         "an integer of at least 0, \"half\" or \"max\"",
         values=lambda specs, p: dict.fromkeys(resolve_f(spec, p["t"]) for spec in specs),
         summary=lambda sc: len(sc["fault_set"])),
    Axis("error_budget", [0],
         _entry(lambda e: _is_int(e) or (isinstance(e, str) and _BUDGET_SPEC.fullmatch(e))),
         "an integer or \"<k>n\"",
         values=lambda specs, p: [resolve_budget(spec, p["n"]) for spec in specs],
         summary=lambda sc: sc["error_budget"]),
    Axis("allocation", ["concentrated-on-faulty"],
         _entry(lambda e: e in predictions.ALLOCATION_POLICIES),
         "one of " + ", ".join(predictions.ALLOCATION_POLICIES)),
    Axis("adversary", [AdversarySpec().name], _adversary,
         "a catalog strategy name or an object with one as \"name\" and valid \"params\"",
         shorthand=lambda value: [{"name": spec.name, "params": spec.param_dict()}
                                  for spec in strategy_catalog()] if value == "catalog" else value,
         summary=lambda sc: sc["adversary"]["name"]),
    Axis("inputs", ["alternating"], _inputs, "one of " + ", ".join(INPUT_PATTERNS)
         + " or a list of one input per process for every n of the sweep"),
    Axis("fault_placement", ["lowest"], _entry(lambda e: e in FAULT_PLACEMENTS),
         "one of " + ", ".join(FAULT_PLACEMENTS)),
    Axis("seeds", [0], _entry(_is_int), "an integer"),
)


def expand_sweep(doc: Dict[str, Any]) -> Tuple[List[SweepPoint], List[SkippedPoint]]:
    _refuse_unknown("key", doc, KEYS)
    axes = doc.get("axes", {})
    if not isinstance(axes, dict):
        raise ScenarioFileError(f"'axes' must be a JSON object, got {axes!r}")
    _refuse_unknown("axis", axes, [axis.name for axis in AXES if axis.name not in KEYS])
    protocol = doc.get("protocol", "ba-with-predictions")
    if protocol not in protocol_names():
        raise ScenarioFileError(
            f"key 'protocol': expected one of {', '.join(protocol_names())}, got {protocol!r}"
        )
    domain = doc.get("value_domain", (0, 1))
    if not _is_domain(domain):
        raise ScenarioFileError(
            "key 'value_domain' must be a non-empty ascending list of distinct integers"
            f" or of distinct strings, got {domain!r}"
        )
    domain = tuple(domain)
    entries: Dict[str, list] = {}
    grid: List[Dict[str, Any]] = [{}]  # the points so far, each as its axis values
    for axis in AXES:
        entries[axis.name] = axis.read(doc, entries)
        grid = [{**p, axis.name: value} for p in grid
                for value in axis.values(entries[axis.name], p)]
    params = doc.get("params", {})
    _check_params(protocol, params, entries["n"], entries["variant"])
    points: List[SweepPoint] = []
    skipped: List[SkippedPoint] = []
    for index, p in enumerate(grid):
        try:
            scenario = Scenario(
                n=p["n"],
                t=p["t"],
                fault_set=fault_ids(p["n"], p["f"], p["fault_placement"]),
                inputs=input_vector(p["inputs"], p["n"], domain),
                error_budget=p["error_budget"],
                error_allocation=p["allocation"],
                adversary=p["adversary"],
                seed=p["seeds"],
                variant=p["variant"],
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

@dataclass
class Record:
    """The metrics record of one executed point (schema_version 2; sweep
    files stay at 1): the point, then what its execution gave.  `run_point`
    gives it as a JSON object keyed by these fields."""

    schema_version: int
    index: int
    scenario: Dict[str, Any]
    protocol: str
    params: Dict[str, Any]
    realized_budget: Dict[str, Any]  # the prediction errors actually placed
    misclassification: Optional[Dict[str, int]]  # k_A, k_H, k_F; null if none classified
    rounds_elapsed: int
    honest_messages_total: int
    honest_messages_by_protocol: Dict[str, int]
    alpha: Optional[int]  # the wrapper's alpha, or null
    decision: Any  # the honest decision if all agree, else null
    decisions_distinct: int
    verdicts: List[Dict[str, Any]]  # name, ok, detail
    ok: bool


def run_point(point: SweepPoint) -> Dict[str, Any]:
    """Execute one point and build its metrics record."""
    result = run_execution(point.scenario, point.protocol, point.params)
    mis = misclassification(result)
    verdicts = verify_execution(result, mis)
    scenario = point.scenario
    decisions = [result.decisions.get(p) for p in scenario.honest]
    distinct = {repr(v) for v in decisions}
    return vars(Record(
        schema_version=RECORD_SCHEMA_VERSION,
        index=point.index,
        scenario=scenario.to_json_dict(),
        protocol=point.protocol,
        params=point.params,
        realized_budget=result.trace["prediction_report"],
        misclassification=None if mis is None else {
            "k_A": mis.num_total, "k_H": mis.num_honest, "k_F": mis.num_faulty
        },
        rounds_elapsed=result.rounds_elapsed,
        honest_messages_total=result.honest_messages_total,
        honest_messages_by_protocol=dict(sorted(result.honest_messages_by_protocol.items())),
        alpha=result.trace.get("alpha"),
        decision=decisions[0] if len(distinct) == 1 else None,
        decisions_distinct=len(distinct),
        verdicts=[v.as_dict() for v in verdicts],
        ok=all_pass(verdicts),
    ))


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
    pool = None
    if workers > 1 and len(points) > 1:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
    with pool or contextlib.nullcontext():
        for record in pool.imap(run_point, points, chunksize=1) if pool else map(run_point, points):
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
    violating = [record for record in records if not record["ok"]]
    summary = SweepSummary(len(records), len(skipped), len(violating),
                           violating[0] if violating else None)
    for axis in AXES:
        if axis.summary is None:
            continue
        groups: Dict[str, Tuple[List[int], List[int]]] = {}  # rounds and messages by key
        for record in records:
            rounds, msgs = groups.setdefault(str(axis.summary(record["scenario"])), ([], []))
            rounds.append(record["rounds_elapsed"])
            msgs.append(record["honest_messages_total"])
        summary.by_axis[axis.name] = {
            key: {
                "runs": len(rounds),
                "mean_rounds": sum(rounds) / len(rounds),
                "max_rounds": max(rounds),
                "mean_msgs": sum(msgs) / len(msgs),
            }
            for key, (rounds, msgs) in groups.items()
        }
    return summary


def replay_record(record: Dict[str, Any]) -> bool:
    """Re-execute a record's point; True iff byte-identical."""
    fresh = run_point(SweepPoint.from_json_dict(record))
    return record_bytes(fresh) == record_bytes(record)


def load_records(path: str) -> List[Dict[str, Any]]:
    """The records of a JSON-lines file.  A line that does not hold a
    record of this schema_version, that lacks a `Record` field or holds a
    key `Record` or `Scenario` has no field for, or whose point names an
    unknown protocol or adversary strategy or gives either params it cannot
    run with, raises `ScenarioFileError` naming the line."""
    records = []
    record_keys = [f.name for f in fields(Record)]
    scenario_keys = [f.name for f in fields(Scenario)]
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
            _refuse_unknown("record key", record, record_keys, lineno)
            for key in record_keys:
                if key not in record:
                    raise ScenarioFileError(f"missing record key {key!r}", line=lineno)
            _refuse_unknown("scenario key", record["scenario"], scenario_keys, lineno)
            if point.protocol not in protocol_names():
                raise ScenarioFileError(f"unknown protocol {point.protocol!r}", line=lineno)
            adversary = point.scenario.adversary
            if _adversary({"name": adversary.name, "params": adversary.param_dict()}) is None:
                raise ScenarioFileError(
                    f"unknown adversary strategy {adversary.name!r}, or params it cannot run"
                    f" with: {adversary.param_dict()!r}", line=lineno
                )
            _check_params(point.protocol, point.params, [point.scenario.n],
                          [point.scenario.variant], lineno)
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Round-envelope prediction (criterion 6 support)
# ---------------------------------------------------------------------------

def predicted_exit_phase(scenario: Scenario) -> int:
    """Earliest wrapper phase whose sub-protocol guarantees fire, plus the
    one helper phase, capped at the phase count.  Uses the proof-level
    misclassification bound, not the realized one."""
    variant, n, t, f = scenario.variant, scenario.n, scenario.t, scenario.f
    _vectors, report = predictions.generate_predictions(
        n, scenario.fault_set, scenario.error_budget, scenario.error_allocation
    )
    k_a_bound = report.total / predictions.flips_to_misclassify(n, f, honest=True)
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

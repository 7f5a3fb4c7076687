"""Property verdicts recomputed from an execution's result and traces.

verify_execution checks the agreement-problem properties (Agreement,
Strong Unanimity on unanimous-input runs, Termination) plus every
module-level trace oracle:

* classification vote bounds and the misclassification-count bound,
* ordering position stability and the faulty-position corollary,
* core-set existence for every admissible window,
* leader-window churn and the all-honest-window phase (conditional
  unauthenticated BA, when its guarantee conditions hold),
* committee composition (conditional authenticated BA),
* per-broadcaster message budgets (the runtime check
  ``bb-broadcast-budget``, aggregated with the others below),
* the chain-propagation property behind committee agreement,
* runtime check failures aggregated by the protocols themselves.

Each verdict is independent: a failing verdict carries a counterexample
string and never stops the others from being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from . import predictions
from .agreement import (
    leader_window,
    size_condition_holds,
    wrapper_phase_count,
)
from .engine import ExecutionResult

BA_PROTOCOLS = ("ba-with-predictions", "ba-classification", "ba-early-stopping")


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def misclassification(result: ExecutionResult) -> Optional[predictions.MisclassificationReport]:
    """The misclassification report of the honest classifications in
    `result`'s trace, or None if no process classified."""
    classifications = result.trace.get("classifications")  # honest writers only
    if not classifications:
        return None
    return predictions.misclassification_report(
        classifications, result.scenario.n, result.scenario.fault_set
    )


def verify_execution(
    result: ExecutionResult, report: Optional[predictions.MisclassificationReport] = None
) -> List[Verdict]:
    """Every verdict on `result`.  `report` is ``misclassification(result)``,
    derived here unless the caller holds it already.  The ground truth, the
    report and each distinct honest ordering are derived once and shared by
    every classification oracle."""
    scenario = result.scenario
    verdicts: List[Verdict] = []
    honest = scenario.honest

    if result.protocol in BA_PROTOCOLS:
        verdicts.append(_termination(result, honest))
        verdicts.append(_agreement(result, honest))
        unanimity = _strong_unanimity(result, scenario, honest)
        if unanimity is not None:
            verdicts.append(unanimity)

    verdicts.append(_runtime_checks(result))

    # honest processes alone write the trace dict, so these are theirs
    classifications = result.trace.get("classifications")
    if classifications:
        if report is None:
            report = misclassification(result)
        truth = predictions.correct_classification(scenario.n, scenario.fault_set)
        # each distinct vector's ordering, in the order of its first holder
        orderings = {c: predictions.ordering(c) for c in dict.fromkeys(classifications.values())}
        verdicts.append(_vote_bound(result, scenario, truth, report))
        verdicts.append(_misclassification_bound(result, scenario, report))
        verdicts.append(_position_stability(scenario, truth, orderings))
        verdicts.append(_faulty_position(scenario, orderings, report))
        verdicts.append(_core_set_witness(scenario, orderings, report))
        verdicts.extend(_alg5_oracles(result, scenario, orderings, report))
        verdicts.extend(_alg7_oracles(result, scenario, classifications, orderings, report))

    chain_verdict = _chain_propagation(result, scenario)
    if chain_verdict is not None:
        verdicts.append(chain_verdict)
    wrapper_verdict = _wrapper_decision_window(result, scenario)
    if wrapper_verdict is not None:
        verdicts.append(wrapper_verdict)
    return verdicts


def all_pass(verdicts: List[Verdict]) -> bool:
    return all(v.ok for v in verdicts)


def failures(verdicts: List[Verdict]) -> List[Verdict]:
    return [v for v in verdicts if not v.ok]


# ---------------------------------------------------------------------------
# Problem-level properties
# ---------------------------------------------------------------------------

def _termination(result, honest):
    missing = [p for p in honest if result.decisions.get(p) is None]
    return Verdict(
        "termination",
        not missing,
        f"honest processes without a decision: {missing}" if missing else "",
    )


def _agreement(result, honest):
    values = {p: result.decisions.get(p) for p in honest}
    distinct = sorted({repr(v) for v in values.values()})
    if len(distinct) <= 1:
        return Verdict("agreement", True)
    sample = {v: [p for p, pv in values.items() if repr(pv) == v][0] for v in distinct}
    return Verdict("agreement", False, f"honest decisions differ: {sample}")


def _strong_unanimity(result, scenario, honest) -> Optional[Verdict]:
    if not scenario.honest_inputs_unanimous():
        return None
    v = scenario.input_of(honest[0])
    wrong = {p: result.decisions.get(p) for p in honest if result.decisions.get(p) != v}
    return Verdict(
        "strong-unanimity",
        not wrong,
        f"unanimous input {v!r} but decisions {wrong}" if wrong else "",
    )


def _runtime_checks(result):
    fails = result.check_failures
    detail = "; ".join(f"{c.name}: {c.detail}" for c in fails[:5])
    return Verdict("runtime-checks", not fails, detail)


# ---------------------------------------------------------------------------
# Classification oracles
# ---------------------------------------------------------------------------

def _vote_bound(result, scenario, truth, report):
    """Every misclassified process had at least threshold-f honest holders
    with the wrong prediction bit about it."""
    n, f = scenario.n, scenario.f
    vectors = result.trace["predictions"]
    bad = []
    for j in sorted(report.misclassified_faulty | report.misclassified_honest):
        wrong_holders = sum(
            1
            for i, vec in vectors.items()
            if i not in scenario.fault_set and vec[j - 1] != truth[j - 1]
        )
        need = predictions.flips_to_misclassify(n, f, honest=truth[j - 1] == 1)
        if wrong_holders < need:
            bad.append((j, wrong_holders, need))
    return Verdict(
        "classification-vote-bound",
        not bad,
        f"misclassified with too few wrong holders: {bad}" if bad else "",
    )


def _misclassification_bound(result, scenario, report):
    """k_A <= B / (ceil(n/2) - f), using the realized error budget."""
    denom = predictions.flips_to_misclassify(scenario.n, scenario.f, honest=True)
    realized = result.trace["prediction_report"]["total"]
    ok = report.num_total <= realized / denom
    return Verdict(
        "misclassification-bound",
        ok,
        "" if ok else f"k_A={report.num_total} > {realized}/{denom}",
    )


def _position_stability(scenario, truth, orderings):
    """Two honest classifications each misclassifying <= m processes place
    any process they both classify correctly within 2m positions."""
    n = scenario.n
    items = []
    for c, order in orderings.items():
        m = predictions.hamming(c, truth)
        pos = {p: idx + 1 for idx, p in enumerate(order)}
        items.append((c, m, pos))
    bad = []
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            ca, ma, pa = items[a]
            cb, mb, pb = items[b]
            m = max(ma, mb)
            for p in range(1, n + 1):
                if ca[p - 1] == truth[p - 1] and cb[p - 1] == truth[p - 1]:
                    if abs(pa[p] - pb[p]) > 2 * m:
                        bad.append((p, pa[p], pb[p], m))
    return Verdict(
        "position-stability",
        not bad,
        f"positions drifted past 2m: {bad[:3]}" if bad else "",
    )


def _faulty_position(scenario, orderings, report):
    """A faulty process placed at position <= n-t-k_A by any honest ordering
    must be in the misclassified set."""
    n, t = scenario.n, scenario.t
    cutoff = n - t - report.num_total
    bad = []
    for order in orderings.values():
        for idx, p in enumerate(order[: max(cutoff, 0)]):
            if p in scenario.fault_set and p not in report.misclassified_faulty:
                bad.append((p, idx + 1))
    return Verdict(
        "faulty-position",
        not bad,
        f"faulty at early position but not misclassified: {bad[:3]}" if bad else "",
    )


def _core_set_witness(scenario, orderings, report):
    """Brute-force core-set search: every admissible window of every honest
    ordering shares >= window-size - k_A honest members."""
    n, t = scenario.n, scenario.t
    k_a = report.num_total
    honest = set(scenario.honest)
    bad = []
    for lo in range(1, n + 1):
        for hi in range(lo + k_a, min(n - t - k_a, n) + 1):
            window_sets = [set(o[lo - 1 : hi]) for o in orderings.values()]
            core = honest.intersection(*window_sets)
            if len(core) < hi - lo + 1 - k_a:
                bad.append((lo, hi, len(core)))
    return Verdict(
        "core-set-witness",
        not bad,
        f"windows without a large-enough core: {bad[:3]}" if bad else "",
    )


# ---------------------------------------------------------------------------
# Conditional-BA trace oracles
# ---------------------------------------------------------------------------

def _alg5_oracles(result, scenario, orderings, report):
    runs = result.trace.get("alg5_runs") or {}
    out = []
    for tag, info in sorted(runs.items()):
        k = info["k"]
        if k < report.num_total or not size_condition_holds(
            "unauthenticated", scenario.n, scenario.t, k
        ):
            continue
        # each distinct honest ordering's leader windows, phase by phase
        schedules = [
            [set(leader_window(order, k, ph)) for ph in range(1, 2 * k + 2)]
            for order in orderings.values()
        ]
        out.append(_alg5_window_churn(scenario, schedules, tag))
        out.append(_alg5_good_phase(scenario, schedules, tag))
        decided = info["decided_phase"]
        if decided:
            phases = sorted(decided.values())
            ok = phases[-1] - phases[0] <= 1
            out.append(
                Verdict(
                    f"alg5-decision-window[{tag}]",
                    ok,
                    "" if ok else f"decisions spread over phases {phases}",
                )
            )
    return out


def _alg5_window_churn(scenario, schedules, tag):
    """Each faulty process appears in some honest window in at most two
    consecutive phases."""
    bad = []
    for j in sorted(scenario.fault_set):
        phases = sorted(
            {ph + 1 for sched in schedules for ph, win in enumerate(sched) if j in win}
        )
        if phases and (len(phases) > 2 or phases[-1] - phases[0] > 1):
            bad.append((j, phases))
    return Verdict(
        f"alg5-window-churn[{tag}]",
        not bad,
        f"faulty in windows beyond two consecutive phases: {bad[:3]}" if bad else "",
    )


def _alg5_good_phase(scenario, schedules, tag):
    """Some phase has every honest window inside the honest set."""
    honest = set(scenario.honest)
    for windows in zip(*schedules):  # phase by phase
        if all(win <= honest for win in windows):
            return Verdict(f"alg5-good-phase[{tag}]", True)
    return Verdict(
        f"alg5-good-phase[{tag}]", False, "no phase with all honest windows fault-free"
    )


def _alg7_oracles(result, scenario, classifications, orderings, report):
    runs = result.trace.get("alg7_runs") or {}
    n, t, f = scenario.n, scenario.t, scenario.f
    out = []
    for context, info in sorted(runs.items()):
        k = info["k"]
        if k < report.num_total or not size_condition_holds("authenticated", n, t, k):
            continue
        certified_honest = set(info["certified"])
        # A faulty process can hold a certificate iff honest nominations plus
        # all f faulty signatures reach t+1; recompute nominations from the
        # honest orderings.
        votes = {j: 0 for j in range(1, n + 1)}
        for c in classifications.values():
            for j in orderings[c][: min(2 * k + 1, n)]:
                votes[j] += 1
        certified_faulty = {
            j for j in scenario.fault_set if votes[j] + f >= t + 1
        }
        committee = certified_honest | certified_faulty
        problems = []
        if len(certified_honest) < k + 1:
            problems.append(f"|C∩H|={len(certified_honest)} < k+1={k + 1}")
        if len(certified_faulty) > k:
            problems.append(f"|C∩F|={len(certified_faulty)} > k={k}")
        if len(committee) > 3 * k + 1:
            problems.append(f"|C|={len(committee)} > 3k+1={3 * k + 1}")
        out.append(
            Verdict(
                f"committee-composition[{context}]",
                not problems,
                "; ".join(problems),
            )
        )
    return out


def _chain_propagation(result, scenario) -> Optional[Verdict]:
    """A value accepted at round k+1 through a chain bearing an honest
    signature was received by every honest process no later than that
    honest signer's link position."""
    late = result.trace.get("bb_late_accepts")
    if not late:
        return None
    first_seen = result.trace.get("bb_first_seen") or {}
    honest = set(scenario.honest)
    bad = []
    for event in late:
        signers = event["signers"]
        honest_positions = [
            idx + 1 for idx, s in enumerate(signers) if s not in scenario.fault_set
        ]
        if not honest_positions:
            continue
        bound = min(honest_positions)
        seen = first_seen.get((event["context"], event["sender"], event["value"]), {})
        for p in honest:
            got = seen.get(p)
            if got is None or got > bound:
                bad.append((event["context"], event["sender"], event["value"], p, got, bound))
    return Verdict(
        "chain-propagation",
        not bad,
        f"late-accepted value not seen early enough: {bad[:3]}" if bad else "",
    )


def _wrapper_decision_window(result, scenario) -> Optional[Verdict]:
    """If an honest process decided in wrapper phase phi, every honest
    process returns by phase min(phi+2, phase_count)."""
    phase_trace = result.trace.get("phase_trace")
    if result.protocol != "ba-with-predictions" or not phase_trace:
        return None
    first = min((event["phase"] for event in phase_trace if event["decided"]), default=None)
    if first is None:
        return Verdict("wrapper-decision-window", False, "no process ever decided")
    cap = min(first + 2, wrapper_phase_count(scenario.t))
    last_phase = {}
    for event in phase_trace:
        last_phase[event["pid"]] = max(last_phase.get(event["pid"], 0), event["phase"])
    bad = {p: ph for p, ph in last_phase.items() if ph > cap}
    return Verdict(
        "wrapper-decision-window",
        not bad,
        "" if not bad else f"first decision in phase {first}, stragglers: {bad}",
    )

"""Top-level agreement protocols.

* classification round (broadcast predictions, majority-vote a vector),
* conditional unauthenticated BA driven by leader windows over the
  classification ordering (2k+1 phases of graded consensus /
  conciliation / graded consensus, 5 rounds each),
* conditional authenticated BA via an implicit committee (nomination
  round, k+1 rounds of broadcast-with-implicit-committee, one plurality
  round: k+3 rounds total),
* the guess-and-double wrapper alternating a time-boxed early-stopping
  BA and a time-boxed conditional BA between graded-consensus guards,
  doubling the tolerated misclassification count and the round budget
  each phase.

Round budgets are exact and exposed as formulas so the harness can
compute expected round envelopes instead of fitting constants.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from . import predictions
from .authtools import (
    BOT,
    BroadcastInstance,
    certificate_from_inbox,
    chain_validator,
    committee_vote_payloads,
    relay_rounds,
)
from .blocks import (
    GC_ROUNDS,
    ba_early_stopping,
    conciliate,
    distinct_by_sender,
    es_rounds_needed,
    graded_consensus_core_set,
    graded_consensus_standard,
    plurality_tiebreak,
)
from .engine import register_protocol
from .errors import ConfigurationError, ProtocolViolation

# ---------------------------------------------------------------------------
# Round formulas
# ---------------------------------------------------------------------------

def conditional_round_budget(variant: str, k: int) -> int:
    """Worst-case rounds of the conditional BA for tolerance k."""
    if variant == "unauthenticated":
        return 5 * (2 * k + 1)
    return k + 3


def size_condition_holds(variant: str, n: int, t: int, k: int) -> bool:
    """The window-size condition under which the conditional BA for
    tolerance k guarantees agreement: (2k+1)(3k+1) <= n-t-k unauthenticated,
    2k+1 <= n-t-k authenticated."""
    if variant == "unauthenticated":
        return (2 * k + 1) * (3 * k + 1) + k <= n - t
    return 2 * k + 1 <= n - t - k


def leader_window(order, k: int, ph: int):
    """The leader window of phase `ph` of the conditional unauthenticated
    BA: the ph-th run of 3k+1 processes of `order`, cut short (or empty)
    at the end of the ordering."""
    return order[(3 * k + 1) * (ph - 1) : (3 * k + 1) * ph]


def _ordering_of(ctx, classification):
    """`predictions.ordering(classification)`, derived once per execution
    for each distinct classification through ``ctx.memo``: the ordering
    reads bits only through ``== 1`` and ``== 0``, so equal vectors give
    equal orderings."""
    order = ctx.memo.get(classification)
    if order is None:
        order = ctx.memo[classification] = predictions.ordering(classification)
    return order


def _leader_windows(ctx, classification, k: int):
    """The 2k+1 leader windows of `classification`'s ordering for tolerance
    k, as frozensets built once per execution and shared by every process
    that holds the classification."""
    key = (classification, k)
    windows = ctx.memo.get(key)
    if windows is None:
        order = _ordering_of(ctx, classification)
        windows = ctx.memo[key] = tuple(
            frozenset(leader_window(order, k, ph)) for ph in range(1, 2 * k + 2)
        )
    return windows


def wrapper_phase_count(t: int) -> int:
    return math.ceil(math.log2(max(t, 1))) + 1


@lru_cache
def compute_alpha(variant: str, t: int) -> int:
    """Smallest round-budget constant such that every phase's budget
    T = alpha * 2^(phase-1) covers both time-boxed sub-protocols.  A pure
    formula, computed once per (variant, t)."""
    alpha = 1
    for phase in range(1, wrapper_phase_count(t) + 1):
        k = 2 ** (phase - 1)
        need = max(
            es_rounds_needed(variant, t, min(k, t)),
            conditional_round_budget(variant, k),
        )
        alpha = max(alpha, math.ceil(need / k))
    return alpha


def wrapper_rounds_through_phase(variant: str, t: int, phase: int) -> int:
    """Exact rounds consumed by the classification round plus phases 1..phase."""
    alpha = compute_alpha(variant, t)
    total = 1
    for ph in range(1, phase + 1):
        total += 3 * GC_ROUNDS[variant] + 2 * alpha * 2 ** (ph - 1)
    return total


# ---------------------------------------------------------------------------
# Classification round
# ---------------------------------------------------------------------------

def classify(ctx, prediction):
    """Broadcast predictions and majority-vote a classification vector."""
    n = ctx.n
    inbox = yield ctx.broadcast(tuple(prediction))
    c = ctx.per_inbox(
        inbox, "classify",
        lambda box: predictions.tally_classification(distinct_by_sender(box).values(), n),
    )
    ctx.shared.setdefault("classifications", {})[ctx.pid] = c
    return c


# ---------------------------------------------------------------------------
# Conditional unauthenticated BA (leader windows over the ordering)
# ---------------------------------------------------------------------------

def ba_with_classification_unauth(ctx, value, classification, k: int, T: Optional[int] = None):
    """2k+1 leader-window phases; returns one phase after deciding.

    Agreement and strong unanimity hold when k bounds the number of
    misclassified processes and (2k+1)(3k+1) <= n-t-k; a value is returned
    within min(T, 5(2k+1)) rounds regardless.
    """
    budget = conditional_round_budget("unauthenticated", k)
    if T is not None:
        budget = min(budget, T)
    windows = _leader_windows(ctx, classification, k)
    run_info = ctx.shared.setdefault("alg5_runs", {}).setdefault(
        ctx.tag, {"k": k, "decided_phase": {}}
    )
    start = ctx.rounds_used
    decision = None

    for ph, window in enumerate(windows, 1):
        if ctx.rounds_used - start + 5 > budget:
            break
        outer = ctx.enter(f"w{ph}")
        phase_tag = ctx.enter("gca")
        value, grade = yield from graded_consensus_core_set(ctx, value, k, window)
        ctx.tag = phase_tag
        ctx.enter("con")
        conciliated = yield from conciliate(ctx, value, k, window)
        ctx.tag = phase_tag
        if grade == 0:
            value = conciliated
        ctx.enter("gcb")
        value, grade = yield from graded_consensus_core_set(ctx, value, k, window)
        ctx.tag = outer
        if decision is not None:
            return decision
        if grade == 1:
            decision = value
            run_info["decided_phase"][ctx.pid] = ph
    return decision if decision is not None else value


# ---------------------------------------------------------------------------
# Conditional authenticated BA (implicit committee)
# ---------------------------------------------------------------------------

def ba_with_classification_auth(ctx, value, classification, k: int, T: Optional[int] = None):
    """Committee nomination, n parallel broadcast instances, plurality round.

    Exactly k+3 rounds, so a given T must be at least k+3
    (`check_conditional_params`; the wrapper's budgets cover it by
    construction).  Agreement and strong unanimity hold when k bounds the
    misclassification count, 2k+1 <= n-t-k and t < n/2.
    """
    n = ctx.n
    domain = ctx.scenario.value_domain
    context = ctx.tag or "alg7"
    targets = _ordering_of(ctx, classification)[: min(2 * k + 1, n)]

    outer = ctx.enter("cvote")
    inbox = yield committee_vote_payloads(ctx, context, targets)
    my_cert = certificate_from_inbox(ctx, context, inbox)
    ctx.tag = outer
    run_info = ctx.shared.setdefault("alg7_runs", {}).setdefault(
        context, {"k": k, "certified": []}
    )
    if my_cert is not None:
        run_info["certified"].append(ctx.pid)

    validator = chain_validator(ctx, context)
    instances = {
        s: BroadcastInstance(ctx, s, k, my_cert, validator) for s in range(1, n + 1)
    }

    ctx.enter("bb")
    yield from relay_rounds(ctx, instances, k, value)
    ctx.tag = outer
    bb_out = [instances[s].result() for s in range(1, n + 1)]

    ctx.enter("plur")
    sends = []
    if my_cert is not None:
        candidates = [v for v in bb_out if v is not BOT and v in domain]
        mine = plurality_tiebreak(candidates) if candidates else value
        sends = ctx.broadcast(("plur", mine, my_cert))
    inbox = yield sends
    ctx.tag = outer
    votes = []
    for src, p in distinct_by_sender(inbox).items():
        if (
            isinstance(p, tuple)
            and len(p) == 3
            and p[0] == "plur"
            and p[1] in domain
            and validator.certificate_ok(p[2], src)
        ):
            votes.append(p[1])
    return plurality_tiebreak(votes) if votes else value


def ba_with_classification(ctx, value, classification, k, T=None):
    """The variant's conditional BA generator."""
    if ctx.variant == "authenticated":
        return ba_with_classification_auth(ctx, value, classification, k, T)
    return ba_with_classification_unauth(ctx, value, classification, k, T)


# ---------------------------------------------------------------------------
# Guess-and-double wrapper
# ---------------------------------------------------------------------------

def ba_with_predictions(ctx, value, prediction):
    """Phase loop doubling the tolerated misclassification count and the
    round budget until a graded-consensus guard confirms agreement."""
    variant = ctx.variant
    alpha = compute_alpha(variant, ctx.t)
    phases = wrapper_phase_count(ctx.t)
    ctx.shared.setdefault("alpha", alpha)

    outer = ctx.enter("classify")
    classification = yield from classify(ctx, prediction)
    ctx.tag = outer
    decided = False
    decision = None
    for phase in range(1, phases + 1):
        T = alpha * 2 ** (phase - 1)
        k = 2 ** (phase - 1)
        outer = ctx.enter(f"ph{phase}")
        phase_tag = ctx.enter("gc1")
        value, g1 = yield from graded_consensus_standard(ctx, value)
        ctx.tag = phase_tag
        ctx.enter("es")
        early = yield from ba_early_stopping(ctx, value, T)
        ctx.tag = phase_tag
        if g1 == 0:
            value = early
        ctx.enter("gc2")
        value, g2 = yield from graded_consensus_standard(ctx, value)
        ctx.tag = phase_tag
        ctx.enter("cond")
        start = ctx.rounds_used
        conditional = yield from ba_with_classification(ctx, value, classification, k, T)
        used = ctx.rounds_used - start
        if used > T:
            raise ProtocolViolation(
                f"process {ctx.pid}: sub-protocol used {used} rounds, budget {T}"
            )
        yield from ctx.idle(T - used)
        ctx.tag = phase_tag
        if g2 == 0:
            value = conditional
        ctx.enter("gc3")
        value, g3 = yield from graded_consensus_standard(ctx, value)
        ctx.tag = outer
        returning = decided
        if not returning and g3 == 1:
            decision = value
            decided = True
        ctx.shared.setdefault("phase_trace", []).append(dict(
            pid=ctx.pid, phase=phase, T=T, k=k, g1=g1, g2=g2, g3=g3, decided=decided,
            decision=decision,
        ))
        if returning:
            return decision
    return decision


# ---------------------------------------------------------------------------
# Protocol registrations
# ---------------------------------------------------------------------------

@register_protocol("ba-with-predictions")
def _wrapper_protocol(ctx, scenario, params):
    return ba_with_predictions(ctx, params["input"], params["prediction"])


@register_protocol("classify")
def _classify_protocol(ctx, scenario, params):
    ctx.enter("classify")
    c = yield from classify(ctx, params["prediction"])
    return predictions.bits_to_string(c)


def _given_vector(table, pid: int, n: int):
    """Process `pid`'s entry of a `classifications` table (keyed by pid or
    its string) as a tuple of n bits, or None if it holds none: an entry is
    a string of 0/1 characters or a list or tuple of bits."""
    entry = table.get(pid, table.get(str(pid)))
    if isinstance(entry, str):
        ok = len(entry) == n and not entry.strip("01")
        return predictions.bits_from_string(entry) if ok else None
    if isinstance(entry, (list, tuple)) and len(entry) == n and all(b in (0, 1) for b in entry):
        return tuple(entry)
    return None


def check_conditional_params(params, n: int, authenticated: bool, pids) -> None:
    """The `ba-classification` parameter rules at width n: a given `T` is at
    least k+3 when `authenticated`, and `classifications` is "truth" or
    holds a vector of n bits for each process of `pids`.  Raises
    `ConfigurationError` naming the broken rule."""
    T = params.get("T")
    if authenticated and T is not None and T < params["k"] + 3:
        raise ConfigurationError(
            f"'T' must be at least k+3 for authenticated ba-classification, got {params!r}"
        )
    table = params.get("classifications", "truth")
    if table != "truth" and not (
        isinstance(table, dict) and all(_given_vector(table, p, n) is not None for p in pids)
    ):
        raise ConfigurationError(
            "'classifications' must be \"truth\" or an object holding a vector of n bits"
            f" for each process 1..n, got {table!r}"
        )


@register_protocol("ba-classification")
def _conditional_protocol(ctx, scenario, params):
    check_conditional_params(params, ctx.n, ctx.variant == "authenticated", (ctx.pid,))
    table = params.get("classifications", "truth")
    if table == "truth":
        bits = predictions.correct_classification(ctx.n, ctx.scenario.fault_set)
    else:
        bits = _given_vector(table, ctx.pid, ctx.n)
    ctx.shared.setdefault("classifications", {})[ctx.pid] = bits
    ctx.enter("cond")
    return (yield from ba_with_classification(
        ctx, params["input"], bits, params["k"], params.get("T")
    ))

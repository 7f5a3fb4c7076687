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
    order = predictions.ordering(classification)
    run_info = ctx.shared.setdefault("alg5_runs", {}).setdefault(
        ctx.tag, {"k": k, "decided_phase": {}}
    )
    start = ctx.rounds_used
    decision = None

    for ph in range(1, 2 * k + 2):
        if ctx.rounds_used - start + 5 > budget:
            break
        window = leader_window(order, k, ph)
        with ctx.scope(f"w{ph}"):
            with ctx.scope("gca"):
                value, grade = yield from graded_consensus_core_set(ctx, value, k, window)
            with ctx.scope("con"):
                conciliated = yield from conciliate(ctx, value, k, window)
            if grade == 0:
                value = conciliated
            with ctx.scope("gcb"):
                value, grade = yield from graded_consensus_core_set(ctx, value, k, window)
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

    Exactly k+3 rounds.  Agreement and strong unanimity hold when k bounds
    the misclassification count, 2k+1 <= n-t-k and t < n/2.
    """
    if T is not None and T < k + 3:
        raise ConfigurationError(f"authenticated conditional BA needs T >= k+3, got {T}")
    n = ctx.n
    domain = ctx.scenario.value_domain
    context = ctx.tag or "alg7"
    order = predictions.ordering(classification)
    targets = order[: min(2 * k + 1, n)]

    with ctx.scope("cvote"):
        inbox = yield committee_vote_payloads(ctx, context, targets)
        my_cert = certificate_from_inbox(ctx, context, inbox)
    run_info = ctx.shared.setdefault("alg7_runs", {}).setdefault(
        context, {"k": k, "certified": []}
    )
    if my_cert is not None:
        run_info["certified"].append(ctx.pid)

    validator = chain_validator(ctx, context)
    instances = {
        s: BroadcastInstance(ctx, s, k, my_cert, validator) for s in range(1, n + 1)
    }

    with ctx.scope("bb"):
        yield from relay_rounds(ctx, instances, k, value)
    bb_out = [instances[s].result() for s in range(1, n + 1)]

    with ctx.scope("plur"):
        sends = []
        if my_cert is not None:
            candidates = [v for v in bb_out if v is not BOT and v in domain]
            mine = plurality_tiebreak(candidates) if candidates else value
            sends = ctx.broadcast(("plur", mine, my_cert))
        inbox = yield sends
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

    with ctx.scope("classify"):
        classification = yield from classify(ctx, prediction)
    decided = False
    decision = None
    for phase in range(1, phases + 1):
        T = alpha * 2 ** (phase - 1)
        k = 2 ** (phase - 1)
        with ctx.scope(f"ph{phase}"):
            with ctx.scope("gc1"):
                value, g1 = yield from graded_consensus_standard(ctx, value)
            with ctx.scope("es"):
                early = yield from ba_early_stopping(ctx, value, T)
            if g1 == 0:
                value = early
            with ctx.scope("gc2"):
                value, g2 = yield from graded_consensus_standard(ctx, value)
            with ctx.scope("cond"):
                start = ctx.rounds_used
                conditional = yield from ba_with_classification(ctx, value, classification, k, T)
                used = ctx.rounds_used - start
                if used > T:
                    raise ProtocolViolation(
                        f"process {ctx.pid}: sub-protocol used {used} rounds, budget {T}"
                    )
                yield from ctx.idle(T - used)
            if g2 == 0:
                value = conditional
            with ctx.scope("gc3"):
                value, g3 = yield from graded_consensus_standard(ctx, value)
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
    with ctx.scope("classify"):
        c = yield from classify(ctx, params["prediction"])
    return predictions.bits_to_string(c)


def _classification_param(ctx, params):
    spec = params.get("classifications", "truth")
    if spec == "truth":
        return predictions.correct_classification(ctx.n, ctx.scenario.fault_set)
    entry = spec.get(ctx.pid, spec.get(str(ctx.pid)))
    if entry is None:
        raise ConfigurationError(f"no classification vector for process {ctx.pid}")
    bits = predictions.bits_from_string(entry) if isinstance(entry, str) else tuple(entry)
    if len(bits) != ctx.n:
        raise ConfigurationError("classification vector has wrong length")
    return bits


@register_protocol("ba-classification")
def _conditional_protocol(ctx, scenario, params):
    k = params["k"]
    T = params.get("T")
    bits = _classification_param(ctx, params)
    ctx.shared.setdefault("classifications", {})[ctx.pid] = bits
    with ctx.scope("cond"):
        out = yield from ba_with_classification(ctx, params["input"], bits, k, T)
    return out

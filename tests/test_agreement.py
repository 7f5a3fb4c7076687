"""Conditional BA protocols and the guess-and-double wrapper."""

import json
from pathlib import Path

import pytest

from byzpred import agreement, engine, harness, predictions
from byzpred.agreement import (
    compute_alpha,
    conditional_round_budget,
    wrapper_phase_count,
    wrapper_rounds_through_phase,
)
from byzpred.engine import run_execution
from byzpred.errors import ProtocolViolation
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.verify import all_pass, failures, verify_execution

CATALOG_FOR_SMALL = ["silent", "equivocator", "vote-poisoner", "grade-splitter"]
DATA = Path(__file__).parent / "data"


def scenario(n, t, fault_set=(), inputs=None, adversary="silent", variant="unauthenticated",
             seed=0, budget=0, allocation="adversarial-worst", adv_params=None):
    return Scenario(
        n=n,
        t=t,
        fault_set=frozenset(fault_set),
        inputs=tuple(inputs),
        seed=seed,
        error_budget=budget,
        error_allocation=allocation,
        adversary=AdversarySpec.make(adversary, adv_params),
        variant=variant,
    )


def test_conditional_ba_over_its_budget_is_a_violation(monkeypatch):
    # The wrapper idles each phase's conditional BA out to exactly T
    # rounds; a conditional BA that takes more than T is a protocol bug and
    # must stop the execution, not shift every later round.
    def overrun(ctx, value, classification, k, T=None):
        yield from ctx.idle(T + 1)
        return value

    monkeypatch.setattr(agreement, "ba_with_classification", overrun)
    s = scenario(4, 1, inputs=(0, 1, 0, 1))
    with pytest.raises(ProtocolViolation, match=r"used \d+ rounds, budget \d+"):
        run_execution(s, "ba-with-predictions")


def test_classify_tallies_each_distinct_inbox_once(monkeypatch):
    # The honest receivers of the classify round share one inbox, and a
    # shadow whose strategy passes its inbox through steps on that same
    # inbox, so the tally runs once per distinct inbox.  vote-poisoner's
    # complement vector goes out as one broadcast, so no receiver forks;
    # its per-receiver vectors fork every receiver, honest or shadow.
    calls = []
    tally = predictions.tally_classification

    def counted(received, n):
        calls.append(n)
        return tally(received, n)

    monkeypatch.setattr(predictions, "tally_classification", counted)
    for faulty, adversary, params, expected in (
        ((), "silent", None, 1),  # not 16
        (range(12, 17), "silent", None, 1),  # not 1 + 5
        (range(12, 17), "vote-poisoner", {"mode": "complement"}, 1),  # not 16
        (range(12, 17), "vote-poisoner", {"mode": "per-receiver"}, 16),
    ):
        calls.clear()
        s = scenario(16, 5, faulty, (1,) * 16, adversary=adversary, adv_params=params)
        run_execution(s, "classify")
        assert len(calls) == expected, (adversary, params)


def wrapper_point(variant, n, budget, adversary):
    """The one f=t=max, alternating-input, adversarial-worst, lowest-placed,
    seed-1 wrapper point."""
    points, _ = harness.expand_sweep({
        "schema_version": 1,
        "protocol": "ba-with-predictions",
        "variant": variant,
        "axes": {"n": [n], "t": "max", "f": ["max"], "error_budget": [budget],
                 "allocation": ["adversarial-worst"], "adversary": [adversary],
                 "inputs": ["alternating"], "fault_placement": ["lowest"], "seeds": [1]},
    })
    (point,) = points
    return point


@pytest.mark.parametrize("variant, n, adversary", [
    ("unauthenticated", 64, "vote-poisoner"),
    ("authenticated", 32, "grade-splitter"),
    ("unauthenticated", 31, {"name": "vote-poisoner", "params": {"mode": "per-receiver"}}),
])
def test_ordering_is_derived_once_per_distinct_classification(monkeypatch, variant, n, adversary):
    # Every process turns its classification into an ordering at each
    # phase's conditional BA; the execution derives each distinct vector's
    # ordering once and shares it.
    calls = []
    ordering = predictions.ordering

    def counted(c):
        calls.append(c)
        return ordering(c)

    monkeypatch.setattr(predictions, "ordering", counted)
    point = wrapper_point(variant, n, "4n", adversary)
    result = run_execution(point.scenario, point.protocol, point.params)
    honest = set(result.trace["classifications"].values())
    assert len(calls) == len(set(calls))
    assert honest <= set(calls)


def test_leader_windows_follow_each_process_own_classification(monkeypatch):
    # Honest processes hold two distinct classifications here, so each one's
    # windows must come from its own vector's ordering, not from whichever
    # vector was derived first; processes of one vector share each window.
    point = wrapper_point("unauthenticated", 31, "n",
                          {"name": "vote-poisoner", "params": {"mode": "per-receiver"}})
    seen = []

    def recording(block):
        def wrapped(ctx, value, k, window):
            seen.append((ctx.pid, ctx.tag, k, window))
            return (yield from block(ctx, value, k, window))
        return wrapped

    monkeypatch.setattr(agreement, "graded_consensus_core_set",
                        recording(agreement.graded_consensus_core_set))
    monkeypatch.setattr(agreement, "conciliate", recording(agreement.conciliate))
    result = run_execution(point.scenario, point.protocol, point.params)
    classifications = result.trace["classifications"]
    assert len(set(classifications.values())) == 2
    shared = {}
    windows_by_phase = {}
    for pid, tag, k, window in seen:
        if pid in point.scenario.fault_set:
            continue
        c = classifications[pid]
        ph = int(tag.split("/")[-2][1:])  # ".../cond/w<ph>/<block>"
        assert window == set(agreement.leader_window(predictions.ordering(c), k, ph)), (pid, tag)
        assert shared.setdefault((c, k, ph), window) is window, (pid, tag)
        windows_by_phase.setdefault((k, ph), set()).add(window)
    assert any(len(windows) == 2 for windows in windows_by_phase.values())


class _TagRecorder:
    """Generator stand-in for one process: appends the process's tag to
    `tags` after each of its steps, the returning one included."""

    __slots__ = ("gen", "ctx", "tags")

    def __init__(self, gen, ctx, tags):
        self.gen = gen
        self.ctx = ctx
        self.tags = tags

    def send(self, inbox):
        try:
            return self.gen.send(inbox)
        finally:
            self.tags.append(self.ctx.tag)


def honest_tag_runs(monkeypatch, point):
    """Run `point` and return its honest processes' tag sequences, each run
    length encoded as ``[[tag, steps], ...]``, as a list of ``{"pids",
    "tags"}`` entries, one per distinct sequence, in order of its lowest
    pid."""
    faulty = point.scenario.fault_set
    tags = {}
    with monkeypatch.context() as patch:
        for name, factory in list(engine._PROTOCOLS.items()):

            def recording(ctx, scenario, params, factory=factory):
                out = [] if ctx.pid in faulty else tags.setdefault(ctx.pid, [])
                return _TagRecorder(factory(ctx, scenario, params), ctx, out)

            patch.setitem(engine._PROTOCOLS, name, recording)
        run_execution(point.scenario, point.protocol, point.params)
    by_runs = {}
    for pid in sorted(tags):
        runs = []
        for tag in tags[pid]:
            if runs and runs[-1][0] == tag:
                runs[-1][1] += 1
            else:
                runs.append([tag, 1])
        key = json.dumps(runs)
        by_runs.setdefault(key, {"pids": [], "tags": runs})["pids"].append(pid)
    return list(by_runs.values())


TAG_POINTS = [
    (variant, n, adversary)
    for variant in ("unauthenticated", "authenticated")
    for n in (7, 16)
    for adversary in ("equivocator", "silent")
]


@pytest.mark.parametrize("variant, n, adversary", TAG_POINTS)
def test_honest_tag_sequences_are_pinned(monkeypatch, variant, n, adversary):
    # The tag every honest process holds after every step, against the
    # committed sequences: a tag set or restored one step early or late
    # shows here even inside an idle span, where no record names it.
    pinned = json.loads((DATA / "tag_sequences.json").read_text())
    point = wrapper_point(variant, n, "n", adversary)
    assert honest_tag_runs(monkeypatch, point) == pinned[f"{variant} n={n} {adversary}"]


# ---------------------------------------------------------------------------
# conditional unauthenticated BA (leader windows)
# ---------------------------------------------------------------------------

def test_alg5_strong_unanimity_within_two_phases():
    # unanimous honest inputs: decided in phase 1, returned in phase 2
    for adv in CATALOG_FOR_SMALL:
        s = scenario(16, 1, {9}, (1,) * 16, adversary=adv, seed=3)
        _cls, cond, k = agreement.run_conditional_standalone(s, k=1)
        assert all(v == 1 for v in cond.decisions.values()), adv
        assert cond.rounds_elapsed <= 10, adv  # two 5-round phases


def test_alg5_agreement_mixed_inputs():
    for adv in CATALOG_FOR_SMALL:
        for seed in range(3):
            s = scenario(16, 1, {4}, tuple(i % 2 for i in range(16)),
                         adversary=adv, seed=seed, budget=8)
            _cls, cond, k = agreement.run_conditional_standalone(s)
            if not (2 * k + 1) * (3 * k + 1) + k <= 16 - 1:
                continue
            assert len(set(cond.decisions.values())) == 1, (adv, seed)
            assert all_pass(verify_execution(cond)), failures(verify_execution(cond))


def test_alg5_round_and_message_budget(messages_sent):
    # criterion-4 numbers: n=40, t=5, k=1, f=1
    s = scenario(40, 5, {3}, tuple(i % 2 for i in range(40)), adversary="equivocator")
    _cls, cond, k = agreement.run_conditional_standalone(s, k=1)
    assert cond.rounds_elapsed <= 5 * (2 * k + 1)
    assert cond.honest_messages_total <= 5 * 40 * ((2 * k + 1) * (3 * k + 1) + k)
    _classify, per_sender = messages_sent
    assert all(per_sender.get(p, 0) <= 5 * 40 for p in s.honest)


def test_alg5_returns_within_budget_even_with_bad_k():
    # k smaller than the misclassification count: no guarantees, but the
    # round budget still binds
    s = scenario(16, 5, {1, 2, 3, 4, 5}, tuple(i % 2 for i in range(16)),
                 adversary="vote-poisoner", budget=64)
    _cls, cond, k = agreement.run_conditional_standalone(s, k=1)
    assert cond.rounds_elapsed <= 5 * (2 * 1 + 1)
    assert all(v in (0, 1) for v in cond.decisions.values())


def test_alg5_time_boxed_truncation():
    s = scenario(16, 1, {9}, tuple(i % 2 for i in range(16)))
    _cls, cond, _k = agreement.run_conditional_standalone(s, k=1, T=5)
    assert cond.rounds_elapsed <= 5


# ---------------------------------------------------------------------------
# conditional authenticated BA (implicit committee)
# ---------------------------------------------------------------------------

def test_alg7_strong_unanimity_and_rounds():
    for adv in CATALOG_FOR_SMALL + ["certificate-hoarder", "chain-withholder"]:
        s = scenario(16, 6, {10, 11}, (1,) * 16, adversary=adv,
                     variant="authenticated", seed=1)
        _cls, cond, k = agreement.run_conditional_standalone(s, k=2)
        assert all(v == 1 for v in cond.decisions.values()), adv
        assert cond.rounds_elapsed == k + 3, adv


def test_alg7_agreement_mixed_inputs_and_committee_stats():
    for adv in CATALOG_FOR_SMALL + ["certificate-hoarder", "chain-withholder"]:
        for seed in range(2):
            s = scenario(16, 6, {10, 11}, tuple(i % 2 for i in range(16)),
                         adversary=adv, variant="authenticated", seed=seed, budget=16)
            _cls, cond, k = agreement.run_conditional_standalone(s)
            if 2 * k + 1 > 16 - 6 - k:
                continue
            verdicts = verify_execution(cond)
            assert len(set(cond.decisions.values())) == 1, (adv, seed)
            assert all_pass(verdicts), (adv, seed, failures(verdicts))
            names = {v.name for v in verdicts}
            assert any(n.startswith("committee-composition") for n in names)


def test_alg7_rejects_insufficient_budget():
    s = scenario(16, 6, (), (1,) * 16, variant="authenticated")
    with pytest.raises(Exception):
        run_execution(s, "ba-classification", {"k": 2, "T": 3, "classifications": "truth"})


# ---------------------------------------------------------------------------
# wrapper
# ---------------------------------------------------------------------------

def test_wrapper_golden_derived_example():
    # frozen from the exhaustive-simulation oracle run: agreement and
    # validity checked, decided value recorded
    s = scenario(4, 1, {4}, (0, 1, 0, 0), adversary="equivocator", seed=0)
    r = run_execution(s, "ba-with-predictions")
    assert r.decisions == {1: 0, 2: 0, 3: 0}
    assert all_pass(verify_execution(r))


def test_wrapper_strong_unanimity_any_budget_any_adversary():
    for adv in CATALOG_FOR_SMALL:
        for budget in (0, 7, 28):
            s = scenario(7, 2, {6, 7}, (1,) * 7, adversary=adv, budget=budget, seed=2)
            r = run_execution(s, "ba-with-predictions")
            assert all(v == 1 for v in r.decisions.values()), (adv, budget)


def test_wrapper_zero_budget_exits_by_phase_two():
    for f, fault_set in [(0, ()), (1, {5}), (2, {5, 6})]:
        s = scenario(7, 2, fault_set, (0, 1, 0, 1, 0, 1, 0), adversary="equivocator")
        r = run_execution(s, "ba-with-predictions")
        bound = wrapper_rounds_through_phase("unauthenticated", 2, 2)
        assert r.rounds_elapsed <= bound, (f, r.rounds_elapsed, bound)


def test_wrapper_decision_window_lemma():
    s = scenario(16, 5, {1, 2, 3}, tuple(i % 2 for i in range(16)),
                 adversary="grade-splitter", budget=32, seed=4)
    r = run_execution(s, "ba-with-predictions")
    verdicts = {v.name: v for v in verify_execution(r)}
    assert verdicts["wrapper-decision-window"].ok


def test_wrapper_authenticated_end_to_end():
    for adv in ["equivocator", "certificate-hoarder", "chain-withholder", "forger"]:
        s = scenario(7, 2, {6, 7}, (0, 1, 0, 1, 0, 1, 0), adversary=adv,
                     variant="authenticated", budget=14, seed=1)
        r = run_execution(s, "ba-with-predictions")
        verdicts = verify_execution(r)
        assert all_pass(verdicts), (adv, failures(verdicts))


def test_wrapper_without_grade_guard_still_decides(monkeypatch):
    # with guards intact the run passes every verdict; with the grade guard
    # removed (gc1 and gc2 report grade 0, so every phase adopts the
    # early-stopping and conditional outputs) the run still terminates with
    # decisions
    s = scenario(7, 2, {6, 7}, (0, 1, 0, 1, 0, 1, 0), adversary="equivocator")
    clean = run_execution(s, "ba-with-predictions")
    assert all_pass(verify_execution(clean))
    assert any(e["g1"] == 1 for e in clean.trace["phase_trace"])
    real = agreement.graded_consensus_standard

    def no_grade_guard(ctx, value):
        value, grade = yield from real(ctx, value)
        return value, 0 if ctx.tag.rsplit("/", 1)[-1] in ("gc1", "gc2") else grade

    monkeypatch.setattr(agreement, "graded_consensus_standard", no_grade_guard)
    mutant = run_execution(s, "ba-with-predictions")
    assert mutant.decisions
    assert {(e["g1"], e["g2"]) for e in mutant.trace["phase_trace"]} == {(0, 0)}


def test_phase_count_and_alpha_formulas():
    assert wrapper_phase_count(1) == 1
    assert wrapper_phase_count(2) == 2
    assert wrapper_phase_count(13) == 5
    # alpha covers both sub-protocol budgets in every phase
    for variant in ("unauthenticated", "authenticated"):
        for t in (1, 2, 5, 13, 18):
            alpha = compute_alpha(variant, t)
            from byzpred.blocks import es_rounds_needed

            for phase in range(1, wrapper_phase_count(t) + 1):
                k = 2 ** (phase - 1)
                assert alpha * k >= es_rounds_needed(variant, t, min(k, t))
                assert alpha * k >= conditional_round_budget(variant, k)


def test_wrapper_degenerate_t_zero_and_one():
    for t, n in [(0, 4), (1, 4)]:
        s = scenario(n, t, (), (0, 1, 1, 0))
        r = run_execution(s, "ba-with-predictions")
        assert len(set(r.decisions.values())) == 1
        assert len({e["phase"] for e in r.trace["phase_trace"]}) == wrapper_phase_count(t)


def test_wrapper_rounds_match_formula_exactly():
    # rounds through the returning phase are a closed-form function
    s = scenario(7, 2, (), (1,) * 7)
    r = run_execution(s, "ba-with-predictions")
    # unanimous: decide in phase 1, return in phase 2
    assert r.rounds_elapsed == wrapper_rounds_through_phase("unauthenticated", 2, 2)

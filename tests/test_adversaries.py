"""Strategy catalog behaviour and the enumeration machinery."""

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from byzpred import adversaries, engine, harness
from byzpred.adversaries import (
    CATALOG,
    SILENT,
    SelectiveIgnorerStrategy,
    Strategy,
    enumerate_choice_tables,
    make_strategy,
    strategy_catalog,
)
from byzpred.authtools import (
    MessageChain,
    _link_content,
    assemble_committee_certificate,
    committee_content,
    start_chain,
    validate_chain,
)
from byzpred.engine import register_protocol, run_execution
from byzpred.errors import ConfigurationError
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.signatures import SignOracle, SimTokenScheme, digest
from byzpred.verify import all_pass, failures, verify_execution

GOLDEN_ORDER = Path(__file__).parent / "data" / "golden_order.jsonl"


def scenario(adversary, n=7, t=2, fault_set=(6, 7), inputs=None, variant="unauthenticated",
             seed=0, budget=0):
    return Scenario(
        n=n,
        t=t,
        fault_set=frozenset(fault_set),
        inputs=tuple(inputs if inputs is not None else tuple(i % 2 for i in range(n))),
        seed=seed,
        error_budget=budget,
        error_allocation="adversarial-worst",
        adversary=adversary,
        variant=variant,
    )


def test_catalog_contains_required_strategies():
    names = {spec.name for spec in strategy_catalog()}
    assert {
        "silent",
        "crash",
        "equivocator",
        "vote-poisoner",
        "chain-withholder",
        "certificate-hoarder",
        "selective-ignorer",
    } <= names


class _TagRecorder(Strategy):
    """Replays the shadows and records, per round, the (sender, tag) of
    every honest and every shadow item that sends something."""

    def __init__(self, params=None):
        super().__init__(params)
        self.rounds = []  # per round: (honest pairs, shadow pairs)

    def emit(self, rnd, honest_items, shadow_items, actx):
        self.rounds.append(tuple(
            [(sender, tag) for sender, tag, sends in items if sends]
            for items in (honest_items, shadow_items)
        ))
        return super().emit(rnd, honest_items, shadow_items, actx)


@pytest.mark.parametrize("variant", ["unauthenticated", "authenticated"])
def test_every_sender_uses_one_tag_per_round(monkeypatch, variant):
    recorders = []

    def make_recorder(params):
        recorders.append(_TagRecorder(params))
        return recorders[-1]

    monkeypatch.setitem(CATALOG, "tag-recorder", make_recorder)
    s = scenario(AdversarySpec.make("tag-recorder"), variant=variant, budget=14, seed=1)
    r = run_execution(s, "ba-with-predictions")
    assert all_pass(verify_execution(r))
    (rec,) = recorders
    assert any(honest for honest, _shadow in rec.rounds)
    assert any(shadow for _honest, shadow in rec.rounds)
    for round_items in rec.rounds:
        for pairs in round_items:
            # one item, hence one tag, per sender, in ascending sender order
            senders = [sender for sender, _tag in pairs]
            assert senders == sorted(set(senders))
    # not vacuous: the execution moves through several scopes
    assert len({tag for honest, _shadow in rec.rounds for _sender, tag in honest}) > 3


def test_selective_ignorer_drops_the_head_of_its_seeded_permutation(monkeypatch):
    # The engine hands each member inbox over in delivery order.  While the
    # member's quota lasts, selective-ignorer drops the head of
    # Random(s).shuffle of that inbox; once it is spent, the inbox passes
    # through untouched.  golden_order (selective-ignorer only) pins the
    # permutation: another one changes some of its records.
    records = harness.load_records(str(GOLDEN_ORDER))
    calls = []  # (strategy, member, rnd, inbox as given, inbox after the call, result)
    filter_member_inbox = SelectiveIgnorerStrategy.filter_member_inbox

    def recording(self, member, inbox, rnd):
        given = list(inbox)
        out = filter_member_inbox(self, member, inbox, rnd)
        calls.append((self, member, rnd, given, inbox, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(SelectiveIgnorerStrategy, "filter_member_inbox", recording)
        assert all(harness.replay_record(r) for r in records)
    spent = {}
    shuffled = passed = 0
    for strategy, member, rnd, given, inbox, out in calls:
        assert list(inbox) == given  # the engine's inbox is left as it was
        quota = strategy.scenario.t // 2
        dropped = spent.get((strategy, member), 0)
        if dropped >= quota:
            assert out is inbox
            passed += 1
            continue
        expected = list(given)
        if len(expected) > 1:
            seed = strategy.scenario.seed
            s = ((seed * 1_000_003 + rnd) * 1_000_003 + member) & 0xFFFFFFFFFFFFFFFF
            random.Random(s).shuffle(expected)
            shuffled += expected != given
        take = min(quota - dropped, len(given))
        assert out == expected[take:]
        spent[(strategy, member)] = dropped + take
    assert len(spent) == sum(len(r["scenario"]["fault_set"]) for r in records)
    assert all(used == strategy.scenario.t // 2 for (strategy, _m), used in spent.items())
    assert shuffled > 100 and passed > 1000  # not vacuous: both branches ran

    with monkeypatch.context() as patch:
        patch.setattr(adversaries, "random", SimpleNamespace(Random=lambda s: random.Random(s ^ 1)))
        changed = [r["index"] for r in records if not harness.replay_record(r)]
    assert changed


@register_protocol("test-own-scope")
def _own_scope_protocol(ctx, scenario, params):
    # round 1: the honest processes broadcast under "h" while the members'
    # shadows sit at "m"; rounds 2 and 3: the honest processes broadcast
    # under "m" too
    member = ctx.pid in scenario.fault_set
    for rnd in range(3):
        outer = ctx.enter("m" if member or rnd else "h")
        yield [] if member else ctx.broadcast(("b", ctx.pid, rnd))
        ctx.tag = outer


def test_selective_ignorer_spends_its_quota_only_on_its_shadows_messages(delivered_through):
    # A member's shadow receives only the messages under its own tag, and
    # so does its filter: the round-1 broadcasts under another tag leave a
    # quota of 2 untouched, the round-2 inbox loses two of its three pairs,
    # and once the quota is spent the shadow shares its honest tag-mates'
    # inbox.
    stepped = {}  # pid -> [inbox] in round order

    def record(ctx, inbox):
        stepped.setdefault(ctx.pid, []).append(inbox)
        return inbox

    s = Scenario(n=4, t=1, fault_set=frozenset({4}), inputs=(0, 1, 0, 1), seed=3,
                 adversary=AdversarySpec.make("selective-ignorer", {"ignore": 2}))
    with delivered_through(record):
        run_execution(s, "test-own-scope")
    assert [len(inbox) for inbox in stepped[1]] == [3, 3, 3]
    kept = [len(inbox) for inbox in stepped[4]]
    assert kept == [0, 1, 3], kept
    assert set(stepped[4][1]) < set(stepped[1][1])
    assert stepped[4][2] is stepped[1][2]


def test_unknown_strategy_rejected(monkeypatch):
    with pytest.raises(ConfigurationError):
        make_strategy(AdversarySpec.make("nonexistent"))
    # a param the strategy does not read, or a value it cannot run with,
    # fails in `run_execution` before any process is built
    built = []
    monkeypatch.setitem(engine._PROTOCOLS, "test-built", lambda *args: built.append(args))
    for params, message in [({"round": 2, "bogus": 1}, "cannot run with bogus = 1"),
                            ({"round": -1}, "cannot run with round = -1")]:
        with pytest.raises(ConfigurationError, match=message):
            run_execution(scenario(AdversarySpec.make("crash", params)), "test-built")
    assert built == []


@pytest.mark.parametrize("spec", strategy_catalog(), ids=lambda s: s.name)
@pytest.mark.parametrize("variant", ["unauthenticated", "authenticated"])
def test_all_catalog_strategies_preserve_properties(spec, variant):
    s = scenario(spec, variant=variant, budget=7)
    r = run_execution(s, "ba-with-predictions")
    verdicts = verify_execution(r)
    assert all_pass(verdicts), (spec.name, failures(verdicts))


def test_silent_equivalent_to_crash_faults():
    # silent faulty processes == crash-at-round-1; properties hold
    base = scenario(AdversarySpec.make("silent"))
    crash = scenario(AdversarySpec.make("crash", {"round": 1}))
    ra = run_execution(base, "ba-with-predictions")
    rb = run_execution(crash, "ba-with-predictions")
    assert ra.decisions == rb.decisions
    assert ra.rounds_elapsed == rb.rounds_elapsed


def test_strategies_are_deterministic_given_seed():
    spec = AdversarySpec.make("grade-splitter")
    s = scenario(spec, budget=14)
    a = run_execution(s, "ba-with-predictions")
    b = run_execution(s, "ba-with-predictions")
    assert a == b


def test_forger_never_breaks_properties_auth():
    for seed in range(3):
        s = scenario(AdversarySpec.make("forger"), variant="authenticated", seed=seed)
        r = run_execution(s, "ba-with-predictions")
        verdicts = verify_execution(r)
        assert all_pass(verdicts), failures(verdicts)


def test_forged_chain_link_has_the_right_digest_and_is_still_rejected():
    # the forgery must fail for its token and mint, not for a stale layout
    scheme = SimTokenScheme(0)
    sigs = [scheme.sign(s, committee_content("ctx", 2)) for s in (1, 2)]
    cert = assemble_committee_certificate(2, "ctx", sigs, 1, scheme.verify)
    chain = start_chain(0, cert, SignOracle(scheme, 2))
    actx = SimpleNamespace(n=4, fault_set=frozenset({4}), value_domain=(0, 1))
    out = make_strategy(AdversarySpec.make("forger")).transform(
        4, "bb", [], 1, [(2, "bb", [(1, chain)])], actx
    )
    forged = [p for _m, _tag, sends in out for _r, p in sends if isinstance(p, MessageChain)]
    assert forged and forged[0].value == 1
    ((forged_cert, forged_sig),) = forged[0].links
    assert forged_sig.message_digest == digest(_link_content(None, 1, "ctx", forged_cert))
    assert validate_chain(chain, 2, 2, 1, "ctx", scheme.verify)
    assert not validate_chain(forged[0], 2, 2, 1, "ctx", scheme.verify)


def bb_inboxes(delivered_through, adversary, n=16, t=7):
    """Run authenticated ba-with-predictions at n, f = t (faults 1..t),
    B = 4n under `adversary`; returns the run's scenario and every honest
    inbox of a `bb` round, keyed by (tag, round of that bb scope), in pid
    order."""
    s = scenario(AdversarySpec.make(adversary), n=n, t=t, fault_set=range(1, t + 1),
                 variant="authenticated", seed=1, budget=4 * n)
    seen = {}
    steps = {}

    def record(ctx, inbox):
        if ctx.pid not in s.fault_set and ctx.tag.endswith("/bb"):
            j = steps[(ctx.pid, ctx.tag)] = steps.get((ctx.pid, ctx.tag), 0) + 1
            seen.setdefault((ctx.tag, j), []).append(inbox)
        return inbox

    with delivered_through(record):
        r = run_execution(s, "ba-with-predictions")
    assert all_pass(verify_execution(r))
    return s, seen


def own_chain_values(delivered_through, adversary):
    """The most distinct values honest processes received, in one `bb`,
    in length-1 chains that a member sent as its own."""
    s, seen = bb_inboxes(delivered_through, adversary)
    values = {}
    for (tag, _j), inboxes in seen.items():
        for inbox in inboxes:
            for src, p in inbox:
                if src in s.fault_set and isinstance(p, MessageChain) and len(p) == 1 \
                        and p.origin == src:
                    values.setdefault((tag, src), set()).add(p.value)
    assert values  # not vacuous: certified members opened chains
    return max(len(v) for v in values.values())


@pytest.mark.parametrize("adversary", ["equivocator", "grade-splitter"])
def test_a_members_own_chain_is_still_equivocated(monkeypatch, delivered_through, adversary):
    # Relayed chain broadcasts stay one broadcast under equivocator and
    # grade-splitter, since `_unperturbed` tells `_rewrite` that `_perturb`
    # leaves every chain but the member's own length-1 chain as it is.  That
    # own chain must still reach honest receivers with two values.
    assert own_chain_values(delivered_through, adversary) >= 2
    # negative control: a keeps rule that holds for every chain keeps each
    # broadcast whole, so each member's own chain goes out with one value
    monkeypatch.setattr(adversaries, "_unperturbed",
                        lambda payload, member: isinstance(payload, MessageChain))
    assert own_chain_values(delivered_through, adversary) == 1


def test_honest_receivers_share_each_bb_inbox_after_its_first_round(delivered_through):
    # Honest relays are one multi-payload broadcast, and grade-splitter
    # passes relayed chains on unchanged, so no honest bb inbox forks after
    # the first round of its bb, where members equivocate their own chains.
    _s, seen = bb_inboxes(delivered_through, "grade-splitter")
    later = {key: {id(box) for box in boxes} for key, boxes in seen.items() if key[1] > 1}
    first = {key: {id(box) for box in boxes} for key, boxes in seen.items() if key[1] == 1}
    assert later and all(len(ids) == 1 for ids in later.values())
    assert any(len(ids) > 1 for ids in first.values())  # round 1 still forks


def test_certificate_hoarder_passes_plain_broadcasts_through(delivered_through):
    # certificate-hoarder rebuilds a shadow's send receiver by receiver only
    # where it holds a chain or a plurality message.  An unauthenticated run
    # sends neither, so every shadow broadcast goes on unchanged and the
    # honest receivers of one tag share one inbox object in every round.
    s = scenario(AdversarySpec.make("certificate-hoarder"), n=16, t=5, fault_set=range(1, 6),
                 seed=1, budget=4 * 16)
    steps = {}
    shared = {}  # (round, tag) -> the honest inboxes of that tag
    member_sends = []

    def record(ctx, inbox):
        if ctx.pid in s.fault_set:
            return inbox
        rnd = steps[ctx.pid] = steps.get(ctx.pid, 0) + 1
        shared.setdefault((rnd, ctx.tag), []).append(inbox)
        member_sends.extend(src for src, _p in inbox if src in s.fault_set)
        return inbox

    with delivered_through(record):
        r = run_execution(s, "ba-with-predictions")
    assert all_pass(verify_execution(r))
    groups = [boxes for boxes in shared.values() if len(boxes) > 1 and boxes[0]]
    assert len(groups) > 20 and len(member_sends) > 1000  # not vacuous
    forked = [key for key, boxes in shared.items() if any(b is not boxes[0] for b in boxes)]
    assert forked == []


def test_enumeration_exhaustive_when_small():
    slots = [(1, 4, 1), (1, 4, 2)]
    alphabets = {s: [None, ("x", 0), ("x", 1)] for s in slots}
    tables, report = enumerate_choice_tables(slots, alphabets)
    tables = list(tables)
    assert report.total == 9 and not report.truncated
    assert len(tables) == 9
    assert len({t for t in tables}) == 9


def test_enumeration_truncates_with_report():
    slots = [(r, 4, rcv) for r in range(1, 6) for rcv in (1, 2, 3)]
    alphabets = {s: [None, ("x", 0), ("x", 1)] for s in slots}
    tables, report = enumerate_choice_tables(slots, alphabets, bound=50)
    assert report.truncated and report.enumerated == 50
    assert len(list(tables)) == 50


def test_enumeration_zero_faulty_is_single_empty_strategy():
    tables, report = enumerate_choice_tables([], {})
    tables = list(tables)
    assert tables == [()]
    assert report.total == 1 and not report.truncated


def test_choice_table_strategy_sends_only_listed_slots():
    table = (((1, 4, 2), ("classify", (0, 0, 0, 0))),)
    s = scenario(AdversarySpec.make("choice-table", {"table": table}),
                 n=4, t=1, fault_set={4}, inputs=(0, 1, 0, 1))
    r = run_execution(s, "classify")
    assert len(r.decisions) == 3  # runs to completion; no violations
    assert not r.check_failures

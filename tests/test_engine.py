"""Engine contracts: determinism, synchrony accounting, violations."""

import gc
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from byzpred import harness
from byzpred.adversaries import CATALOG, Strategy, entries
from byzpred.engine import (
    Broadcast,
    OracleCheck,
    ProcessContext,
    register_protocol,
    run_execution,
)
from byzpred.errors import ConfigurationError, ProtocolViolation
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.verify import verify_execution

GOLDEN_ORDER = Path(__file__).parent / "data" / "golden_order.jsonl"


def basic(n=4, t=1, fault_set=(), inputs=None, seed=7, adversary="silent", variant="unauthenticated",
          budget=0):
    return Scenario(
        n=n,
        t=t,
        fault_set=frozenset(fault_set),
        inputs=tuple(inputs if inputs is not None else (1,) * n),
        seed=seed,
        error_budget=budget,
        adversary=AdversarySpec.make(adversary),
        variant=variant,
    )


def test_no_fault_unanimous_decides_input():
    r = run_execution(basic(), "ba-with-predictions")
    assert r.decisions == {p: 1 for p in range(1, 5)}


def test_determinism_byte_identical():
    s = basic(fault_set={4}, inputs=(0, 1, 0, 1), adversary="equivocator", budget=3)
    a = run_execution(s, "ba-with-predictions")
    b = run_execution(s, "ba-with-predictions")
    assert a == b


def test_classify_round_message_count():
    n = 6
    s = basic(n=n, t=1, inputs=(1,) * n)
    r = run_execution(s, "classify")
    assert r.honest_messages_by_protocol == {"classify": n * (n - 1)}
    assert r.honest_messages_total == n * (n - 1)


def test_only_faulty_senders_counts_zero():
    # window contains only the faulty process: honest processes never send
    s = basic(n=4, t=1, fault_set={4}, inputs=(0, 1, 0, 1), adversary="equivocator")
    r = run_execution(s, "graded-consensus-core", {"k": 1, "window": [4]})
    assert r.honest_messages_total == 0


def test_accounting_breakdown_sums(messages_sent):
    s = basic(n=7, t=2, fault_set={6, 7}, inputs=(0, 1, 0, 1, 0, 1, 0), adversary="equivocator")
    r = run_execution(s, "ba-with-predictions")
    assert sum(r.honest_messages_by_protocol.values()) == r.honest_messages_total
    (by_sender,) = messages_sent
    assert sum(by_sender.get(p, 0) for p in s.honest) == r.honest_messages_total


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        run_execution(basic(), "no-such-protocol")


def test_unauth_fault_bound_enforced():
    with pytest.raises(ConfigurationError, match="need t < n/3"):
        basic(n=6, t=2, inputs=(1,) * 6)


def test_auth_fault_bound_enforced():
    with pytest.raises(ConfigurationError, match="need t < n/2"):
        basic(n=6, t=3, inputs=(1,) * 6, variant="authenticated")


@register_protocol("test-failing-check")
def _failing_check_protocol(ctx, scenario, params):
    # honest p2 and p4, a member's shadow under the silent strategy, fail
    outer = ctx.enter("check")
    ctx.check("test-check", ctx.pid not in (2, 4), "boom")
    yield []
    ctx.tag = outer
    return 0


def test_a_failed_honest_check_fails_the_runtime_checks_verdict():
    r = run_execution(basic(fault_set={4}, inputs=(0, 1, 0, 1)), "test-failing-check")
    # only the honest failure is kept: a shadow writes to a throwaway list
    assert r.check_failures == [OracleCheck("test-check", "p2: boom")]
    assert [v.as_dict() for v in verify_execution(r)] == [
        {"name": "runtime-checks", "ok": False, "detail": "test-check: p2: boom"}
    ]


def test_a_strategy_cannot_sign_as_an_honest_process(monkeypatch):
    class HonestSigner(Strategy):
        def emit(self, rnd, honest_items, shadow_items, actx):
            actx.signer(4).sign(("own", rnd))  # a member's signature is granted
            actx.signer(1)
            return []

    monkeypatch.setitem(CATALOG, "honest-signer", HonestSigner)
    s = basic(fault_set={4}, inputs=(0, 1, 0, 1), adversary="honest-signer")
    with pytest.raises(ProtocolViolation, match="adversary requested a signature of honest process 1"):
        run_execution(s, "ba-with-predictions")


@register_protocol("test-round-count")
def _round_count_protocol(ctx, scenario, params):
    # rounds with and without traffic, each followed by an idle span; the
    # decision is rounds_used after every round and every idle span
    counts = []
    outer = ctx.enter("count")
    for rnd in range(3):
        yield ctx.broadcast(("b", ctx.pid)) if rnd % 2 else []
        counts.append(ctx.rounds_used)
        yield from ctx.idle(rnd)
        counts.append(ctx.rounds_used)
    ctx.tag = outer
    return tuple(counts)


def test_the_engine_counts_every_delivered_inbox(delivered_through):
    # The engine keeps the round count: a process, honest or shadow, that
    # mixes sending rounds and idle spans has rounds_used equal to the
    # inboxes delivered to it, whenever it resumes.
    seen = {}  # pid -> rounds_used at each delivery

    def record(ctx, inbox):
        seen.setdefault(ctx.pid, []).append(ctx.rounds_used)
        return inbox

    with delivered_through(record):
        r = run_execution(basic(fault_set={4}), "test-round-count")
    assert seen == {pid: list(range(1, 7)) for pid in (1, 2, 3, 4)}
    assert r.decisions == {pid: (1, 1, 2, 3, 4, 6) for pid in (1, 2, 3)}
    assert r.rounds_elapsed == 6


@register_protocol("test-bad-receiver")
def _bad_receiver_protocol(ctx, scenario, params):
    outer = ctx.enter("bad")
    yield [(scenario.n + 5, "boom")]
    ctx.tag = outer
    return 0


@register_protocol("test-tagged-triple")
def _tagged_triple_protocol(ctx, scenario, params):
    # the engine stamps the tag itself; a (receiver, tag, payload) triple is malformed
    outer = ctx.enter("bad")
    yield [(1, ctx.tag, "boom")]
    ctx.tag = outer
    return 0


@register_protocol("test-bare-int")
def _bare_int_protocol(ctx, scenario, params):
    outer = ctx.enter("bad")
    yield [1]
    ctx.tag = outer
    return 0


@register_protocol("test-none-send")
def _none_send_protocol(ctx, scenario, params):
    # empty but not a list: the idle-step shortcut must not take it
    outer = ctx.enter("bad")
    yield None
    ctx.tag = outer
    return 0


@pytest.mark.parametrize(
    "protocol", ["test-bad-receiver", "test-tagged-triple", "test-bare-int", "test-none-send"]
)
def test_illformed_send_raises_violation(protocol):
    with pytest.raises(ProtocolViolation):
        run_execution(basic(), protocol)


@pytest.mark.parametrize(
    "item, message",
    [
        ((1, "bad", [(2, "x")]), "as honest process 1"),
        ((4, "bad", [(0, "x")]), "process 4 addressed unknown receiver 0"),
        ((4, "bad", [(5, "x")]), "process 4 addressed unknown receiver 5"),
        ((4, "bad", [("2", "x")]), "process 4 addressed unknown receiver '2'"),
        ((4, "bad", [(2, "bad", "x")]), "process 4 produced a malformed send"),
        ((4, "bad", 5), "process 4 produced a malformed send: 5"),
        ((4, 2, "x"), "process 4 produced a malformed send"),  # (sender, receiver, payload)
        ((4, 2, "bad", "x"), "malformed send item"),  # (sender, receiver, tag, payload)
    ],
)
def test_faulty_items_get_the_honest_send_check(monkeypatch, item, message):
    class BadItem(Strategy):
        def emit(self, rnd, honest_items, shadow_items, actx):
            return super().emit(rnd, honest_items, shadow_items, actx) + [item]

    monkeypatch.setitem(CATALOG, "bad-item", BadItem)
    s = basic(fault_set={4}, inputs=(0, 1, 0, 1), adversary="bad-item")
    with pytest.raises(ProtocolViolation, match=re.escape(message)):
        run_execution(s, "ba-with-predictions")


@register_protocol("test-extend-broadcast")
def _extend_broadcast_protocol(ctx, scenario, params):
    outer = ctx.enter("bad")
    sends = ctx.broadcast("hello")
    sends.extend([(1, "again")])
    yield sends
    ctx.tag = outer
    return 0


@register_protocol("test-two-payload-broadcast")
def _two_payload_broadcast_protocol(ctx, scenario, params):
    outer = ctx.enter("two")
    inbox = yield Broadcast(("a", ("b", ctx.pid)), ctx.n)
    ctx.tag = outer
    return tuple(inbox)


def test_broadcast_is_a_read_only_sequence_of_pairs(messages_sent):
    b = Broadcast(("x",), 4)
    assert len(b) == 4 and list(b) == [(1, "x"), (2, "x"), (3, "x"), (4, "x")]
    # several payloads: each to every receiver, payload-major, as a pair
    # list built chain by chain would hold them
    two = Broadcast(("x", "y"), 4)
    assert len(two) == 8
    assert list(two) == [(r, "x") for r in range(1, 5)] + [(r, "y") for r in range(1, 5)]
    r = run_execution(basic(), "test-two-payload-broadcast")
    assert messages_sent == [{p: 2 * (4 - 1) for p in range(1, 5)}]
    assert r.honest_messages_by_protocol == {"two": 4 * 2 * (4 - 1)}
    assert r.honest_messages_total == 4 * 2 * (4 - 1)
    expected = tuple(e for p in range(1, 5) for e in ((p, "a"), (p, ("b", p))))
    assert set(map(tuple, r.decisions.values())) == {expected}
    with pytest.raises(AttributeError):
        b.extend([(1, "y")])
    with pytest.raises(AttributeError):
        b.append((1, "y"))
    with pytest.raises(TypeError):
        b[0] = (1, "y")
    with pytest.raises(AttributeError):
        run_execution(basic(), "test-extend-broadcast")


@register_protocol("test-mixed-sends")
def _mixed_sends_protocol(ctx, scenario, params):
    # rounds that interleave broadcasters, targeted senders and idle processes
    received = []
    outer = ctx.enter("mix")
    for rnd in range(4):
        kind = (ctx.pid + rnd) % 3
        if kind == 0:
            sends = []
        elif kind == 1:
            sends = ctx.broadcast(("b", ctx.pid, rnd))
        else:
            sends = [(r, ("t", ctx.pid, rnd)) for r in range(ctx.n, 0, -2)]
        inbox = yield sends
        received.append(tuple(inbox))
    ctx.tag = outer
    return tuple(received)


def test_broadcast_by_reference_keeps_inbox_order(monkeypatch):
    # Each process returns every inbox it got, in delivery order, so equal
    # decisions mean equal inboxes: runs of broadcasters and targeted senders
    # interleave as if every broadcast were n separate pairs.
    s = basic(n=7, t=2, fault_set={6, 7}, inputs=(0, 1, 0, 1, 0, 1, 0), adversary="equivocator")
    by_reference = run_execution(s, "test-mixed-sends")
    monkeypatch.setattr(
        ProcessContext,
        "broadcast",
        lambda ctx, payload: [(r, payload) for r in range(1, ctx.n + 1)],
    )
    as_pairs = run_execution(s, "test-mixed-sends")
    assert as_pairs.decisions == by_reference.decisions
    assert as_pairs == by_reference
    expected = 0
    for pid in range(1, 6):  # the honest senders
        for rnd in range(4):
            kind = (pid + rnd) % 3
            if kind == 1:
                expected += 6  # a broadcast counts n - 1
            elif kind == 2:
                expected += 4 - pid % 2  # receivers 7, 5, 3, 1, minus the sender
    assert by_reference.honest_messages_total == expected


def test_an_honest_inbox_is_read_only(delivered_through):
    # Honest receivers of one tag may share one inbox object, so no process
    # may change it: every honest inbox, shared or forked by targeted pairs,
    # refuses an append.
    honest_inboxes = []

    def record(ctx, inbox):
        if ctx.pid not in ctx.scenario.fault_set:
            honest_inboxes.append(inbox)
        return inbox

    s = basic(n=7, t=2, fault_set={6, 7}, inputs=(0, 1, 0, 1, 0, 1, 0), adversary="equivocator")
    with delivered_through(record):
        run_execution(s, "test-mixed-sends")
    assert len(honest_inboxes) == 5 * 4 and all(honest_inboxes)
    for inbox in honest_inboxes:
        with pytest.raises(AttributeError):
            inbox.append((1, "forged"))


@register_protocol("test-split-scopes")
def _split_scopes_protocol(ctx, scenario, params):
    # like test-mixed-sends, but in every round half of the processes sit in
    # another scope; the decision is every (tag, inbox) the process saw
    received = []
    for rnd in range(4):
        kind = (ctx.pid + rnd) % 3
        outer = ctx.enter(f"s{(ctx.pid + rnd) % 2}")
        if kind == 0:
            sends = []
        elif kind == 1:
            sends = ctx.broadcast(("b", ctx.pid, rnd))
        else:
            sends = [(r, ("t", ctx.pid, rnd)) for r in range(ctx.n, 0, -2)]
        inbox = yield sends
        received.append((ctx.tag, tuple(inbox)))
        ctx.tag = outer
    return tuple(received)


def envelopes(items):
    """Send items as the per-receiver (sender, receiver, tag, payload) list."""
    return [(sender, rcv, tag, payload) for sender, tag, sends in items for rcv, payload in sends]


def split_scopes_envelopes(n, senders, rnd):
    """The full honest envelope list of engine round `rnd` of
    test-split-scopes: ascending sender, a broadcast as one envelope per
    receiver 1..n, targeted envelopes in the order sent."""
    envs = []
    for pid in senders:
        kind = (pid + rnd - 1) % 3
        tag = f"s{(pid + rnd - 1) % 2}"
        payload = ("b" if kind == 1 else "t", pid, rnd - 1)
        if kind == 1:
            envs.extend((pid, r, tag, payload) for r in range(1, n + 1))
        elif kind == 2:
            envs.extend((pid, r, tag, payload) for r in range(n, 0, -2))
    return envs


def step_recorder():
    """A `delivered_through` callback recording, per process and round, the
    tag it stepped at and the very inbox object it stepped on; returns the
    record and the callback."""
    stepped = {}  # pid -> [(tag, inbox)] in round order

    def record(ctx, inbox):
        stepped.setdefault(ctx.pid, []).append((ctx.tag, inbox))
        return inbox

    return stepped, record


class _TrafficRecorder(Strategy):
    """Replays the shadows, adds a broadcast and a send to one honest
    receiver under a foreign tag each round, and records what it saw, sent,
    was handed for each member and returned.  The foreign broadcast follows
    the shadows' items, so where member 7's shadow broadcasts, one run of
    broadcasts mixes two tags.  Member 6's inbox passes through; member 7's
    shadow gets its inbox reversed, as a list of its own."""

    def __init__(self, params=None):
        super().__init__(params)
        self.seen = {}  # rnd -> honest items
        self.sent = {}  # rnd -> faulty items
        self.member_inboxes = {}  # (member, rnd) -> the inbox as handed over
        self.returned = {}  # (member, rnd) -> what the filter returned

    def emit(self, rnd, honest_items, shadow_items, actx):
        self.seen[rnd] = list(honest_items)
        out = super().emit(rnd, honest_items, shadow_items, actx)
        member = min(actx.fault_set)
        out.append((member, "forgery-probe", Broadcast((("probe-all", rnd),), actx.n)))
        out.append((member, "forgery-probe", [(rnd % 5 + 1, ("probe", rnd))]))
        self.sent[rnd] = out
        return out

    def filter_member_inbox(self, member, inbox, rnd):
        self.member_inboxes[(member, rnd)] = inbox
        out = self.returned[(member, rnd)] = inbox if member == 6 else list(inbox)[::-1]
        return out


def run_recorded(monkeypatch, seed):
    """Run test-split-scopes at n=7 with members {6, 7} under a
    _TrafficRecorder; returns the scenario, the result and the recorder."""
    recorders = []

    def make_recorder(params):
        recorders.append(_TrafficRecorder(params))
        return recorders[-1]

    monkeypatch.setitem(CATALOG, "traffic-recorder", make_recorder)
    s = basic(n=7, t=2, fault_set={6, 7}, inputs=(0, 1, 0, 1, 0, 1, 0), seed=seed,
              adversary="traffic-recorder")
    r = run_execution(s, "test-split-scopes")
    (rec,) = recorders
    return s, r, rec


def test_round_traffic_is_the_old_envelope_list(monkeypatch):
    _s, _r, rec = run_recorded(monkeypatch, seed=7)
    assert sorted(rec.seen) == [1, 2, 3, 4]
    for rnd, items in rec.seen.items():
        expected = split_scopes_envelopes(7, range(1, 6), rnd)
        kinds = {(pid + rnd - 1) % 3 for pid in range(1, 6)}
        assert kinds == {0, 1, 2}  # every round mixes idle, broadcast and targeted senders
        assert envelopes(items) == expected
        # one item per sender that sends, ascending; a broadcast stays one Broadcast
        assert [item[0] for item in items] == sorted({env[0] for env in expected})
        assert {item[1] for item in items} == {"s0", "s1"}
        for sender, _tag, sends in items:
            assert (type(sends) is Broadcast) == ((sender + rnd - 1) % 3 == 1)
        # `entries` gives a broadcast once; targeted sends keep their order
        collapsed = []
        for sender, rcv, tag, payload in expected:
            if payload[0] == "t" or rcv == 1:
                collapsed.append((sender, tag, payload))
        assert list(entries(items)) == collapsed


def test_every_inbox_holds_its_tags_pairs_in_delivery_order(monkeypatch, delivered_through):
    # Reference: deliver full (sender, tag, payload) triples in delivery
    # order (honest senders ascending, then faulty traffic in strategy
    # order).  Every inbox, honest or member, holds the entries in the
    # receiver's tag as (sender, payload), in that order, and a shadow
    # steps on exactly what its strategy's filter returned.  Other-tag
    # entries here are the other scope's messages and the faulty sends
    # under a foreign tag; the shadows' broadcasts and the foreign one go
    # out as faulty Broadcast items.
    stepped, record = step_recorder()
    n, seed = 7, 11
    with delivered_through(record):
        s, r, rec = run_recorded(monkeypatch, seed)
    foreign = member_foreign = 0
    for rnd in range(1, 5):
        wire = split_scopes_envelopes(n, range(1, 6), rnd) + envelopes(rec.sent[rnd])
        for pid in range(1, n + 1):
            triples = [(snd, tag, payload) for snd, rcv, tag, payload in wire if rcv == pid]
            tag = f"s{(pid + rnd - 1) % 2}"
            pairs = tuple((snd, payload) for snd, mtag, payload in triples if mtag == tag)
            foreign += len(triples) - len(pairs)
            if pid in s.fault_set:
                member_foreign += len(triples) - len(pairs)
                inbox = rec.member_inboxes[(pid, rnd)]
                assert type(inbox) is tuple and inbox == pairs
                step_tag, stepped_on = stepped[pid][rnd - 1]
                assert step_tag == tag and stepped_on is rec.returned[(pid, rnd)]
            else:
                assert r.decisions[pid][rnd - 1] == (tag, pairs)
    assert foreign > 20  # not vacuous: many inboxes mixed tags
    assert member_foreign >= 8  # every member inbox left foreign entries behind


@register_protocol("test-quiet-listen")
def _quiet_listen_protocol(ctx, scenario, params):
    # nobody sends; the decision is every inbox the process saw
    received = []
    outer = ctx.enter("quiet")
    for _ in range(3):
        inbox = yield []
        received.append(tuple(inbox))
    ctx.tag = outer
    return tuple(received)


class _QuietProbe(Strategy):
    """Replays the silent shadows (items with no sends), and as member 4
    broadcasts in round 1, stays silent in round 2 and sends to process 1
    alone in round 3; records each inbox handed to the member filter."""

    def __init__(self, params=None):
        super().__init__(params)
        self.filtered = []  # (member, rnd, inbox)

    def emit(self, rnd, honest_items, shadow_items, actx):
        out = super().emit(rnd, honest_items, shadow_items, actx)
        if rnd == 1:
            out.append((4, "quiet", Broadcast((("all", rnd),), actx.n)))
        elif rnd == 3:
            out.append((4, "quiet", [(1, ("one", rnd))]))
        return out

    def filter_member_inbox(self, member, inbox, rnd):
        self.filtered.append((member, rnd, inbox))
        return inbox


def test_faulty_sends_in_a_round_without_honest_traffic_are_delivered(monkeypatch):
    # No honest process ever sends, so the faulty items alone decide
    # whether a round carries traffic; a round with none still steps every
    # process with an empty inbox and still passes through the member filter.
    probes = []

    def make_probe(params):
        probes.append(_QuietProbe(params))
        return probes[-1]

    monkeypatch.setitem(CATALOG, "quiet-probe", make_probe)
    r = run_execution(basic(fault_set={4}, adversary="quiet-probe"), "test-quiet-listen")
    assert r.honest_messages_total == 0
    for pid in (1, 2, 3):
        expected = (((4, ("all", 1)),), (), ((4, ("one", 3)),) if pid == 1 else ())
        assert r.decisions[pid] == expected
    (probe,) = probes
    assert probe.filtered == [
        (4, 1, ((4, ("all", 1)),)),
        (4, 2, ()),
        (4, 3, ()),
    ]


@register_protocol("test-idle-scopes")
def _idle_scopes_protocol(ctx, scenario, params):
    # nobody sends: two idle rounds in scope a, one in scope b, one at the top
    outer = ctx.enter("a")
    yield from ctx.idle(2)
    ctx.tag = outer
    ctx.enter("b")
    yield []
    ctx.tag = outer
    yield []
    return 0


class _ShadowItemProbe(Strategy):
    """Replays the shadows and records each round's shadow items."""

    def __init__(self, params=None):
        super().__init__(params)
        self.shadow_items = {}  # rnd -> shadow items

    def emit(self, rnd, honest_items, shadow_items, actx):
        self.shadow_items[rnd] = list(shadow_items)
        return super().emit(rnd, honest_items, shadow_items, actx)


def run_probed(monkeypatch, protocol, params=None, probe=_ShadowItemProbe):
    """Run `protocol` at n=4 with member 4 under a fresh `probe` strategy;
    returns the result and the strategy."""
    probes = []

    def make_probe(spec_params):
        probes.append(probe(spec_params))
        return probes[-1]

    monkeypatch.setitem(CATALOG, "probe", make_probe)
    r = run_execution(basic(fault_set={4}, adversary="probe"), protocol, params)
    (made,) = probes
    return r, made


def test_an_idle_shadow_shows_emit_its_current_tag(monkeypatch):
    # No round carries traffic, so every member step is idle.  A member's
    # idle item may be handed to `emit` again only while its tag is the
    # same: a shadow that changes scope between two idle rounds shows its
    # new tag.  (Killed mutant: reuse the idle item without the tag check.)
    r, probe = run_probed(monkeypatch, "test-idle-scopes")
    assert r.honest_messages_total == 0 and r.rounds_elapsed == 4
    assert {rnd: [item[:2] for item in items] for rnd, items in probe.shadow_items.items()} == {
        1: [(4, "a")], 2: [(4, "a")], 3: [(4, "b")], 4: [(4, "")],
    }
    assert all(item[2] == [] for items in probe.shadow_items.values() for item in items)


@register_protocol("test-quiet-exits")
def _quiet_exits_protocol(ctx, scenario, params):
    # nobody sends; process p idles p + 1 rounds and returns p, except
    # that the shadow raises ValueError in round 2 and process
    # params["raise"], if any, raises RuntimeError in round 2
    outer = ctx.enter("quiet")
    yield []
    if ctx.pid in scenario.fault_set:
        yield []
        raise ValueError("shadow")
    if ctx.pid == params.get("raise"):
        yield []
        raise RuntimeError("honest")
    yield from ctx.idle(ctx.pid)
    ctx.tag = outer
    return ctx.pid


def test_processes_leave_in_the_quiet_round_they_end_in(monkeypatch, delivered_through):
    # In rounds without traffic, a process that returns and a shadow that
    # raises leave in that round: neither is resumed again, the shadow's
    # item is gone from the next round's `emit`, and the last honest return
    # sets rounds_elapsed.  (Killed mutants: no pruning of a process that
    # left in a quiet round; its finished round recorded one round late.)
    stepped, record = step_recorder()
    with delivered_through(record):
        r, probe = run_probed(monkeypatch, "test-quiet-exits", {})
    assert r.decisions == {1: 1, 2: 2, 3: 3}
    assert r.rounds_elapsed == 4
    assert {pid: len(steps) for pid, steps in stepped.items()} == {1: 2, 2: 3, 3: 4, 4: 2}
    assert [len(probe.shadow_items[rnd]) for rnd in (1, 2, 3, 4)] == [1, 1, 0, 0]
    assert r.shadow_crashes == {"ValueError": 1}


def test_an_honest_exception_in_a_quiet_round_propagates(monkeypatch):
    # (Killed mutant: an honest process that raises is dropped like a
    # crashed shadow.)
    with pytest.raises(RuntimeError, match="honest"):
        run_probed(monkeypatch, "test-quiet-exits", {"raise": 2})


class _NonIterableInbox(Strategy):
    """Hands each member's shadow the int 5 instead of its inbox."""

    def filter_member_inbox(self, member, inbox, rnd):
        return 5


def test_a_crashed_shadow_is_counted(monkeypatch):
    # The shadow's classify step reads its inbox and raises TypeError: the
    # execution completes without it, and the crash is counted by type.
    r, _probe = run_probed(monkeypatch, "classify", probe=_NonIterableInbox)
    assert sorted(r.decisions) == [1, 2, 3]
    assert r.shadow_crashes == {"TypeError": 1}
    clean = run_execution(basic(fault_set={4}), "classify")
    assert clean.shadow_crashes == {}


def shared_members_tag(pid, fault_set):
    """The scope of `pid` in test-shared-members: its parity, except that
    the odd members sit in a scope of their own, where no honest process
    listens."""
    return "m" if pid % 2 and pid in fault_set else f"s{pid % 2}"


@register_protocol("test-shared-members")
def _shared_members_protocol(ctx, scenario, params):
    # everyone broadcasts in its scope, three rounds
    received = []
    for rnd in range(3):
        outer = ctx.enter(shared_members_tag(ctx.pid, scenario.fault_set))
        inbox = yield ctx.broadcast(("b", ctx.pid, rnd))
        received.append(tuple(inbox))
        ctx.tag = outer
    return tuple(received)


class _ShareProbe(Strategy):
    """Replays the shadows, and in round 2 first sends one targeted pair to
    the highest member and one to the lowest honest process, each under
    its receiver's tag, so the shadows' broadcasts reach the forks after
    the fork; records every inbox handed to the member filter and passes it
    through."""

    def __init__(self, params=None):
        super().__init__(params)
        self.sent = {}  # rnd -> faulty items
        self.boxes = {}  # (member, rnd) -> the inbox as handed over

    def emit(self, rnd, honest_items, shadow_items, actx):
        out = super().emit(rnd, honest_items, shadow_items, actx)
        if rnd == 2:
            member = max(actx.fault_set)
            target = min(p for p in range(1, actx.n + 1) if p not in actx.fault_set)
            out = [
                (member, shared_members_tag(rcv, actx.fault_set), [(rcv, ("t", rcv))])
                for rcv in (member, target)
            ] + out
        self.sent[rnd] = out
        return out

    def filter_member_inbox(self, member, inbox, rnd):
        self.boxes[(member, rnd)] = inbox
        return inbox


@pytest.mark.parametrize("placement", ["lowest", "highest", "spread"])
def test_pass_through_shadows_share_their_tags_inbox(monkeypatch, delivered_through, placement):
    # Members receive as honest processes do: the receivers of one tag
    # without targeted pairs, honest or member, share one read-only inbox,
    # so a shadow whose strategy passes it through steps on the very inbox
    # its honest tag-mates get, or, at a tag no honest process holds, on
    # one inbox per tag.  A receiver that gets a targeted pair forks: a
    # read-only inbox of its own, in delivery order.  Where the members sit
    # decides whether shadows or honest receivers step first, which must
    # not matter.
    n = 10
    fault_set = harness.fault_ids(n, 3, placement)
    probes = []

    def make_probe(params):
        probes.append(_ShareProbe(params))
        return probes[-1]

    stepped, record = step_recorder()
    monkeypatch.setitem(CATALOG, "share-probe", make_probe)
    s = basic(n=n, t=3, fault_set=fault_set, inputs=(1,) * n, adversary="share-probe")
    with delivered_through(record):
        r = run_execution(s, "test-shared-members")
    (probe,) = probes
    honest = [p for p in range(1, n + 1) if p not in fault_set]
    member_only = mixed = 0
    for rnd in range(1, 4):
        # each process sends under the tag at which it steps
        wire = [
            (p, rcv, stepped[p][rnd - 1][0], ("b", p, rnd - 1))
            for p in honest
            for rcv in range(1, n + 1)
        ] + envelopes(probe.sent[rnd])
        targeted = {rcv for _s, _t, sends in probe.sent[rnd] if type(sends) is list
                    for rcv, _p in sends}
        assert len(targeted) == (2 if rnd == 2 else 0)
        by_tag = {}  # tag -> {pid: inbox object} of unforked receivers
        forks = {}  # pid -> its forked inbox
        for pid in range(1, n + 1):
            tag, inbox = stepped[pid][rnd - 1]
            triples = [(snd, t, payload) for snd, rcv, t, payload in wire if rcv == pid]
            assert type(inbox) is tuple
            assert inbox == tuple((snd, payload) for snd, t, payload in triples if t == tag)
            with pytest.raises(AttributeError):
                inbox.append((1, "forged"))
            if pid in fault_set:
                # the shadow steps on exactly what the filter returned
                assert inbox is probe.boxes[(pid, rnd)]
            if pid in targeted:
                forks[pid] = inbox
                continue
            by_tag.setdefault(tag, {})[pid] = inbox
            member_only += tag == "m"
        for tag, inboxes in by_tag.items():
            assert len({id(inbox) for inbox in inboxes.values()}) == 1, (tag, sorted(inboxes))
            mixed += bool(fault_set & set(inboxes)) and not set(inboxes) <= fault_set
        for pid, own in forks.items():
            tag_mates = by_tag.get(stepped[pid][rnd - 1][0], {}).values()
            assert all(own is not inbox for inbox in tag_mates)
    assert member_only >= 3  # not vacuous: some shadows sat at a tag of their own
    assert mixed >= 3  # not vacuous: some members shared a tag with honest receivers
    assert r.honest_messages_total == 3 * len(honest) * (n - 1)


def test_threads_draw_the_seed_exact_permutations():
    # An execution shares no state with another: golden_order executions
    # (selective-ignorer draws a seeded permutation per member inbox, and
    # the records pin it) run in four threads, with a thread switch every
    # microsecond, give their serial bytes.
    records = harness.load_records(str(GOLDEN_ORDER))
    wrong, errors = [], []

    def worker(salt):
        try:
            for record in random.Random(salt).sample(records, len(records)):
                if not harness.replay_record(record):
                    wrong.append(record["index"])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(salt,)) for salt in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []


@register_protocol("test-enter-endings")
def _enter_endings_protocol(ctx, scenario, params):
    # Every process enters "outer" and then "inner", broadcasts there, goes
    # back to its caller's tag, idles two rounds and returns its inbox.  The
    # member's shadow ends inside the inner block as params["ending"] says:
    # it goes on like an honest process, raises, or idles there until the
    # execution ends and its generator is closed.  params["log"] gets
    # (pid, event, tag) for the entry, the close and the exit.
    log = params["log"]
    outer = ctx.enter("outer")
    log.append((ctx.pid, "enter", ctx.enter("inner"), ctx.tag))
    try:
        inbox = yield ctx.broadcast(("b", ctx.pid))
        if ctx.pid in scenario.fault_set and params["ending"] == "raise":
            raise KeyError("body")
        if ctx.pid in scenario.fault_set and params["ending"] == "close":
            while True:
                yield []
    except GeneratorExit:
        log.append((ctx.pid, "closed", ctx.tag))
        raise
    ctx.tag = outer
    log.append((ctx.pid, "exit", ctx.tag))
    yield from ctx.idle(2)
    return tuple(inbox)


@pytest.mark.parametrize("ending", ["return", "raise", "close"])
def test_enter_joins_the_names_and_an_ended_block_needs_no_restore(delivered_through, ending):
    # `enter` returns the caller's tag and sets the joined one, under which
    # the process sends and receives; the caller puts its own tag back.  A
    # block that ends in a raise or a close leaves the inner tag set, which
    # nobody reads: that process is never resumed again.
    log, resumed = [], {}

    def count(ctx, inbox):
        resumed[ctx.pid] = resumed.get(ctx.pid, 0) + 1
        return inbox

    with delivered_through(count):
        r = run_execution(basic(fault_set={4}), "test-enter-endings", {"ending": ending, "log": log})
        gc.collect()
    inbox = ((1, ("b", 1)), (2, ("b", 2)), (3, ("b", 3)))  # silent drops the shadow's broadcast
    assert r.decisions == {1: inbox, 2: inbox, 3: inbox}
    assert r.rounds_elapsed == 3
    normal = [("enter", "outer", "outer/inner"), ("exit", "")]
    for pid in (1, 2, 3):
        assert [e[1:] for e in log if e[0] == pid] == normal
    shadow = [e[1:] for e in log if e[0] == 4]
    if ending == "return":
        assert shadow == normal
        assert r.shadow_crashes == {} and resumed == {1: 3, 2: 3, 3: 3, 4: 3}
    elif ending == "raise":
        # pruned in round 1 and counted, never resumed again
        assert shadow == normal[:1]
        assert r.shadow_crashes == {"KeyError": 1} and resumed == {1: 3, 2: 3, 3: 3, 4: 1}
    else:
        # resumed every round until the execution ends, then closed
        # mid-block, with the inner tag still set
        assert shadow == [normal[0], ("closed", "outer/inner")]
        assert r.shadow_crashes == {} and resumed == {1: 3, 2: 3, 3: 3, 4: 3}


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        Scenario(n=4, t=1, fault_set=frozenset({1, 2}), inputs=(1, 1, 1, 1))
    with pytest.raises(ConfigurationError):
        Scenario(n=4, t=1, fault_set=frozenset(), inputs=(1, 1, 1))
    with pytest.raises(ConfigurationError):
        Scenario(n=4, t=1, fault_set=frozenset(), inputs=(1, 1, 1, 9))


def test_scenario_json_roundtrip():
    s = basic(fault_set={4}, inputs=(0, 1, 0, 1), adversary="crash")
    assert Scenario.from_json_dict(s.to_json_dict()) == s

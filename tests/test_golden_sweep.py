"""Golden sweep: committed records must replay byte for byte.

`data/golden_sweep.jsonl` is regenerated, from the repository root, by

    byzpred sweep tests/data/golden_sweep.json --output tests/data/golden_sweep.jsonl

(both variants, n in {4, 7}, f = t, B in {0, n}, the whole adversary catalog,
seed 1), and `data/golden_order.jsonl` likewise from its own sweep file.
The records are at record schema_version 2; the sweep files stay at sweep
schema_version 1.  Records hold no signatures or wall-clock data, so any
change to signing, hashing or validation internals must leave every line
unchanged.

`data/golden_order.jsonl` comes from the same command on
`data/golden_order.json` (unauthenticated, selective-ignorer, n in {10, 13},
f in {half, max}, B in {n, 4n}, alternating and split-half inputs, seeds
1-4).  Selective-ignorer shuffles a member's inbox with a generator seeded
from (seed, round, member) and drops its head, so these records pin that
permutation: a draw from another seed changes some of the 64 (18 for the
seed xor 1).
"""

import json
import random
from pathlib import Path

from byzpred import adversaries, authtools, blocks, engine, harness, predictions
from byzpred.scenario import AdversarySpec, Scenario

DATA = Path(__file__).parent / "data"


def check_covers_its_sweep_file(name):
    points, skipped = harness.expand_sweep(harness.load_sweep_file(str(DATA / f"{name}.json")))
    records = harness.load_records(str(DATA / f"{name}.jsonl"))
    assert not skipped
    assert [p.index for p in points] == [r["index"] for r in records]
    assert [p.scenario.to_json_dict() for p in points] == [r["scenario"] for r in records]
    assert all(r["ok"] for r in records)
    return records


def test_golden_records_stay_within_the_round_envelope():
    records = harness.load_records(str(DATA / "golden_sweep.jsonl")) + harness.load_records(
        str(DATA / "golden_order.jsonl")
    )
    assert {r["protocol"] for r in records} == {"ba-with-predictions"}
    for r in records:
        envelope = harness.round_envelope(Scenario.from_json_dict(r["scenario"]))
        assert r["rounds_elapsed"] <= envelope, (r["index"], envelope)


def check_replays_byte_identical(name, count):
    lines = (DATA / f"{name}.jsonl").read_bytes().splitlines()
    assert len(lines) == count
    mismatched = []
    for line in lines:
        record = json.loads(line)
        # the committed line is the canonical encoding, so replay_record's
        # comparison against record_bytes(record) is a comparison against it
        assert harness.record_bytes(record) == line
        if not harness.replay_record(record):
            mismatched.append(record["index"])
    assert mismatched == []


def inboxes_and_replay(delivered_through, records, tag_suffix=""):
    """Replay `records`, recording every non-empty inbox as a process gets
    it under a tag ending in `tag_suffix`; returns the inboxes and each
    record's replay verdict."""
    seen = []

    def record(ctx, inbox):
        if inbox and ctx.tag.endswith(tag_suffix):
            seen.append(list(inbox))
        return inbox

    with delivered_through(record):
        replayed = [harness.replay_record(r) for r in records]
    return seen, replayed


def salted(rng, inbox, counts):
    """`inbox` in an order drawn from `rng` if it has two or more entries,
    counted in `counts[0]`, and in `counts[1]` if the order changed."""
    if len(inbox) < 2:
        return inbox
    shuffled = list(inbox)
    rng.shuffle(shuffled)
    counts[0] += 1
    counts[1] += any(a is not b for a, b in zip(shuffled, inbox))
    return shuffled


def salted_delivery(salt, counts):
    """A `delivered_through` callback that hands every process, honest or
    shadow, its inbox in an order drawn from `salt`, not in delivery
    order."""
    rng = random.Random(salt)
    return lambda ctx, inbox: salted(rng, inbox, counts)


def test_golden_sweep_covers_its_sweep_file():
    records = check_covers_its_sweep_file("golden_sweep")
    assert {r["scenario"]["variant"] for r in records} == {"unauthenticated", "authenticated"}


def test_golden_sweep_replays_byte_identical():
    check_replays_byte_identical("golden_sweep", 72)


def test_each_golden_point_derives_one_misclassification_report(monkeypatch):
    # the record's k_A, k_H, k_F and the verdicts read one report
    calls = []
    report = predictions.misclassification_report

    def counted(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(predictions, "misclassification_report", counted)
    for record in harness.load_records(str(DATA / "golden_sweep.jsonl")):
        calls.clear()
        assert harness.replay_record(record)
        assert len(calls) == (record["misclassification"] is not None), record["index"]


def test_golden_order_covers_its_sweep_file():
    records = check_covers_its_sweep_file("golden_order")
    assert {r["scenario"]["adversary"]["name"] for r in records} == {"selective-ignorer"}


def test_golden_order_replays_byte_identical():
    check_replays_byte_identical("golden_order", 64)


def test_golden_files_replay_with_honest_inboxes_reordered(delivered_through):
    # Metamorphic: inbox order is not part of the synchronous model, so
    # processes handed their inboxes in salted orders instead of delivery
    # order must give the golden records.  This covers the shadows too:
    # what a member's shadow steps on is already filtered, so
    # selective-ignorer's drops, which golden_order pins, stay as they were.
    for name, count in (("golden_sweep", 72), ("golden_order", 64)):
        for salt in (1, 2):
            counts = [0, 0]
            with delivered_through(salted_delivery(salt, counts)):
                check_replays_byte_identical(name, count)
            reordered, changed = counts
            assert reordered > 10_000 and changed > 0.9 * reordered, (name, salt)  # not vacuous


def test_golden_files_replay_with_a_copy_of_every_inbox_per_receiver(delivered_through):
    # Reference for shared inboxes: the honest receivers of one tag share one
    # inbox object, and what protocol code derives from an inbox alone is
    # computed once per object.  Handing every process its own fresh copy
    # of its inbox must give the golden records.
    copies = [0]

    def copy(ctx, inbox):
        copies[0] += bool(inbox)
        return list(inbox)

    with delivered_through(copy):
        check_replays_byte_identical("golden_sweep", 72)
        check_replays_byte_identical("golden_order", 64)
    assert copies[0] > 10_000  # not vacuous: non-empty inboxes copied

    # Without the copies, sharing really happens: in a no-fault run every
    # honest receiver of the classify round gets the same inbox object.
    classify_inboxes = []

    def record(ctx, inbox):
        if ctx.tag == "classify":
            classify_inboxes.append(inbox)
        return inbox

    s = Scenario(n=16, t=5, fault_set=frozenset(), inputs=(1,) * 16, seed=1,
                 adversary=AdversarySpec.make("silent"), variant="unauthenticated")
    with delivered_through(record):
        engine.run_execution(s, "ba-with-predictions")
    assert len(classify_inboxes) == 16 and len(classify_inboxes[0]) == 16
    assert all(inbox is classify_inboxes[0] for inbox in classify_inboxes)


def test_golden_files_replay_with_member_inboxes_reordered_before_the_filter(monkeypatch):
    # Metamorphic, the member side: only selective-ignorer reads a member
    # inbox by position, so every other strategy, handed each member inbox
    # in a salted order instead of delivery order, must give the golden
    # records.
    make_strategy = adversaries.make_strategy
    rng = random.Random(3)
    counts = [0, 0]

    def salting_make_strategy(spec):
        strategy = make_strategy(spec)
        if strategy.name != "selective-ignorer":
            filter_member_inbox = strategy.filter_member_inbox

            def salted_filter(member, inbox, rnd):
                return filter_member_inbox(member, salted(rng, inbox, counts), rnd)

            strategy.filter_member_inbox = salted_filter
        return strategy

    monkeypatch.setattr(adversaries, "make_strategy", salting_make_strategy)
    check_replays_byte_identical("golden_sweep", 72)
    check_replays_byte_identical("golden_order", 64)
    reordered, changed = counts
    assert reordered > 1000 and changed > 0.9 * reordered  # not vacuous


def test_broadcast_as_pairs_delivers_the_same_inboxes(monkeypatch, delivered_through):
    # Metamorphic: the engine delivers a ctx.broadcast by reference; the same
    # broadcast yielded as a plain list of (receiver, payload) pairs takes the
    # per-pair path.  Both paths must fill every inbox with the same entries
    # in the same order, and give the golden records.
    chosen = ("equivocator", "selective-ignorer", "vote-poisoner", "grade-splitter")
    records = [
        r for r in harness.load_records(str(DATA / "golden_sweep.jsonl"))
        if r["scenario"]["adversary"]["name"] in chosen
    ]
    assert {r["scenario"]["variant"] for r in records} == {"unauthenticated", "authenticated"}
    assert len(records) == 32
    by_reference, replayed = inboxes_and_replay(delivered_through, records)
    assert all(replayed)
    monkeypatch.setattr(
        engine.ProcessContext,
        "broadcast",
        lambda ctx, payload: [(r, payload) for r in range(1, ctx.n + 1)],
    )
    as_pairs, replayed = inboxes_and_replay(delivered_through, records)
    assert all(replayed)
    assert len(as_pairs) == len(by_reference) > 1000
    assert as_pairs == by_reference


CHAIN_RELAY_GRID = {
    "schema_version": 1,
    "protocol": "ba-with-predictions",
    "variant": ["authenticated"],
    "value_domain": [0, 1],
    "axes": {
        "n": [7, 16],
        "t": "max",
        "f": ["half", "max"],
        "error_budget": ["4n"],
        "allocation": ["adversarial-worst"],
        "adversary": ["equivocator", "grade-splitter", "forger", "chain-withholder"],
        "inputs": ["alternating"],
        "fault_placement": ["lowest", "spread"],
        "seeds": [1],
    },
}


def test_chain_relays_as_pairs_deliver_the_same_inboxes(monkeypatch, delivered_through):
    # Metamorphic: `authtools.relay_rounds` sends all of a round's chains as
    # one multi-payload Broadcast, and equivocator and grade-splitter pass
    # relayed chains on by reference.  The same chains sent as a plain list
    # of (receiver, chain) pairs, chain by chain, take the per-pair path in
    # the engine and in those strategies.  Both paths must fill every bb
    # inbox with the same entries in the same order and give the same
    # records, over the authenticated golden records and a chain-adversary
    # grid.
    records = [
        r for r in harness.load_records(str(DATA / "golden_sweep.jsonl"))
        if r["scenario"]["variant"] == "authenticated"
    ]
    points, skipped = harness.expand_sweep(CHAIN_RELAY_GRID)
    assert len(points) == 32 and not skipped
    records += [harness.run_point(p) for p in points]
    by_reference, replayed = inboxes_and_replay(delivered_through, records, "/bb")
    assert all(replayed)
    relayed = []

    def relay_as_pairs(payloads, n):
        relayed.append(len(payloads))
        return [(r, p) for p in payloads for r in range(1, n + 1)]

    monkeypatch.setattr(authtools, "Broadcast", relay_as_pairs)
    as_pairs, replayed = inboxes_and_replay(delivered_through, records, "/bb")
    assert all(replayed)
    # not vacuous: many relays, and rounds that relay several chains at once
    assert len(relayed) > 1000 and max(relayed) > 1
    assert len(as_pairs) == len(by_reference) > 1000
    assert as_pairs == by_reference


def test_faulty_broadcast_as_pairs_delivers_the_same_inboxes(monkeypatch, delivered_through):
    # Metamorphic, the faulty side of the test above: a strategy that passes
    # a shadow's Broadcast on gets it delivered by reference.  Handing every
    # faulty Broadcast over as its plain list of (receiver, payload) pairs
    # instead must fill every inbox with the same entries in the same order,
    # and give the golden records.
    records = harness.load_records(str(DATA / "golden_sweep.jsonl")) + harness.load_records(
        str(DATA / "golden_order.jsonl")
    )
    by_reference, replayed = inboxes_and_replay(delivered_through, records)
    assert all(replayed)
    emit = adversaries.Strategy.emit
    expanded = []

    def emit_as_pairs(self, rnd, honest_items, shadow_items, actx):
        out = []
        for sender, tag, sends in emit(self, rnd, honest_items, shadow_items, actx):
            if type(sends) is engine.Broadcast:
                expanded.append(sender)
                sends = list(sends)
            out.append((sender, tag, sends))
        return out

    monkeypatch.setattr(adversaries.Strategy, "emit", emit_as_pairs)
    as_pairs, replayed = inboxes_and_replay(delivered_through, records)
    assert all(replayed)
    assert len(expanded) > 1000  # not vacuous: many faulty broadcasts went out as pairs
    assert len(as_pairs) == len(by_reference) > 1000
    assert as_pairs == by_reference


def complement_as_pairs(monkeypatch):
    """Make vote-poisoner and grade-splitter send their complement vectors
    as one (receiver, complement) pair per receiver, not as one broadcast;
    returns the count of broadcasts so expanded."""
    expanded = [0]

    def as_pairs(transform):
        def patched(self, member, tag, sends, rnd, honest_items, actx):
            out = []
            for sender, mtag, msends in transform(self, member, tag, sends, rnd, honest_items, actx):
                if type(msends) is engine.Broadcast and msends.payloads == (actx.complement,):
                    expanded[0] += 1
                    msends = list(msends)
                out.append((sender, mtag, msends))
            return out

        return patched

    for cls in (adversaries.VotePoisonerStrategy, adversaries.GradeSplitterStrategy):
        monkeypatch.setattr(cls, "transform", as_pairs(cls.transform))
    return expanded


VOTE_POISONER_MODES = {
    "schema_version": 1,
    "protocol": "ba-with-predictions",
    "variant": ["unauthenticated", "authenticated"],
    "value_domain": [0, 1],
    "axes": {
        "n": [7, 16],
        "t": "max",
        "f": ["half", "max"],
        "error_budget": [0, "n"],
        "allocation": ["adversarial-worst"],
        "adversary": [
            {"name": "vote-poisoner", "params": {"mode": "complement"}},
            {"name": "vote-poisoner", "params": {"mode": "per-receiver"}},
        ],
        "inputs": ["alternating"],
        "fault_placement": ["lowest", "highest", "spread"],
        "seeds": [1],
    },
}


def test_complement_vectors_as_one_broadcast_give_the_records_of_pair_lists(monkeypatch):
    # Reference for a faulty broadcast in content: vote-poisoner (complement
    # mode) and grade-splitter send the same complement vector to every
    # receiver, as one Broadcast, so no inbox forks in the classify round.
    # Sent as one pair per receiver, as they once were, the vectors must
    # give the golden records of both strategies byte for byte.
    names = [r["scenario"]["adversary"]["name"] for r in harness.load_records(
        str(DATA / "golden_sweep.jsonl"))]
    assert names.count("vote-poisoner") == names.count("grade-splitter") == 8
    with monkeypatch.context() as patch:
        expanded = complement_as_pairs(patch)
        check_replays_byte_identical("golden_sweep", 72)
    assert expanded[0] >= 16  # not vacuous: at least one per record of the two

    # vote-poisoner's per-receiver mode, which no golden file holds, next to
    # its complement mode, over both variants and every fault placement:
    # every record is ok, replays, and equals the pair-list reference.
    points, skipped = harness.expand_sweep(VOTE_POISONER_MODES)
    assert len(points) == 96 and not skipped
    plain = [harness.run_point(p) for p in points]
    assert all(r["ok"] for r in plain)
    assert all(harness.replay_record(r) for r in plain)
    with monkeypatch.context() as patch:
        expanded = complement_as_pairs(patch)
        reference = [harness.run_point(p) for p in points]
    assert expanded[0] >= 48  # at least one per complement-mode point
    assert [harness.record_bytes(r) for r in reference] == [harness.record_bytes(r) for r in plain]


def test_golden_files_replay_with_every_receiver_merging_its_own_view(
    monkeypatch, delivered_through
):
    # The signed graded consensus shares one merged vote view, commit choice
    # and commit summary among the receivers of the same forwards; a
    # receiver takes the view with its own forward merged last only when
    # the shared view does not cover it.  Taking that view on every receiver
    # must give the golden records.  The receivers of one inbox object take
    # it once between them, so the authenticated records replay a second
    # time with every receiver on a copy of its own.
    forced = []

    def never_covers(view, entries):
        forced.append(len(entries))
        return False

    monkeypatch.setattr(blocks, "_votes_cover", never_covers)
    monkeypatch.setattr(blocks, "_commits_cover", never_covers)
    check_replays_byte_identical("golden_sweep", 72)
    check_replays_byte_identical("golden_order", 64)
    with delivered_through(lambda ctx, inbox: list(inbox)):
        check_replays_byte_identical("golden_sweep", 72)
    assert len(forced) > 1000 and sum(forced) > 1000  # not vacuous


def validate_every_chain_absorb(self, j, chains):
    """Reference `BroadcastInstance.absorb` that validates every chain it
    gets, with no early drop: what the instance did before it skipped the
    chains that cannot change its state.  A valid chain whose value is
    outside the value domain is still dropped unnoted."""
    out = []
    final = j >= self.k + 1
    for chain in chains:
        if not self.validator.chain_ok(chain, self.sender, j):
            continue
        if len(chain) != j or chain.value not in self.ctx.scenario.value_domain:
            continue
        self._note_seen(chain.value, j)
        if chain.value in self.accepted or len(self.accepted) >= 2:
            continue
        self._record(chain.value, j, chain.signers)
        if not final and self.my_cert is not None and self.ctx.pid not in chain.signers:
            extension = authtools.extend_chain(chain, self.my_cert, self.ctx.signer)
            self.broadcasts_sent += 1
            out.append(extension)
    return out


def counting_chain_ok(monkeypatch):
    """Count `ChainValidator.chain_ok` calls; returns the counter."""
    calls = [0]
    chain_ok = authtools.ChainValidator.chain_ok

    def counted(self, chain, expected_origin, max_length):
        calls[0] += 1
        return chain_ok(self, chain, expected_origin, max_length)

    monkeypatch.setattr(authtools.ChainValidator, "chain_ok", counted)
    return calls


def test_golden_files_replay_with_every_chain_validated(monkeypatch):
    # The skip in absorb must be exact: with the reference absorb, which
    # validates and notes every chain, both golden files still replay.
    calls = counting_chain_ok(monkeypatch)
    check_replays_byte_identical("golden_sweep", 72)
    skipping = calls[0]
    monkeypatch.setattr(authtools.BroadcastInstance, "absorb", validate_every_chain_absorb)
    check_replays_byte_identical("golden_sweep", 72)
    validating = calls[0] - skipping
    check_replays_byte_identical("golden_order", 64)
    assert validating > 2 * skipping > 1000  # not vacuous: most chains were skipped


def test_auth_catalog_n16_records_match_with_every_chain_validated(monkeypatch):
    # n=16 runs longer chains than the golden files (k up to 4, t=7).
    doc = {
        "schema_version": 1,
        "protocol": "ba-with-predictions",
        "variant": "authenticated",
        "value_domain": [0, 1],
        "axes": {
            "n": [16],
            "t": "max",
            "f": ["max"],
            "error_budget": ["4n"],
            "allocation": ["adversarial-worst"],
            "adversary": "catalog",
            "inputs": ["alternating"],
            "fault_placement": ["lowest"],
            "seeds": [1],
        },
    }
    points, skipped = harness.expand_sweep(doc)
    assert len(points) == 9 and not skipped
    calls = counting_chain_ok(monkeypatch)
    plain = [harness.record_bytes(harness.run_point(p)) for p in points]
    skipping = calls[0]
    monkeypatch.setattr(authtools.BroadcastInstance, "absorb", validate_every_chain_absorb)
    reference = [harness.record_bytes(harness.run_point(p)) for p in points]
    validating = calls[0] - skipping
    assert plain == reference
    assert validating > 2 * skipping > 1000  # not vacuous: most chains were skipped

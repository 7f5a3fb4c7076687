"""Building blocks: graded consensus variants, conciliation, early stopping.

The graded-consensus-with-core-set tests compare the simulator against an
independent straight-line evaluation of the two-round rules, across every
choice the single in-window faulty process can make (exhaustive at n=4).
"""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzpred import blocks, cli
from byzpred.adversaries import CATALOG, SILENT, Strategy, enumerate_choice_tables
from byzpred.blocks import (
    commit_content,
    es_rounds_needed,
    graded_consensus_standard,
    plurality_tiebreak,
    proof_digest,
    vote_content,
)
from byzpred.engine import Broadcast, ProcessContext, register_protocol, run_execution
from byzpred.errors import ConfigurationError
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.signatures import SignOracle, Signature, SimTokenScheme, digest
from byzpred.verify import all_pass, verify_execution


def scenario(n, t, fault_set=(), inputs=None, adversary=None, variant="unauthenticated", seed=0):
    return Scenario(
        n=n,
        t=t,
        fault_set=frozenset(fault_set),
        inputs=tuple(inputs),
        seed=seed,
        variant=variant,
        adversary=adversary or AdversarySpec.make("silent"),
    )


def table_spec(table):
    return AdversarySpec.make("choice-table", {"table": table})


# ---------------------------------------------------------------------------
# plurality_tiebreak
# ---------------------------------------------------------------------------

def test_plurality_examples():
    assert plurality_tiebreak([1, 1, 2]) == 1
    assert plurality_tiebreak([1, 2]) == 1
    assert plurality_tiebreak([3, 3, 0, 0, 7]) == 0


def test_plurality_empty_rejected():
    with pytest.raises(ConfigurationError):
        plurality_tiebreak([])


def first_seen_plurality(values):
    """Mutant of `plurality_tiebreak`: the first-seen value among those
    occurring most often, not the smallest."""
    counts = Counter(values)
    best = max(counts.values())
    return next(v for v in values if counts[v] == best)


def drive(gen, inboxes):
    """Run a protocol generator by hand on `inboxes`; returns its result."""
    gen.send(None)
    for inbox in inboxes[:-1]:
        gen.send(inbox)
    with pytest.raises(StopIteration) as stop:
        gen.send(inboxes[-1])
    return stop.value.value


def echo_tie_outcomes():
    """Process 1 of n=4, t=1 in both unauthenticated graded consensus
    variants, echoing nothing itself, then receiving echoes that tie 2-2
    between 0 and 1, in both orders."""
    scen = scenario(4, 1, (), (1, 1, 1, 1))
    outcomes = []
    for echoes in ((1, 1, 0, 0), (0, 0, 1, 1)):
        tie = list(zip((1, 2, 3, 4), echoes))
        # standard: the votes split 2-2, short of n - t = 3
        ctx = ProcessContext(1, scen, None, None, {}, {}, {})
        split = [(1, 1), (2, 1), (3, 0), (4, 0)]
        outcomes.append(drive(graded_consensus_standard(ctx, 1), [split, tie]))
        # core set, k=1: one vote each, short of 2k + 1 = 3
        ctx = ProcessContext(1, scen, None, None, {}, {}, {})
        gen = blocks.graded_consensus_core_set(ctx, 1, 1, (1, 2, 3, 4))
        outcomes.append(drive(gen, [[(1, 1), (2, 0)], tie]))
    return outcomes


def test_an_echo_tie_goes_to_the_smallest_value(monkeypatch):
    # Two echoes for each value reach t + 1 (standard) and k + 1 (core set),
    # so process 1 adopts the plurality echo with grade 0; on a tie that is
    # the smallest value, whatever the inbox order.
    assert echo_tie_outcomes() == [(0, 0)] * 4
    # negative control: a tie-break that takes the first-seen value fails
    monkeypatch.setattr(blocks, "plurality_tiebreak", first_seen_plurality)
    assert (1, 0) in echo_tie_outcomes()


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_plurality_is_smallest_argmax(values):
    got = plurality_tiebreak(values)
    counts = Counter(values)
    best = max(counts.values())
    assert counts[got] == best
    assert got == min(v for v, c in counts.items() if c == best)


# ---------------------------------------------------------------------------
# graded consensus with core set: independent rule oracle
# ---------------------------------------------------------------------------

def gc_core_oracle(n, k, window, honest_inputs, fault_set, choices):
    """Straight-line evaluation of the two-round rules.

    choices[(rnd, receiver)] is the faulty member's payload (value or
    SILENT) for that receiver; only faulty members inside the window can
    influence tallies.
    """
    window = set(window)
    honest = [p for p in range(1, n + 1) if p not in fault_set]
    threshold_b = 2 * k + 1

    def tally(received):
        counts = Counter(received.values())
        return counts

    # round 1: window members broadcast inputs
    r1 = {}
    for p in range(1, n + 1):
        inbox = {}
        for q in honest:
            if q in window:
                inbox[q] = honest_inputs[q]
        for q in sorted(fault_set & window):
            c = choices.get((1, p), SILENT)
            if c is not SILENT:
                inbox[q] = c
        r1[p] = inbox

    b = {}
    for p in honest:
        counts = tally(r1[p])
        winners = [v for v, c in counts.items() if c >= threshold_b]
        b[p] = min(winners) if winners else None

    # round 2: window members with b != bot echo it
    r2 = {}
    for p in range(1, n + 1):
        inbox = {}
        for q in honest:
            if q in window and b[q] is not None:
                inbox[q] = b[q]
        for q in sorted(fault_set & window):
            c = choices.get((2, p), SILENT)
            if c is not SILENT:
                inbox[q] = c
        r2[p] = inbox

    out = {}
    for p in honest:
        counts = tally(r2[p])
        if b[p] is not None:
            out[p] = (b[p], 1 if counts.get(b[p], 0) >= threshold_b else 0)
        elif counts and max(counts.values()) >= k + 1:
            best = max(counts.values())
            out[p] = (min(v for v, c in counts.items() if c == best), 0)
        else:
            out[p] = (honest_inputs[p], 0)
    return out


def run_gc_core(n, t, fault_set, inputs, window, k, adv=None, seed=0):
    s = scenario(n, t, fault_set, inputs, adversary=adv, seed=seed)
    return run_execution(s, "graded-consensus-core", {"k": k, "window": list(window)})


def gc_core_tables(n, fault_member, tag="gc-core", alphabet=(0, 1, SILENT)):
    receivers = [p for p in range(1, n + 1) if p != fault_member]
    slots = [(rnd, fault_member, rcv) for rnd in (1, 2) for rcv in receivers]
    alphabets = {s: [((tag, v) if v is not SILENT else None) for v in alphabet] for s in slots}
    return enumerate_choice_tables(slots, alphabets)


def test_gc_core_exhaustive_against_oracle_n4():
    # n=4, t=1, window = everyone, faulty p4 inside the window; every choice
    # table, every honest input combination
    n, k, window, fault = 4, 1, (1, 2, 3, 4), 4
    tables, report = gc_core_tables(n, fault)
    assert not report.truncated and report.total == 3 ** 6
    tables = list(tables)
    for inputs3 in itertools.product((0, 1), repeat=3):
        for table in tables:
            inputs = inputs3 + (0,)
            honest_inputs = {p: inputs[p - 1] for p in (1, 2, 3)}
            choices = {
                (rnd, rcv): entry[1]
                for (rnd, _m, rcv), entry in table
            }
            expected = gc_core_oracle(n, k, window, honest_inputs, {fault}, choices)
            r = run_gc_core(n, 1, {fault}, inputs, window, k, adv=table_spec(table))
            got = {p: tuple(r.decisions[p]) for p in (1, 2, 3)}
            assert got == expected, (table, inputs, got, expected)
            # lemma-level properties: preconditions hold (core {1,2,3})
            if len(set(honest_inputs.values())) == 1:
                v = inputs[0]
                assert all(out == (v, 1) for out in got.values())
            for p, (v, g) in got.items():
                if g == 1:
                    assert all(out[0] == v for out in got.values())


def test_gc_core_ignores_senders_outside_window():
    # all-honest window; the faulty process sits outside and shouts values
    n, k = 7, 1
    window = (1, 2, 3, 4)
    table = tuple(
        ((rnd, 7, rcv), ("gc-core", 1)) for rnd in (1, 2) for rcv in range(1, 7)
    )
    inputs = (0, 0, 0, 0, 0, 0, 1)
    r = run_gc_core(n, 2, {7}, inputs, window, k, adv=table_spec(table))
    assert all(tuple(v) == (0, 1) for v in r.decisions.values())


def test_gc_core_n7_reduced_behaviours_against_oracle():
    # spec's n=7 configuration with the faulty process inside the window;
    # whole-round behaviours rather than the full 3^12 table space
    n, k, window, fault = 7, 1, (1, 2, 3, 4), 4
    behaviours = ["silent", "zero", "one", "split"]
    for b1 in behaviours:
        for b2 in behaviours:
            choices = {}
            table = []
            for rnd, b in ((1, b1), (2, b2)):
                for rcv in range(1, n + 1):
                    if rcv == fault or b == "silent":
                        continue
                    v = {"zero": 0, "one": 1}.get(b, rcv % 2)
                    choices[(rnd, rcv)] = v
                    table.append(((rnd, fault, rcv), ("gc-core", v)))
            inputs = (0, 0, 0, 0, 1, 1, 0)
            honest_inputs = {p: inputs[p - 1] for p in range(1, 8) if p != fault}
            expected = gc_core_oracle(n, k, window, honest_inputs, {fault}, choices)
            r = run_gc_core(n, 2, {fault}, inputs, window, k, adv=table_spec(tuple(table)))
            got = {p: tuple(r.decisions[p]) for p in honest_inputs}
            assert got == expected


# ---------------------------------------------------------------------------
# conciliation
# ---------------------------------------------------------------------------

def test_conciliate_identical_windows_take_reachable_minimum():
    # identical all-honest windows {1,2,3,4}: every declared source reaches
    # every leader, so each m-value is the global minimum 1
    n = 7
    inputs = (2, 5, 3, 1, 2, 2, 2)
    s = Scenario(
        n=n,
        t=2,
        fault_set=frozenset(),
        inputs=inputs,
        seed=0,
        value_domain=(1, 2, 3, 5),
    )
    r = run_execution(s, "conciliate", {"k": 1, "window": [1, 2, 3, 4]})
    assert all(v == 1 for v in r.decisions.values())


def test_conciliate_strong_unanimity_under_enumerated_outside_faulty():
    # preconditions hold (windows honest, shared core); the faulty process
    # is outside every window but may inject arbitrary (value, window) pairs
    n, k = 5, 1
    window = (1, 2, 3, 4)
    windows5 = list(itertools.combinations(range(1, 6), 4))
    alphabet = [None] + [
        ("conciliate", (v, w)) for v in (0, 1) for w in windows5
    ]
    slots = [(1, 5, rcv) for rcv in range(1, 5)]
    tables, report = enumerate_choice_tables(slots, {s: alphabet for s in slots})
    assert not report.truncated
    for table in tables:
        r = run_execution(
            scenario(n, 1, {5}, (1, 1, 1, 1, 0), adversary=table_spec(table)),
            "conciliate",
            {"k": k, "window": list(window)},
        )
        assert all(v == 1 for v in r.decisions.values()), table


def test_conciliate_agreement_under_sampled_outside_faulty():
    n, k = 5, 1
    window = (1, 2, 3, 4)
    windows5 = list(itertools.combinations(range(1, 6), 4))
    alphabet = [None] + [("conciliate", (v, w)) for v in (0, 1) for w in windows5]
    slots = [(1, 5, rcv) for rcv in range(1, 5)]
    tables, report = enumerate_choice_tables(slots, {s: alphabet for s in slots}, bound=400)
    assert report.truncated
    for table in tables:
        r = run_execution(
            scenario(n, 1, {5}, (1, 0, 1, 0, 0), adversary=table_spec(table)),
            "conciliate",
            {"k": k, "window": list(window)},
        )
        assert len(set(r.decisions.values())) == 1, table


def test_conciliate_excludes_wrong_size_windows():
    # a declared window of the wrong size removes that sender from the graph
    n, k = 5, 1
    table = tuple(
        ((1, 5, rcv), ("conciliate", (0, (1, 2)))) for rcv in range(1, 5)
    )
    r = run_execution(
        scenario(n, 1, {5}, (1, 1, 1, 1, 0), adversary=table_spec(table)),
        "conciliate",
        {"k": k, "window": [1, 2, 3, 4]},
    )
    assert all(v == 1 for v in r.decisions.values())


# ---------------------------------------------------------------------------
# standard graded consensus (n-wide substitutes)
# ---------------------------------------------------------------------------

def gc_std_properties(results, honest_inputs):
    unanimous = len(set(honest_inputs.values())) == 1
    if unanimous:
        v = next(iter(honest_inputs.values()))
        assert all(out == (v, 1) for out in results.values()), results
    for p, (v, g) in results.items():
        if g == 1:
            assert all(out[0] == v for out in results.values()), results


def test_gc_standard_unauth_exhaustive_n4():
    n, fault = 4, 4
    receivers = [1, 2, 3]
    slots = [(rnd, fault, rcv) for rnd in (1, 2) for rcv in receivers]
    alphabets = {s: [None, ("gc", 0), ("gc", 1)] for s in slots}
    tables, report = enumerate_choice_tables(slots, alphabets)
    assert not report.truncated and report.total == 3 ** 6
    tables = list(tables)
    for inputs3 in itertools.product((0, 1), repeat=3):
        for table in tables:
            inputs = inputs3 + (0,)
            r = run_execution(
                scenario(n, 1, {fault}, inputs, adversary=table_spec(table)),
                "graded-consensus",
                {},
            )
            results = {p: tuple(r.decisions[p]) for p in (1, 2, 3)}
            gc_std_properties(results, {p: inputs[p - 1] for p in (1, 2, 3)})


def test_gc_standard_auth_sampled_symbolic_adversary():
    n, fault = 4, 4
    receivers = [1, 2, 3]
    slot_alpha = {}
    for rcv in receivers:
        slot_alpha[(1, fault, rcv)] = [
            None,
            ("gc", ("@vote", 0)),
            ("gc", ("@vote", 1)),
            ("gc", ("@multi", ("@vote", 0), ("@vote", 1))),
        ]
        slot_alpha[(2, fault, rcv)] = [
            None,
            ("gc", ("@fwd", "*")),
            ("gc", ("@fwd", 0)),
            ("gc", ("@fwd", 1)),
        ]
        slot_alpha[(3, fault, rcv)] = [
            None,
            ("gc", ("@commit", 0)),
            ("gc", ("@commit", 1)),
        ]
        slot_alpha[(4, fault, rcv)] = [None, ("gc", ("@cfwd", "*"))]
    tables, report = enumerate_choice_tables(
        sorted(slot_alpha), slot_alpha, bound=600, seed=42
    )
    assert report.truncated  # full space is too large; sampled run, reported
    tables = list(tables)
    for inputs3 in [(1, 1, 1), (0, 1, 1), (0, 0, 1)]:
        for table in tables:
            inputs = inputs3 + (0,)
            r = run_execution(
                scenario(n, 1, {fault}, inputs, adversary=table_spec(table),
                         variant="authenticated"),
                "graded-consensus",
                {},
            )
            results = {p: tuple(r.decisions[p]) for p in (1, 2, 3)}
            gc_std_properties(results, {p: inputs[p - 1] for p in (1, 2, 3)})


@pytest.mark.parametrize("variant", ["unauthenticated", "authenticated"])
@pytest.mark.parametrize("adv", ["equivocator", "grade-splitter", "vote-poisoner", "silent"])
def test_gc_standard_catalog_adversaries(variant, adv):
    n, t = 7, 2
    for seed in range(3):
        for inputs in [(1,) * 7, (0, 1, 0, 1, 0, 1, 0)]:
            s = scenario(
                n, t, {6, 7}, inputs, adversary=AdversarySpec.make(adv), variant=variant,
                seed=seed,
            )
            r = run_execution(s, "graded-consensus", {})
            results = {p: tuple(r.decisions[p]) for p in range(1, 6)}
            gc_std_properties(results, {p: inputs[p - 1] for p in range(1, 6)})


def test_gc_standard_round_counts():
    for variant, rounds in [("unauthenticated", 2), ("authenticated", 4)]:
        s = scenario(4, 1, (), (1, 1, 1, 1), variant=variant)
        r = run_execution(s, "graded-consensus", {})
        assert r.rounds_elapsed == rounds


# ---------------------------------------------------------------------------
# authenticated standard graded consensus: commit proofs and shared views
# ---------------------------------------------------------------------------

def auth_votes(scheme, value, signers, tag="gc"):
    return tuple((s, value, scheme.sign(s, vote_content(tag, value))) for s in signers)


def test_proof_digest_binds_entry_order_and_signatures():
    scheme = SimTokenScheme(3)
    proof = auth_votes(scheme, 1, (1, 2, 3))
    base = proof_digest(proof)
    assert proof_digest(auth_votes(scheme, 1, (1, 2, 3))) == base
    assert proof_digest((proof[1], proof[0], proof[2])) != base
    replacements = [
        scheme.sign(4, vote_content("gc", 1)),  # another signer, same value
        scheme.sign(3, vote_content("gc", 0)),  # same signer, another value
        scheme.sign(3, vote_content("ph1/gc1", 1)),  # same signer and value, another tag
    ]
    for sig in replacements:
        assert proof_digest(proof[:2] + ((3, 1, sig),)) != base


@pytest.mark.parametrize("bad", [1.5, {1}], ids=["float", "set"])
def test_faulty_commit_with_unencodable_proof_is_rejected(bad):
    # commit_ok checks every proof entry before it digests the proof, so a
    # proof holding a value with no canonical encoding is invalid, not a crash
    commit = ("commit", (4, 1, (bad,), Signature(4, "00", "00")))
    table = [((3, 4, rcv), ("gc", commit)) for rcv in (1, 2, 3)]
    s = scenario(4, 1, {4}, (1, 1, 0, 0), adversary=table_spec(table), variant="authenticated")
    r = run_execution(s, "graded-consensus", {})
    assert all_pass(verify_execution(r))
    assert set(r.decisions) >= {1, 2, 3}


LISTED = ([4], 1, Signature([4], digest(vote_content("gc", 1)), "00"))


@pytest.mark.parametrize(
    "rnd, message",
    [
        (1, ("vote", LISTED)),
        (3, ("commit", (4, 1, (LISTED,), Signature(4, "00", "00")))),
    ],
    ids=["vote", "proof-entry"],
)
def test_faulty_vote_with_unhashable_signer_is_rejected(rnd, message):
    # a vote's signer must be a process id before its signature is checked
    # against the scheme's registry, which hashes the signer
    table = [((rnd, 4, rcv), ("gc", message)) for rcv in (1, 2, 3)]
    s = scenario(4, 1, {4}, (1, 1, 0, 0), adversary=table_spec(table), variant="authenticated")
    r = run_execution(s, "graded-consensus", {})
    assert all_pass(verify_execution(r))
    assert set(r.decisions) >= {1, 2, 3}


class SignerLister(Strategy):
    """Member 4 sends its shadow's round-3 commit, valid proof and all,
    with the committer and the commit signature's signer made a list."""

    name = "signer-lister"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if rnd != 3:
            return [(member, tag, sends)]
        _kind, (_signer, value, proof, sig) = sends.payloads[0]
        listed = Signature([member], sig.message_digest, sig.token)
        payload = ("commit", ([member], value, proof, listed))
        return [(member, tag, [(rcv, payload) for rcv, _p in sends])]


def test_faulty_commit_with_unhashable_signer_is_rejected(monkeypatch):
    monkeypatch.setitem(CATALOG, "signer-lister", SignerLister)
    s = scenario(4, 1, {4}, (1, 1, 1, 1), variant="authenticated",
                 adversary=AdversarySpec.make("signer-lister"))
    r = run_execution(s, "graded-consensus", {})
    assert all_pass(verify_execution(r))
    assert {p: tuple(r.decisions[p]) for p in (1, 2, 3)} == {p: (1, 1) for p in (1, 2, 3)}


class ProofSwapper(Strategy):
    """Member 4 sends its shadow's round-3 commit with the proof left as
    signed, reordered, or replaced by another valid proof for the same
    value, or commits the other value with the same proof object, signed
    over that value; it records which committers each honest cfwd names."""

    name = "proof-swapper"
    MODES = ("as-signed", "reordered", "replaced", "revalued")
    PARAMS = {"mode": ("as-signed", MODES.__contains__)}

    def __init__(self, params=None):
        super().__init__(params)
        self.forwarded = {}

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if rnd != 3:
            return [(member, tag, sends)]
        _kind, (signer, value, proof, sig) = sends.payloads[0]
        mode = self.params["mode"]
        if mode == "reordered":
            proof = (proof[1], proof[0]) + proof[2:]
        elif mode == "replaced":
            own = (member, value, actx.signer(member).sign(vote_content(tag, value)))
            proof = proof[:-1] + (own,)
        elif mode == "revalued":
            value = 1 - value
            sig = actx.signer(member).sign(commit_content(tag, value, proof_digest(proof)))
        payload = ("commit", (signer, value, proof, sig))
        return [(member, tag, [(rcv, payload) for rcv, _p in sends])]

    def emit(self, rnd, honest_items, shadow_items, actx):
        if rnd == 4:
            for sender, _tag, sends in honest_items:
                self.forwarded[sender] = {c[0] for c in sends.payloads[0][1]}
        return super().emit(rnd, honest_items, shadow_items, actx)


@pytest.mark.parametrize("mode", ["as-signed", "reordered", "replaced", "revalued"])
def test_commit_proof_must_be_the_signed_one(monkeypatch, mode):
    # "revalued" is the negative control of the commit value check: its
    # signature and proof are valid, and only the proof's value differs
    made = []

    def make(params):
        made.append(ProofSwapper(params))
        return made[-1]

    monkeypatch.setitem(CATALOG, "proof-swapper", make)
    s = scenario(4, 1, {4}, (1, 1, 1, 1), variant="authenticated",
                 adversary=AdversarySpec.make("proof-swapper", {"mode": mode}))
    r = run_execution(s, "graded-consensus", {})
    assert all_pass(verify_execution(r))
    assert {p: tuple(r.decisions[p]) for p in (1, 2, 3)} == {p: (1, 1) for p in (1, 2, 3)}
    # each honest process forwards exactly the commits it accepted
    forwarded = made[0].forwarded
    assert sorted(forwarded) == [1, 2, 3]
    accepted = mode == "as-signed"
    assert all((4 in committers) == accepted for committers in forwarded.values()), forwarded
    assert all({1, 2, 3} <= committers for committers in forwarded.values())


class UnforwardedVote(Strategy):
    """Member 5 sends its vote to member 4 only and then forwards nothing;
    member 4's inbox loses its own forward, so no forward 4 receives
    carries 5's vote.  Records member 4's round-3 commit."""

    name = "unforwarded-vote"

    def __init__(self, params=None):
        super().__init__(params)
        self.commit = None

    def filter_member_inbox(self, member, inbox, rnd):
        if member == 4 and rnd == 2:
            return [e for e in inbox if e[0] != 4]
        return inbox

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if member == 5 and rnd == 1:
            return [(member, tag, [(4, sends.payloads[0])])]
        if member == 5 and rnd == 2:
            return []
        if member == 4 and rnd == 3 and sends:
            self.commit = sends.payloads[0][1]
        return [(member, tag, sends)]


def test_shadow_missing_its_own_forward_commits_from_its_direct_votes(monkeypatch):
    made = []

    def make(params):
        made.append(UnforwardedVote(params))
        return made[-1]

    monkeypatch.setitem(CATALOG, "unforwarded-vote", make)
    # votes for 1: honest 2 and 3, faulty 5 (seen by 4 only); n - t = 3
    s = scenario(5, 2, {4, 5}, (0, 1, 1, 0, 1), variant="authenticated",
                 adversary=AdversarySpec.make("unforwarded-vote"))
    r = run_execution(s, "graded-consensus", {})
    assert all_pass(verify_execution(r))
    signer, value, proof, _sig = made[0].commit
    assert (signer, value) == (4, 1)
    assert [e[0] for e in proof] == [2, 3, 5]

    # negative control: reading the shared view alone, member 4 has a 2-2
    # tally and does not commit
    monkeypatch.setattr(blocks, "_votes_cover", lambda votes_value, entries: True)
    run_execution(s, "graded-consensus", {})
    assert made[1].commit is None


def test_receiver_missing_its_own_commit_forward_still_sees_its_direct_commits():
    # Process 1 of n=4 drives the authenticated graded consensus by hand.
    # It receives direct commits for 1 from 1, 2, 3 and for 0 from 4; the
    # forwards it receives (its own is not among them) carry only the
    # commits for 1.  Its own forward still counts, so it sees the
    # conflicting commit and must not grade 1.
    scheme = SimTokenScheme(5)
    scen = scenario(4, 1, (), (1, 1, 1, 1), variant="authenticated")
    ctx = ProcessContext(1, scen, SignOracle(scheme, 1), None, {}, {}, {})
    ctx.tag = "gc"

    def commit(signer, value, proof):
        sig = scheme.sign(signer, commit_content("gc", value, proof_digest(proof)))
        return (signer, value, proof, sig)

    votes = auth_votes(scheme, 1, (1, 2, 3))
    for_1 = tuple(commit(s, 1, votes) for s in (1, 2, 3))
    for_0 = commit(4, 0, auth_votes(scheme, 0, (2, 3, 4)))
    gen = graded_consensus_standard(ctx, 1)
    next(gen)
    gen.send([(s, ("vote", v)) for s, v in zip((1, 2, 3), votes)])
    gen.send([(s, ("fwd", votes)) for s in (2, 3)])
    gen.send([(c[0], ("commit", c)) for c in for_1 + (for_0,)])
    with pytest.raises(StopIteration) as stop:
        gen.send([(s, ("cfwd", for_1)) for s in (2, 3)])
    assert stop.value.value == (1, 0)


@register_protocol("test-two-signed-gcs")
def _two_signed_gcs_protocol(ctx, scenario, params):
    outer = ctx.enter("first")
    first = yield from graded_consensus_standard(ctx, params["input"])
    ctx.tag = outer
    ctx.enter("second")
    second = yield from graded_consensus_standard(ctx, params["input"])
    ctx.tag = outer
    return first, second


class VoteReplayer(Strategy):
    """Member 4 is silent, except that in round 1 of the second graded
    consensus it broadcasts, under that tag, the very ``("vote", entry)``
    payload object that process 1 broadcast in round 1 of the first one.
    Records every honest forward by tag and sender."""

    name = "vote-replayer"

    def __init__(self, params=None):
        super().__init__(params)
        self.replayed = None
        self.forwards = {}

    def emit(self, rnd, honest_items, shadow_items, actx):
        if rnd == 1:
            self.replayed = next(sends.payloads[0] for s, _tag, sends in honest_items if s == 1)
        for sender, tag, sends in honest_items:
            if sends.payloads[0][0] == "fwd":
                self.forwards.setdefault(tag, {})[sender] = sends.payloads[0][1]
        if rnd == 1 + blocks.GC_ROUNDS["authenticated"]:
            return [(4, honest_items[0][1], Broadcast((self.replayed,), actx.n))]
        return []


def test_replayed_vote_payload_does_not_count_under_another_tag(monkeypatch):
    # A shared vote payload is checked once per tag: the record of process
    # 1's first-tag vote must not make the same object count as a direct
    # vote under the second tag, where its signature is not valid.
    made = []

    def make(params):
        made.append(VoteReplayer(params))
        return made[-1]

    monkeypatch.setitem(CATALOG, "vote-replayer", make)
    s = scenario(4, 1, {4}, (1, 1, 1, 1), variant="authenticated",
                 adversary=AdversarySpec.make("vote-replayer"))
    r = run_execution(s, "test-two-signed-gcs", {})
    assert {p: r.decisions[p] for p in (1, 2, 3)} == {p: ((1, 1), (1, 1)) for p in (1, 2, 3)}
    (strategy,) = made
    entry = strategy.replayed[1]
    assert sorted(strategy.forwards) == ["first", "second"]
    for tag, counted in (("first", True), ("second", False)):
        forwards = strategy.forwards[tag]
        assert sorted(forwards) == [1, 2, 3]
        assert all((entry in own) == counted for own in forwards.values()), (tag, forwards)


# ---------------------------------------------------------------------------
# early-stopping BA
# ---------------------------------------------------------------------------

def test_es_unanimity_no_faults():
    s = scenario(4, 1, (), (1, 1, 1, 1))
    T = es_rounds_needed("unauthenticated", 1, 0)
    r = run_execution(s, "ba-early-stopping", {"T": T})
    assert set(r.decisions.values()) == {1}
    assert r.rounds_elapsed == T  # exact-T contract


def test_es_agreement_small_fault_catalog():
    for adv in ["equivocator", "grade-splitter", "silent"]:
        for seed in range(3):
            s = scenario(7, 2, {4}, (0, 1, 0, 1, 1, 0, 1),
                         adversary=AdversarySpec.make(adv), seed=seed)
            r = run_execution(s, "ba-early-stopping", {"T": 40})
            assert len(set(r.decisions.values())) == 1, adv
            assert r.rounds_elapsed == 40


def test_es_respects_round_budget_exactly_even_when_insufficient():
    s = scenario(7, 2, {6, 7}, (0, 1, 0, 1, 0, 1, 0),
                 adversary=AdversarySpec.make("equivocator"))
    r = run_execution(s, "ba-early-stopping", {"T": 4})
    assert r.rounds_elapsed == 4
    assert all(v in (0, 1) for v in r.decisions.values())


def test_es_rounds_formula_covers_actual_faults():
    # with f actual faults all honest return within the formula's budget;
    # run unboxed at the full budget and confirm agreement
    for f in (0, 1, 2):
        fault_set = set(range(1, f + 1))
        inputs = tuple(i % 2 for i in range(7))
        T = es_rounds_needed("unauthenticated", 2, f)
        s = scenario(7, 2, fault_set, inputs, adversary=AdversarySpec.make("equivocator"))
        r = run_execution(s, "ba-early-stopping", {"T": T})
        assert len(set(r.decisions.values())) == 1


def test_es_sampled_choice_tables_n4():
    # bounded slice of the raw choice space at n=4 (full space is 3^(3*9))
    n, fault = 4, 4
    phase_rounds = 3
    rounds = phase_rounds * 3  # t+2 = 3 phases
    slots = [(rnd, fault, rcv) for rnd in range(1, rounds + 1) for rcv in (1, 2, 3)]
    alphabets = {}
    for rnd, member, rcv in slots:
        # rounds cycle gc-vote, gc-echo, king: bare domain values throughout
        tag = {0: "es/k%d/gc", 1: "es/k%d/gc", 2: "es/k%d/king"}[(rnd - 1) % 3] % (
            (rnd - 1) // 3 + 1
        )
        alphabets[(rnd, member, rcv)] = [None, (tag, 0), (tag, 1)]
    tables, report = enumerate_choice_tables(slots, alphabets, bound=300, seed=7)
    assert report.truncated
    for table in tables:
        s = scenario(n, 1, {fault}, (0, 1, 1, 0), adversary=table_spec(table))
        T = es_rounds_needed("unauthenticated", 1, 1)
        r = run_execution(s, "ba-early-stopping", {"T": T})
        assert len(set(r.decisions.values())) == 1, table


class KingSplitter(Strategy):
    """Members replay their shadows, except in every `gc` and `king` round
    of `es`: there, whatever its shadow sends, each member sends the
    smallest domain value to the lower half of the honest ids and the
    largest to the upper half."""

    name = "king-splitter"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if not (tag.startswith("es/") and tag.rsplit("/", 1)[-1] in ("gc", "king")):
            return [(member, tag, sends)]
        honest = self.scenario.honest
        low = honest[: len(honest) // 2]
        domain = actx.value_domain
        return [(member, tag, [(p, domain[0] if p in low else domain[-1]) for p in honest])]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="es decides on a binary grade: after faulty kings 1 and 2 split it, 5, 6 and 7"
    " decide 1 in phase 1 and leave after phase 2, while 3 and 4 hold 0 to the end, so"
    " agreement fails",
)
def test_es_keeps_agreement_when_two_faulty_kings_split(monkeypatch):
    monkeypatch.setitem(CATALOG, KingSplitter.name, KingSplitter)
    s = scenario(7, 2, {1, 2}, (0, 0, 0, 1, 1, 1, 1),
                 adversary=AdversarySpec.make(KingSplitter.name), seed=1)
    r = run_execution(s, "ba-early-stopping", {})
    verdicts = verify_execution(r)
    assert all_pass(verdicts), [v for v in verdicts if not v.ok]


def test_a_sweep_with_a_violation_prints_its_summary_and_reproduction(
    monkeypatch, tmp_path, capsys
):
    # The xfail's point as a one-point sweep through `cli.main`: the point
    # runs, the summary goes to stdout, and the violating record's scenario
    # and failed verdicts go to stderr, with exit status 2.  The point stops
    # violating agreement once es stops deciding on a binary grade.
    monkeypatch.setitem(CATALOG, KingSplitter.name, KingSplitter)
    doc = {"schema_version": 1, "protocol": "ba-early-stopping", "axes": {
        "n": [7], "t": [2], "f": [2], "adversary": [KingSplitter.name],
        "inputs": ["split-half"], "seeds": [1]}}
    sweep_file = tmp_path / "split.json"
    sweep_file.write_text(json.dumps(doc))
    assert cli.main(["sweep", str(sweep_file)]) == 2
    out, err = capsys.readouterr()
    assert "points executed: 1" in out and "violations:      1" in out
    s = scenario(7, 2, {1, 2}, (0, 0, 0, 1, 1, 1, 1),
                 adversary=AdversarySpec.make(KingSplitter.name), seed=1)
    reproduction = err.splitlines()[-1]
    assert reproduction.startswith(
        "property violation; reproducing scenario: "
        + json.dumps(s.to_json_dict(), sort_keys=True) + " verdicts: "
    )
    failed = json.loads(reproduction.partition(" verdicts: ")[2])
    assert [v["name"] for v in failed] == ["agreement"]

"""Committee certificates, message chains, broadcast with implicit committee."""

import pytest

from byzpred import harness
from byzpred.adversaries import CATALOG, _CvoteCollector
from byzpred.authtools import (
    ChainValidator,
    CommitteeCertificate,
    MessageChain,
    _link_content,
    assemble_committee_certificate,
    committee_content,
    extend_chain,
    start_chain,
    validate_chain,
)
from byzpred.engine import run_execution
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.signatures import Signature, SimTokenScheme, digest, encode
from byzpred.verify import all_pass, verify_execution

CTX = "test-ctx"


class Signer:
    def __init__(self, scheme, pid):
        self._scheme = scheme
        self.pid = pid

    def sign(self, content):
        return self._scheme.sign(self.pid, content)


def make_cert(scheme, subject, signers, t, context=CTX):
    sigs = [scheme.sign(s, committee_content(context, subject)) for s in signers]
    return assemble_committee_certificate(subject, context, sigs, t, scheme.verify)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_threshold_met():
    scheme = SimTokenScheme(0)
    cert = make_cert(scheme, 9, [1, 2, 5], t=2)
    assert cert is not None
    assert cert.signers == (1, 2, 5)


def test_certificate_duplicate_signers_absent():
    scheme = SimTokenScheme(0)
    sigs = [scheme.sign(s, committee_content(CTX, 9)) for s in (1, 2, 2)]
    assert assemble_committee_certificate(9, CTX, sigs, 2, scheme.verify) is None


def test_certificate_keeps_smallest_identifiers():
    scheme = SimTokenScheme(0)
    cert = make_cert(scheme, 9, [5, 1, 4, 2], t=2)
    assert cert.signers == (1, 2, 4)


def test_certificate_ignores_invalid_signatures():
    scheme = SimTokenScheme(0)
    good = [scheme.sign(s, committee_content(CTX, 9)) for s in (1, 2)]
    bad = [Signature(signer=3, message_digest="00", token="00")]
    assert assemble_committee_certificate(9, CTX, good + bad, 2, scheme.verify) is None


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def chain_fixture(t=1, n=5):
    scheme = SimTokenScheme(0)
    certs = {p: make_cert(scheme, p, list(range(1, t + 2)), t) for p in range(1, n + 1)}
    return scheme, certs


def test_length_one_chain_valid():
    scheme, certs = chain_fixture()
    chain = start_chain(1, certs[3], Signer(scheme, 3))
    assert validate_chain(chain, 3, 2, 1, CTX, scheme.verify)
    assert not validate_chain(chain, 4, 2, 1, CTX, scheme.verify)  # wrong origin


def test_extension_and_duplicate_signer():
    scheme, certs = chain_fixture()
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    longer = extend_chain(chain, certs[4], Signer(scheme, 4))
    assert validate_chain(longer, 2, 3, 1, CTX, scheme.verify)
    dup = extend_chain(longer, certs[2], Signer(scheme, 2))
    assert not validate_chain(dup, 2, 5, 1, CTX, scheme.verify)


def test_chain_max_length_enforced():
    scheme, certs = chain_fixture()
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    longer = extend_chain(chain, certs[4], Signer(scheme, 4))
    assert not validate_chain(longer, 2, 1, 1, CTX, scheme.verify)


def test_tampered_value_invalid():
    scheme, certs = chain_fixture()
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    forged = MessageChain(value=1, origin=2, context=CTX, links=chain.links)
    assert not validate_chain(forged, 2, 3, 1, CTX, scheme.verify)


def test_link_cert_must_match_link_signer():
    scheme, certs = chain_fixture()
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    # signer 4 validly signs the extension content for certs[3]: only the
    # certificate-subject check can reject the link
    sig = scheme.sign(4, _link_content(chain, None, CTX, certs[3]))
    mismatched = MessageChain(
        value=0, origin=2, context=CTX, links=chain.links + ((certs[3], sig),)
    )
    assert not validate_chain(mismatched, 2, 3, 1, CTX, scheme.verify)
    # positive control: the same hand-built extension with signer 4's own
    # certificate validates
    sig = scheme.sign(4, _link_content(chain, None, CTX, certs[4]))
    matched = MessageChain(
        value=0, origin=2, context=CTX, links=chain.links + ((certs[4], sig),)
    )
    assert matched == extend_chain(chain, certs[4], Signer(scheme, 4))
    assert validate_chain(matched, 2, 3, 1, CTX, scheme.verify)


def test_link_content_is_constant_size():
    # hash-chained links: signing an extension never re-encodes the prefix
    scheme, certs = chain_fixture(t=2, n=6)
    chain = start_chain(0, certs[1], Signer(scheme, 1))
    sizes = [len(encode(_link_content(None, 0, CTX, certs[1])))]
    for p in (2, 3, 4):
        sizes.append(len(encode(_link_content(chain, None, CTX, certs[p]))))
        chain = extend_chain(chain, certs[p], Signer(scheme, p))
    assert len(chain) == 4
    assert len(set(sizes[1:])) == 1
    assert sizes[0] <= sizes[1]
    assert validate_chain(chain, 1, 4, 2, CTX, scheme.verify)
    for cert in certs.values():
        assert cert.digest == digest(cert)


def test_cached_digests_follow_own_fields():
    scheme, certs = chain_fixture()
    chain = extend_chain(start_chain(0, certs[2], Signer(scheme, 2)), certs[4], Signer(scheme, 4))
    assert chain.digest == digest(chain)
    # equal objects built independently get equal digests; a changed value,
    # link or certificate changes the digest
    rebuilt = MessageChain(value=0, origin=2, context=CTX, links=tuple(chain.links))
    assert rebuilt.digest == chain.digest
    assert MessageChain(1, 2, CTX, chain.links).digest != chain.digest
    assert chain.prefix(1).digest != chain.digest
    swapped = ((certs[3], chain.links[0][1]),) + chain.links[1:]
    assert MessageChain(0, 2, CTX, swapped).digest != chain.digest


def test_replayed_committee_signature_rejected_as_link():
    # an honest committee vote cannot stand in for a chain-link signature
    scheme, certs = chain_fixture()
    vote_sig = scheme.sign(2, committee_content(CTX, 2))
    forged = MessageChain(value=1, origin=2, context=CTX, links=((certs[2], vote_sig),))
    assert not validate_chain(forged, 2, 3, 1, CTX, scheme.verify)


def test_wrong_context_rejected():
    scheme, certs = chain_fixture()
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    assert not validate_chain(chain, 2, 3, 1, "other-ctx", scheme.verify)


def test_validator_caches_are_identity_safe():
    scheme, certs = chain_fixture()
    validator = ChainValidator(CTX, 1, scheme.verify)
    chain = start_chain(0, certs[2], Signer(scheme, 2))
    assert validator.chain_ok(chain, 2, 3)
    assert validator.chain_ok(chain, 2, 3)  # cached path
    other = start_chain(1, certs[2], Signer(scheme, 2))
    assert validator.chain_ok(other, 2, 3)


# ---------------------------------------------------------------------------
# broadcast with implicit committee (standalone protocol)
# ---------------------------------------------------------------------------

def bb_scenario(n=5, t=1, fault_set=(), inputs=None, adversary=None, seed=0):
    return Scenario(
        n=n,
        t=t,
        fault_set=frozenset(fault_set),
        inputs=tuple(inputs if inputs is not None else (1,) * n),
        seed=seed,
        variant="authenticated",
        adversary=adversary or AdversarySpec.make("silent"),
    )


def test_honest_certified_sender_delivers_input():
    s = bb_scenario(inputs=(0, 1, 0, 1, 1))
    r = run_execution(s, "bb-committee", {"sender": 2, "k": 1, "committee": [1, 2, 3]})
    assert r.decisions == {p: 1 for p in range(1, 6)}
    assert r.rounds_elapsed == 1 + (1 + 1)  # setup round, then k+1 rounds


def test_sender_without_certificate_defaults_bot():
    s = bb_scenario()
    r = run_execution(s, "bb-committee", {"sender": 4, "k": 1, "committee": [1, 2, 3]})
    assert all(v is None for v in r.decisions.values())
    assert "bb" not in r.honest_messages_by_protocol  # nobody sends in the instance


def test_uncertified_processes_stay_silent(delivered_through):
    senders = set()

    def note_senders(ctx, inbox):
        if ctx.tag == "bb":
            senders.update(sender for sender, _payload in inbox)
        return inbox

    s = bb_scenario(inputs=(1, 0, 0, 0, 0))
    with delivered_through(note_senders):
        r = run_execution(s, "bb-committee", {"sender": 1, "k": 1, "committee": [1, 2, 3]})
    assert senders and senders <= {1, 2, 3}
    assert r.decisions == {p: 1 for p in range(1, 6)}


def test_faulty_sender_withholder_keeps_committee_agreement():
    s = bb_scenario(
        fault_set={1},
        inputs=(0, 1, 1, 1, 1),
        adversary=AdversarySpec.make("chain-withholder"),
    )
    r = run_execution(s, "bb-committee", {"sender": 1, "k": 1, "committee": [1, 2, 3]})
    certified_honest = [2, 3]
    values = {repr(r.decisions[p]) for p in certified_honest}
    assert len(values) == 1
    assert not r.check_failures


class _ChainInjector(_CvoteCollector):
    """Replays the shadows and, in engine round `rnd`, also sends every
    process a chain for `value` started by the first member and
    extended by the others, each under the certificate its collected
    committee votes give."""

    def __init__(self, value, rnd, params=None):
        super().__init__(params)
        self.value = value
        self.rnd = rnd

    def emit(self, rnd, honest_items, shadow_items, actx):
        out = super().emit(rnd, honest_items, shadow_items, actx)
        if rnd == self.rnd:
            chain = None
            for member in sorted(actx.fault_set):
                sigs = self._cvotes.get(member, ())
                cert = assemble_committee_certificate(member, "bb-standalone", sigs, actx.t,
                                                      actx.verify)
                signer = actx.signer(member)
                if chain is None:
                    chain = start_chain(self.value, cert, signer)
                else:
                    chain = extend_chain(chain, cert, signer)
            out.append((min(actx.fault_set), "bb", [(r, chain) for r in range(1, actx.n + 1)]))
        return out


def run_injected(monkeypatch, value, rnd, n, t, fault_set, inputs):
    monkeypatch.setitem(CATALOG, "chain-injector", lambda params: _ChainInjector(value, rnd, params))
    s = bb_scenario(n=n, t=t, fault_set=fault_set, inputs=inputs,
                    adversary=AdversarySpec.make("chain-injector"))
    return run_execution(s, "bb-committee", {"sender": 1, "k": 1, "committee": [1, 2, 3]})


def run_replaying(n, t, fault_set, inputs):
    """The run of `run_injected` with members that only replay their shadows."""
    s = bb_scenario(n=n, t=t, fault_set=fault_set, inputs=inputs,
                    adversary=AdversarySpec.make("honest-shadow"))
    return run_execution(s, "bb-committee", {"sender": 1, "k": 1, "committee": [1, 2, 3]})


def test_chain_with_unhashable_value_is_rejected(monkeypatch):
    # Member 1 is certified and signs a length-1 chain for the value [1] in
    # the first broadcast round: its value cannot be accepted, so every
    # receiver drops the chain as malformed.
    r = run_injected(monkeypatch, [1], rnd=2, n=5, t=1, fault_set={1}, inputs=(0, 1, 1, 1, 1))
    assert r.decisions == {p: 0 for p in range(2, 6)}  # the shadow's own chain for 0
    assert not r.check_failures
    seen = r.trace["bb_first_seen"]
    assert list(seen) == [("bb-standalone", 1, 0)]


@pytest.mark.parametrize("value", [5, "x"])
def test_valid_chain_outside_the_domain_counts_as_silence(monkeypatch, value):
    # Member 1 is certified and signs a valid length-1 chain for a value
    # outside the domain (0, 1) beside its shadow's own chain for 0.  Every
    # receiver drops it unnoted, so the run is the one in which the members
    # only replay their shadows: X = {0}, not {0, value}, and all decide 0.
    r = run_injected(monkeypatch, value, rnd=2, n=5, t=1, fault_set={1}, inputs=(0, 1, 1, 1, 1))
    plain = run_replaying(n=5, t=1, fault_set={1}, inputs=(0, 1, 1, 1, 1))
    assert r.decisions == plain.decisions == {p: 0 for p in range(2, 6)}
    assert r.trace["bb_first_seen"] == plain.trace["bb_first_seen"]
    assert all_pass(verify_execution(r))


def test_bool_chain_after_equal_int_changes_nothing(monkeypatch):
    # The shadow of sender 1 broadcasts a chain for 1 in round j=1; in j=2
    # members 1 and 2 send a valid length-2 chain for True.  True == 1 is
    # already accepted, so every honest receiver skips the chain: the run
    # is the one in which the members only replay their shadows.
    r = run_injected(monkeypatch, True, rnd=3, n=7, t=2, fault_set={1, 2},
                     inputs=(1, 0, 0, 0, 0, 0, 0))
    plain = run_replaying(n=7, t=2, fault_set={1, 2}, inputs=(1, 0, 0, 0, 0, 0, 0))
    assert r.decisions == plain.decisions == {p: 1 for p in range(3, 8)}
    assert not r.check_failures
    assert r.trace == plain.trace
    assert r.trace["bb_first_seen"] == {("bb-standalone", 1, 1): {p: 1 for p in range(3, 8)}}


class _OriginForger(_CvoteCollector):
    """Replays the shadows and, in both broadcast rounds of a k=1 run (engine
    rounds 2 and 3, after the one setup round), also sends every process a
    chain for 1 whose origin is `origin`, signed by the first member under
    the certificate its committee votes give, or an empty one."""

    def __init__(self, origin, tag, context, params=None):
        super().__init__(params)
        self.origin = origin
        self.tag = tag
        self.context = context

    def emit(self, rnd, honest_items, shadow_items, actx):
        out = super().emit(rnd, honest_items, shadow_items, actx)
        if rnd in (2, 3):
            member = min(actx.fault_set)
            cert = assemble_committee_certificate(
                member, self.context, self._cvotes.get(member, ()), actx.t, actx.verify
            ) or CommitteeCertificate(member, self.context, ())
            links = start_chain(1, cert, actx.signer(member)).links
            chain = MessageChain(1, self.origin, self.context, links)
            out.append((member, self.tag, [(r, chain) for r in range(1, actx.n + 1)]))
        return out


@pytest.mark.parametrize("origin", [[1], 0, 8], ids=["unhashable", "zero", "n+1"])
@pytest.mark.parametrize(
    "protocol, params, tag, context",
    [
        ("ba-classification", {"k": 1}, "cond/bb", "cond"),
        ("bb-committee", {"k": 1, "sender": 2}, "bb", "bb-standalone"),
    ],
    ids=["ba-classification", "bb-committee"],
)
def test_relayed_chain_with_foreign_origin_is_dropped(monkeypatch, origin, protocol, params, tag,
                                                      context):
    # The relay loop groups chains by origin before any instance sees them;
    # an origin that names no instance, or cannot be hashed, is dropped there.
    monkeypatch.setitem(CATALOG, "origin-forger",
                        lambda p: _OriginForger(origin, tag, context, p))
    s = bb_scenario(n=7, t=2, fault_set={1}, adversary=AdversarySpec.make("origin-forger"))
    r = run_execution(s, protocol, params)
    assert all_pass(verify_execution(r))
    assert r.decisions == {p: 1 for p in range(2, 8)}

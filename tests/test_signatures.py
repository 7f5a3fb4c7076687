"""Signature schemes and the canonical content encoding."""

import copy
import gc
import hashlib
import pickle
import struct
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from byzpred import harness, signatures
from byzpred.signatures import Signature, SimTokenScheme, digest, encode


def scalar_values():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**12), 10**12),
        st.text(max_size=16),
        st.binary(max_size=16),
    )


def nested_values():
    return st.recursive(scalar_values(), lambda inner: st.tuples(inner, inner), max_leaves=8)


def test_encode_layout_golden():
    # documented layout: tag byte + 4-byte big-endian length + body
    assert encode(None) == b"N"
    assert encode(True) == b"Y"
    assert encode(7) == b"I" + b"\x00\x00\x00\x01" + b"7"
    assert encode("ab") == b"S" + b"\x00\x00\x00\x02" + b"ab"
    assert encode((7, "a")) == (
        b"T" + b"\x00\x00\x00\x02" + encode(7) + encode("a")
    )


@given(nested_values(), nested_values())
def test_encode_injective_on_distinct_values(a, b):
    if encode(a) == encode(b):
        assert a == b


def test_sign_verify_roundtrip():
    scheme = SimTokenScheme(seed=11)
    sig = scheme.sign(3, ("m", 1))
    assert scheme.verify(sig, 3, ("m", 1))
    assert not scheme.verify(sig, 3, ("m", 2))
    assert not scheme.verify(sig, 2, ("m", 1))
    assert not scheme.verify("garbage", 3, ("m", 1))


def test_forged_token_rejected_even_with_correct_digest():
    scheme = SimTokenScheme(seed=11)
    content = ("committee", "ctx", 2)
    forged = Signature(signer=5, message_digest=digest(content), token="0" * 32)
    assert not scheme.verify(forged, 5, content)
    # the honest signer never minted; even the right token derivation fails
    token = scheme._token(5, digest(content))
    assert not scheme.verify(
        Signature(signer=5, message_digest=digest(content), token=token), 5, content
    )


def test_replayed_signature_on_other_content_rejected():
    scheme = SimTokenScheme(seed=1)
    sig = scheme.sign(4, ("vote", "a", 0))
    assert not scheme.verify(sig, 4, ("vote", "a", 1))


def test_schemes_disagree_across_seeds():
    a = SimTokenScheme(seed=1).sign(1, "x")
    b = SimTokenScheme(seed=2).sign(1, "x")
    assert a.token != b.token


def test_digest_memo_matches_plain_digest():
    scheme = SimTokenScheme(seed=9)
    content = ("gc-vote", "ph1/gc1", 1)
    assert scheme._digest(content) == digest(content)
    assert scheme._digest(content) == digest(content)  # memoised path


@pytest.mark.parametrize("order", [(True, 1), (1, True), (False, 0), (0, False)])
def test_digest_memo_keeps_bool_and_int_apart(order):
    # True == 1 and hash(True) == hash(1): a memo keyed on tuple equality
    # must not let the first-hashed of the two decide the other's digest
    scheme = SimTokenScheme(seed=9)
    for value in order:
        content = ("gc-vote", "ph1/gc1", value)
        assert scheme._digest(content) == digest(content)
    assert digest(("gc-vote", "ph1/gc1", True)) != digest(("gc-vote", "ph1/gc1", 1))
    sig = scheme.sign(3, ("gc-vote", "ph1/gc1", order[0]))
    assert not scheme.verify(sig, 3, ("gc-vote", "ph1/gc1", order[1]))


def test_signature_encoding_is_cached_canonical_bytes():
    sig = SimTokenScheme(seed=9).sign(2, ("m", 1))
    assert encode(sig) == encode(sig.canonical())
    assert encode(sig) is sig.encoded
    assert encode((sig, 1)) == encode((sig.canonical(), 1))


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode(3.14)


@pytest.mark.parametrize("minters", [(1,), (True,), (1, True), (True, 1), (1.0,)])
def test_kept_tokens_give_the_verdicts_of_rehashing(minters):
    # verify compares with the token kept at signing time; a signer equal
    # to another but spelled differently (True, 1.0 for 1) has a token of
    # its own, so every verdict must match rehashing the token each time
    scheme = SimTokenScheme(seed=5)
    content = ("vote", "gc", 1)
    dig = digest(content)
    sigs = [scheme.sign(m, content) for m in minters]
    sigs.append(Signature(signer=1, message_digest=dig, token=scheme._token(True, dig)))
    for sig in sigs:
        for signer in (1, True, 1.0, 2):
            expected = (
                sig.signer == signer
                and sig.message_digest == dig
                and (signer, dig) in scheme._minted
                and sig.token == scheme._token(signer, dig)
            )
            assert scheme.verify(sig, signer, content) == expected, (sig, signer)


def test_unhashable_signer_raises_after_the_signer_check():
    scheme = SimTokenScheme(seed=5)
    sig = scheme.sign(1, ("m",))
    assert not scheme.verify(sig, [1], ("m",))  # signer mismatch decides first
    with pytest.raises(TypeError):
        scheme.verify(Signature(signer=[1], message_digest=sig.message_digest, token="0"),
                      [1], ("m",))


# ---------------------------------------------------------------------------
# Signature objects: immutable, tokens computed on first read
# ---------------------------------------------------------------------------

def rejects_writes(obj, name):
    """True if setting and deleting attribute `name` both raise AttributeError."""
    for write in (lambda: setattr(obj, name, "x"), lambda: delattr(obj, name)):
        try:
            write()
        except AttributeError:
            continue
        return False
    return True


class _WritableSignature(Signature):
    """A Signature without the write guard: the negative control."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


@pytest.mark.parametrize("name", ["signer", "message_digest", "token"])
def test_signature_rejects_every_write(name):
    # strategies share honest signature objects by reference, so one write
    # would alter what every holder of the object sends and verifies
    sig = SimTokenScheme(seed=3).sign(2, ("m", 1))
    assert rejects_writes(sig, name)
    assert rejects_writes(Signature(signer=2, message_digest="d", token="t"), name)
    if name != "token":  # token has no setter at all, guard or not
        assert not rejects_writes(_WritableSignature(2, "d", "t"), name)


def test_equal_fields_compare_and_hash_equal_before_and_after_tokens():
    content = ("gc-vote", "ph1/gc1", 1)
    lazy_a = SimTokenScheme(seed=4).sign(5, content)
    lazy_b = SimTokenScheme(seed=4).sign(5, content)
    assert hash(lazy_a) == hash(lazy_b)
    assert lazy_a == lazy_b  # neither token computed before this comparison
    eager = Signature(signer=5, message_digest=digest(content), token=lazy_a.token)
    fresh = SimTokenScheme(seed=4).sign(5, content)
    assert hash(fresh) == hash(eager) and fresh == eager and eager == fresh
    assert lazy_a != SimTokenScheme(seed=5).sign(5, content)
    assert lazy_a != Signature(signer=5, message_digest=digest(content), token="0" * 32)
    assert lazy_a != (5, digest(content), lazy_a.token)


def test_repr_shows_the_token_and_not_the_secret():
    scheme = SimTokenScheme(seed=4)
    sig = scheme.sign(5, ("m",))
    text = repr(sig)
    assert f"token={scheme._token(5, sig.message_digest)!r}" in text
    assert "signer=5" in text and repr(sig.message_digest) in text
    assert scheme._secret.hex() not in text and repr(scheme._secret) not in text


def test_a_signature_pickles_and_copies_to_an_equal_one():
    sig = SimTokenScheme(seed=4).sign(5, ("m",))
    for clone in (pickle.loads(pickle.dumps(sig)), copy.copy(sig), copy.deepcopy(sig)):
        assert type(clone) is Signature and clone == sig and clone.encoded == sig.encoded


def test_sign_then_verify_of_the_minted_object_computes_no_token(monkeypatch):
    calls = []
    keyed = signatures._keyed_token
    monkeypatch.setattr(signatures, "_keyed_token", lambda *a: calls.append(a) or keyed(*a))
    scheme = SimTokenScheme(seed=6)
    sig = scheme.sign(3, ("vote", "gc", 1))
    assert scheme.verify(sig, 3, ("vote", "gc", 1))
    assert not scheme.verify(sig, 3, ("vote", "gc", 0))
    assert calls == []
    # an equal-valued copy is not the minted object: both tokens are hashed
    copy = Signature(signer=3, message_digest=sig.message_digest, token=sig.token)
    assert scheme.verify(copy, 3, ("vote", "gc", 1))
    assert len(calls) == 2


def _wrapper_point():
    doc = {
        "schema_version": 1,
        "protocol": "ba-with-predictions",
        "variant": "authenticated",
        "value_domain": [0, 1],
        "axes": {
            "n": [16],
            "t": [7],
            "f": [7],
            "error_budget": ["n"],
            "allocation": ["adversarial-worst"],
            "adversary": ["grade-splitter"],
            "inputs": ["alternating"],
            "fault_placement": ["lowest"],
            "seeds": [1],
        },
    }
    (point,), _skipped = harness.expand_sweep(doc)
    return point


def test_an_execution_computes_fewer_tokens_than_it_mints(monkeypatch):
    point = _wrapper_point()
    counts = {"tokens": 0, "signed": 0}
    keyed, sign = signatures._keyed_token, SimTokenScheme.sign

    def counted_token(*args):
        counts["tokens"] += 1
        return keyed(*args)

    def counted_sign(self, signer, content):
        counts["signed"] += 1
        return sign(self, signer, content)

    with monkeypatch.context() as patch:
        patch.setattr(signatures, "_keyed_token", counted_token)
        patch.setattr(SimTokenScheme, "sign", counted_sign)
        lazy = harness.record_bytes(harness.run_point(point))
    assert 0 < counts["tokens"] < counts["signed"]

    def eager_sign(self, signer, content):
        sig = sign(self, signer, content)
        sig.token
        return sig

    with monkeypatch.context() as patch:
        patch.setattr(SimTokenScheme, "sign", eager_sign)
        eager = harness.record_bytes(harness.run_point(point))
    assert lazy == eager


def test_a_signature_does_not_keep_its_scheme_alive():
    # a signature holding its scheme would form the cycle signature ->
    # scheme -> mint registry -> signature, which only the cyclic collector
    # frees: every execution's signatures would outlive it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        scheme = SimTokenScheme(seed=8)
        sig = scheme.sign(1, ("m", 1))
        token = scheme._token(1, sig.message_digest)
        alive = weakref.ref(scheme)
        del scheme
        assert alive() is None
        assert sig.token == token
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# encode against a reference written from the module docstring's layout
# ---------------------------------------------------------------------------

def reference_encode(obj):
    def framed(tag, body):
        return tag + struct.pack(">I", len(body)) + body

    if isinstance(obj, Signature):
        return reference_encode(("sig", obj.signer, obj.message_digest, obj.token))
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"Y" if obj else b"Z"
    if isinstance(obj, int):
        return framed(b"I", str(int(obj)).encode("ascii"))
    if isinstance(obj, str):
        return framed(b"S", str(obj).encode("utf-8"))
    if isinstance(obj, bytes):
        return framed(b"B", obj)
    if isinstance(obj, (tuple, list)):
        return b"T" + struct.pack(">I", len(obj)) + b"".join(map(reference_encode, obj))
    return reference_encode(obj.canonical())


class _Int(int):
    pass


class _Str(str):
    pass


_ENCODE_SCHEME = SimTokenScheme(seed=12)


def encodable_values():
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.integers(-(10**6), 10**6).map(_Int),
        st.text(max_size=8),
        st.text(max_size=8).map(_Str),
        st.binary(max_size=8),
        st.builds(_ENCODE_SCHEME.sign, st.integers(1, 9), st.text(max_size=4)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)
        ),
        max_leaves=16,
    )


@given(encodable_values())
def test_encode_matches_the_documented_layout(value):
    assert encode(value) == reference_encode(value)
    assert digest(value) == hashlib.sha256(reference_encode(value)).hexdigest()

"""Signature schemes and the canonical content encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

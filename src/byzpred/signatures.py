"""Signature abstraction with a documented canonical content encoding.

Canonical byte layout:

    encode(None)          = b"N"
    encode(bool b)        = b"Y" | b"Z"                     (true | false)
    encode(int i)         = b"I" + u32(len(d)) + d          d = ascii decimal
    encode(str s)         = b"S" + u32(len(u)) + u          u = utf-8 bytes
    encode(bytes b)       = b"B" + u32(len(b)) + b
    encode(sequence xs)   = b"T" + u32(len(xs)) + concat(encode(x) for x in xs)
    encode(Signature s)   = encode(("sig", signer, message_digest, token))
    encode(other o)       = encode(o.canonical())

    u32 = 4-byte big-endian unsigned length prefix.

The signed digest of content c is sha256(encode(c)), hex.  A Signature is
immutable and computes its encoding once, from its own fields, on first
use; `encode` returns those cached bytes.  Signed structures that nest
signatures are signed through cached encodings rather than by re-encoding
every entry they hold: committee certificates and message chains through
their own cached digests (see authtools), and a graded-consensus commit
through the tuple of its proof's vote signatures (see
`blocks.proof_digest`).

The signature scheme is a simulation-enforced token scheme: tokens are a
keyed hash of (signer, digest), and verification additionally requires the
(signer, digest) pair to be present in the scheme's mint registry.  The
adversary has no operation that mints tokens for honest signers, so honest
signatures are unforgeable by construction.

A minted signature holds the scheme's secret bytes, not the scheme, and
hashes its token when the token is first read: by `.token`, by its
encoding or `repr`, by `==` against another signature with the same signer
and digest, or by a verify that cannot decide on identity.  Most honest
signatures are verified only against the very object that was minted, or
never, so most tokens are never computed.  The secret stays out of every
encoding and `repr`, so a token that was never revealed still cannot be
rebuilt from (signer, content).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

from .errors import ProtocolViolation

_u32 = struct.Struct(">I").pack


def encode(obj: Any) -> bytes:
    if type(obj) is Signature:
        return obj.encoded
    if obj is None:
        return b"N"
    if obj is True:
        return b"Y"
    if obj is False:
        return b"Z"
    if isinstance(obj, int):
        d = str(obj).encode("ascii")
        return b"I" + _u32(len(d)) + d
    if isinstance(obj, str):
        u = obj.encode("utf-8")
        return b"S" + _u32(len(u)) + u
    if isinstance(obj, bytes):
        return b"B" + _u32(len(obj)) + obj
    if isinstance(obj, (tuple, list)):
        # One pass over flat content: exact str and int elements and
        # signatures are written inline, anything else by recursion.
        parts = [b"T", _u32(len(obj))]
        for x in obj:
            tx = type(x)
            if tx is str:
                u = x.encode("utf-8")
                parts += (b"S", _u32(len(u)), u)
            elif tx is int:
                d = b"%d" % x
                parts += (b"I", _u32(len(d)), d)
            elif tx is Signature:
                parts.append(x.encoded)
            else:
                parts.append(encode(x))
        return b"".join(parts)
    canonical = getattr(obj, "canonical", None)
    if canonical is not None:
        return encode(canonical())
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def digest(content: Any) -> str:
    return hashlib.sha256(encode(content)).hexdigest()


def _keyed_token(secret: bytes, signer: Any, dig: str) -> str:
    return hashlib.sha256(secret + str(signer).encode() + dig.encode()).hexdigest()[:32]


class _SignatureSlots:
    """A Signature's fields, still writable: `SimTokenScheme.sign` fills one
    and then makes it a Signature, which costs less than the frozen
    constructor's per-field `object.__setattr__`."""

    __slots__ = ("signer", "message_digest", "_secret", "_token", "_encoded")


class Signature(_SignatureSlots):
    """An authenticator binding a signer to a content digest.

    Immutable.  `token` and `encoded` are computed on first read; equality
    covers (signer, message_digest, token), and the hash covers (signer,
    message_digest) alone, so hashing never computes a token.
    """

    __slots__ = ()

    def __init__(self, signer: int, message_digest: str, token: str):
        for name, value in (
            ("signer", signer),
            ("message_digest", message_digest),
            ("_secret", None),
            ("_token", token),
            ("_encoded", None),
        ):
            object.__setattr__(self, name, value)

    @property
    def token(self) -> str:
        token = self._token
        if token is None and self._secret is not None:
            token = _keyed_token(self._secret, self.signer, self.message_digest)
            object.__setattr__(self, "_token", token)
        return token

    @property
    def encoded(self) -> bytes:
        """encode(self), computed once from this signature's own fields."""
        enc = self._encoded
        if enc is None:
            enc = encode(self.canonical())
            object.__setattr__(self, "_encoded", enc)
        return enc

    def canonical(self):
        return ("sig", self.signer, self.message_digest, self.token)

    def __setattr__(self, name, value):
        raise AttributeError(f"Signature is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Signature is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.signer, self.message_digest) == (
            other.signer, other.message_digest
        ) and self.token == other.token

    def __hash__(self):
        return hash((self.signer, self.message_digest))

    def __repr__(self):
        return (
            f"Signature(signer={self.signer!r}, message_digest={self.message_digest!r}, "
            f"token={self.token!r})"
        )

    def __reduce__(self):
        return (Signature, (self.signer, self.message_digest, self.token))


# Exact types whose equal values always encode identically.  bool is left
# out: True == 1 and hash(True) == hash(1), so a memo keyed on tuple
# equality would give ("v", True) and ("v", 1) one shared digest.
_MEMO_SCALARS = frozenset((str, int, bytes, type(None)))


class SimTokenScheme:
    """Deterministic in-simulation signatures, unforgeable by construction.

    verify() demands both a correct token and that this very scheme minted
    a signature for (signer, digest); forged tokens fail even if an
    adversary reproduced the keyed hash.

    The mint registry maps (signer, digest) to the signature minted last
    for it.  Verifying that very object for an int signer needs no token:
    it was minted with this scheme's secret for exactly this pair.  Every
    other signature, including equal-valued copies, forged tokens and a
    signer spelled otherwise (True or 1.0 for 1), is checked by comparing
    its token with the keyed hash.
    """

    def __init__(self, seed: int):
        self._secret = hashlib.sha256(b"byzpred-scheme" + str(seed).encode()).digest()
        self._minted = {}
        self._digest_memo = {}

    def _digest(self, content: Any) -> str:
        # Flat scalar tuples (vote/commit/committee contents and the
        # hash-chained chain links) repeat across all signers and
        # verifiers; deep structures are hashed directly.
        if (
            type(content) is tuple
            and len(content) <= 4
            and _MEMO_SCALARS.issuperset(map(type, content))
        ):
            dig = self._digest_memo.get(content)
            if dig is None:
                dig = digest(content)
                self._digest_memo[content] = dig
            return dig
        return digest(content)

    def _token(self, signer: int, dig: str) -> str:
        return _keyed_token(self._secret, signer, dig)

    def sign(self, signer: int, content: Any) -> Signature:
        dig = self._digest(content)
        sig = _SignatureSlots()
        sig.signer = signer
        sig.message_digest = dig
        sig._secret = self._secret
        sig._token = sig._encoded = None
        sig.__class__ = Signature
        self._minted[(signer, dig)] = sig
        return sig

    def verify(self, sig: Any, signer: int, content: Any) -> bool:
        if not isinstance(sig, Signature):
            return False
        dig = self._digest(content)
        if not (sig.signer == signer and sig.message_digest == dig):
            return False
        minted = self._minted.get((signer, dig))
        if minted is None:
            return False
        if minted is sig and type(signer) is int and type(sig.signer) is int:
            return True
        return sig.token == self._token(signer, dig)


class SignOracle:
    """Per-process signing capability: signs only as the bound identity."""

    __slots__ = ("_scheme", "pid")

    def __init__(self, scheme, pid: int):
        self._scheme = scheme
        self.pid = pid

    def sign(self, content: Any) -> Signature:
        return self._scheme.sign(self.pid, content)

    def verify(self, sig: Any, signer: int, content: Any) -> bool:
        return self._scheme.verify(sig, signer, content)

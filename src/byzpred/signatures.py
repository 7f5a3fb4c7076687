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
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .errors import ProtocolViolation


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
        return b"I" + struct.pack(">I", len(d)) + d
    if isinstance(obj, str):
        u = obj.encode("utf-8")
        return b"S" + struct.pack(">I", len(u)) + u
    if isinstance(obj, bytes):
        return b"B" + struct.pack(">I", len(obj)) + obj
    if isinstance(obj, (tuple, list)):
        parts = [encode(x) for x in obj]
        return b"T" + struct.pack(">I", len(obj)) + b"".join(parts)
    canonical = getattr(obj, "canonical", None)
    if canonical is not None:
        return encode(canonical())
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def digest(content: Any) -> str:
    return hashlib.sha256(encode(content)).hexdigest()


@dataclass(frozen=True)
class Signature:
    """An authenticator binding a signer to a content digest."""

    signer: int
    message_digest: str
    token: str

    def canonical(self):
        return ("sig", self.signer, self.message_digest, self.token)

    @cached_property
    def encoded(self) -> bytes:
        """encode(self), computed once from this signature's own fields."""
        return encode(self.canonical())


# Exact types whose equal values always encode identically.  bool is left
# out: True == 1 and hash(True) == hash(1), so a memo keyed on tuple
# equality would give ("v", True) and ("v", 1) one shared digest.
_MEMO_SCALARS = frozenset((str, int, bytes, type(None)))


class SimTokenScheme:
    """Deterministic in-simulation signatures, unforgeable by construction.

    verify() demands both a correct token and that this very scheme minted
    a signature for (signer, digest); forged tokens fail even if an
    adversary reproduced the keyed hash.
    """

    def __init__(self, seed: int):
        self._secret = hashlib.sha256(b"byzpred-scheme" + str(seed).encode()).digest()
        # (signer, digest) -> its minted token, or None where verify must
        # hash it again: a non-int signer equal to an int (True for 1)
        # shares the int's key but its token hashes another spelling
        self._minted = {}
        self._digest_memo = {}

    def _digest(self, content: Any) -> str:
        # Flat scalar tuples (vote/commit/committee contents and the
        # hash-chained chain links) repeat across all signers and
        # verifiers; deep structures are hashed directly.
        if (
            type(content) is tuple
            and len(content) <= 4
            and all(type(x) in _MEMO_SCALARS for x in content)
        ):
            dig = self._digest_memo.get(content)
            if dig is None:
                dig = digest(content)
                self._digest_memo[content] = dig
            return dig
        return digest(content)

    def _token(self, signer: int, dig: str) -> str:
        return hashlib.sha256(self._secret + str(signer).encode() + dig.encode()).hexdigest()[:32]

    def sign(self, signer: int, content: Any) -> Signature:
        dig = self._digest(content)
        token = self._token(signer, dig)
        self._minted[(signer, dig)] = token if type(signer) is int else None
        return Signature(signer=signer, message_digest=dig, token=token)

    def verify(self, sig: Any, signer: int, content: Any) -> bool:
        if not isinstance(sig, Signature):
            return False
        dig = self._digest(content)
        if not (sig.signer == signer and sig.message_digest == dig):
            return False
        token = self._minted.get((signer, dig), False)
        if token is False:
            return False
        if token is None or type(signer) is not int:
            token = self._token(signer, dig)
        return sig.token == token


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

"""Committee certificates, message chains, and broadcast with an implicit
committee.

A committee certificate for process p is a set of t+1 distinct-signer
signatures over ("committee", context, p).  A message chain is a sequence
of signed links with fixed-size, hash-chained contents:

    link 1     signs ("chain-start",  context, value,         cert_digest)
    link j+1   signs ("chain-extend", context, prefix_digest, cert_digest)

where cert_digest is the digest of the link signer's own certificate and
prefix_digest the digest of the length-j prefix.  A chain's digest covers
its context, origin and value and, per link, the certificate digest and the
signature's encoding; so link j+1 binds every earlier link, certificate and
the value transitively through sha256, without re-encoding them.  A
length-b chain is valid only if its b signers are pairwise distinct and
every link carries a valid certificate for its own signer.

Certificates and chains are immutable and compute their digests once, on
first use, from their own fields only: a digest is never taken from a
constructor argument or from a sender, so a receiver always checks
signatures against content derived from the object it holds.

The `context` string domain-separates invocations (wrapper phases run many
independent instances; a chain or certificate from one instance must not
replay into another).

Validation results are memoised per validator instance: the same immutable
chain object is typically checked by every receiver of a broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import signatures
from .engine import Broadcast, is_count, is_pids, register_protocol, require
from .errors import ConfigurationError
from .signatures import Signature

BOT = None  # the non-domain default value


def committee_content(context: str, subject: int):
    return ("committee", context, subject)


@dataclass(frozen=True)
class CommitteeCertificate:
    subject: int
    context: str
    signatures: Tuple[Signature, ...]  # sorted by signer identifier

    def canonical(self):
        return ("cc", self.subject, self.context, self.signatures)

    @cached_property
    def digest(self) -> str:
        """digest(self), computed once from this certificate's own fields."""
        return signatures.digest(self.canonical())

    @property
    def signers(self) -> Tuple[int, ...]:
        return tuple(s.signer for s in self.signatures)


def assemble_committee_certificate(
    subject: int,
    context: str,
    sigs: Iterable[Any],
    t: int,
    verify,
) -> Optional[CommitteeCertificate]:
    """Build a certificate from the t+1 smallest-identifier valid signers,
    or return None if fewer than t+1 distinct valid signatures exist."""
    content = committee_content(context, subject)
    valid: Dict[int, Signature] = {}
    for sig in sigs:
        if not isinstance(sig, Signature) or sig.signer in valid:
            continue
        if verify(sig, sig.signer, content):
            valid[sig.signer] = sig
    if len(valid) < t + 1:
        return None
    chosen = sorted(valid)[: t + 1]
    return CommitteeCertificate(
        subject=subject, context=context, signatures=tuple(valid[s] for s in chosen)
    )


@dataclass(frozen=True)
class MessageChain:
    value: Any
    origin: int
    context: str
    links: Tuple[Tuple[CommitteeCertificate, Signature], ...]

    def canonical(self):
        return (
            "chain",
            self.context,
            self.origin,
            self.value,
            tuple((c.digest, s) for c, s in self.links),
        )

    @cached_property
    def digest(self) -> str:
        """Digest of canonical(), computed once from this chain's own fields;
        certificates enter by their cached digests."""
        return signatures.digest(self.canonical())

    def __len__(self):
        return len(self.links)

    @property
    def signers(self) -> Tuple[int, ...]:
        return tuple(s.signer for _, s in self.links)

    def prefix(self, length: int) -> "MessageChain":
        return MessageChain(self.value, self.origin, self.context, self.links[:length])


def _link_content(chain_prefix: Optional[MessageChain], value, context, cert):
    if chain_prefix is None:
        return ("chain-start", context, value, cert.digest)
    return ("chain-extend", context, chain_prefix.digest, cert.digest)


def start_chain(value, cert: CommitteeCertificate, signer) -> MessageChain:
    sig = signer.sign(_link_content(None, value, cert.context, cert))
    return MessageChain(value=value, origin=signer.pid, context=cert.context, links=((cert, sig),))


def extend_chain(chain: MessageChain, cert: CommitteeCertificate, signer) -> MessageChain:
    sig = signer.sign(_link_content(chain, None, chain.context, cert))
    return MessageChain(
        value=chain.value, origin=chain.origin, context=chain.context,
        links=chain.links + ((cert, sig),),
    )


class ChainValidator:
    """Memoised validity checks bound to one (context, t, verify) triple.

    Caches key on object identity (payload objects are shared across
    receivers) and hold the validated object so its id stays live.
    """

    def __init__(self, context: str, t: int, verify):
        self.context = context
        self.t = t
        self.verify = verify
        self._cert_cache: Dict[int, Tuple[Any, bool]] = {}
        self._chain_cache: Dict[int, Tuple[Any, bool]] = {}

    def certificate_ok(self, cert: Any, subject: int) -> bool:
        if not isinstance(cert, CommitteeCertificate):
            return False
        if cert.subject != subject or cert.context != self.context:
            return False
        hit = self._cert_cache.get(id(cert))
        if hit is None:
            hit = (cert, self._certificate_check(cert))
            self._cert_cache[id(cert)] = hit
        return hit[1]

    def _certificate_check(self, cert: CommitteeCertificate) -> bool:
        signers = cert.signers
        if len(signers) < self.t + 1 or len(set(signers)) != len(signers):
            return False
        content = committee_content(self.context, cert.subject)
        return all(self.verify(sig, sig.signer, content) for sig in cert.signatures)

    def chain_ok(self, chain: Any, expected_origin: int, max_length: int) -> bool:
        """True iff origin matches, 1 <= length <= max_length, certificates
        and signatures all check out, and all link signers are distinct."""
        if not isinstance(chain, MessageChain):
            return False
        if not (1 <= len(chain) <= max_length):
            return False
        hit = self._chain_cache.get(id(chain))
        if hit is None:
            hit = (chain, self._chain_check(chain))
            self._chain_cache[id(chain)] = hit
        return hit[1] and chain.origin == expected_origin

    def _chain_check(self, chain: MessageChain) -> bool:
        if chain.context != self.context:
            return False
        signers = chain.signers
        if len(set(signers)) != len(signers):
            return False
        if signers[0] != chain.origin:
            return False
        # Validating a prefix validates the whole front of the chain; reuse it.
        if len(chain) > 1:
            head = chain.prefix(len(chain) - 1)
            if not self._chain_check(head):
                return False
            cert, sig = chain.links[-1]
            if not self.certificate_ok(cert, sig.signer):
                return False
            return self.verify(sig, sig.signer, _link_content(head, None, self.context, cert))
        cert, sig = chain.links[0]
        if not self.certificate_ok(cert, sig.signer):
            return False
        return self.verify(sig, sig.signer, _link_content(None, chain.value, self.context, cert))


def chain_validator(ctx, context: str) -> ChainValidator:
    """The one `ChainValidator` for `context` in this execution, shared by
    every process through ``ctx.memo``."""
    key = ("chain-validator", context)
    validator = ctx.memo.get(key)
    if validator is None:
        validator = ctx.memo[key] = ChainValidator(context, ctx.t, ctx.signer.verify)
    return validator


def validate_chain(chain, expected_origin, max_length, t, context, verify) -> bool:
    """One-shot form of ChainValidator.chain_ok."""
    return ChainValidator(context, t, verify).chain_ok(chain, expected_origin, max_length)


class BroadcastInstance:
    """Per-process state of one broadcast-with-implicit-committee instance.

    Driven round by round by `relay_rounds`:

        sends  = inst.open(own_value)          # round 1 payloads
        sends  = inst.absorb(j, chains)        # j = 1..k: extensions for round j+1
        inst.absorb(k + 1, chains)             # final receipts, no sends
        value  = inst.result()                 # the sole accepted value or None

    `absorb` with no chains changes nothing, so a round that brings none
    needs no call.
    """

    def __init__(self, ctx, sender: int, k: int, my_cert, validator: ChainValidator):
        self.ctx = ctx
        self.sender = sender
        self.k = k
        self.my_cert = my_cert
        self.validator = validator
        self.accepted: List[Any] = []  # at most 2 values, in acceptance order
        self.broadcasts_sent = 0

    def open(self, own_value) -> List[MessageChain]:
        if self.sender == self.ctx.pid and self.my_cert is not None:
            self._note_seen(own_value, 1)
            self._record(own_value, 1, ())
            chain = start_chain(own_value, self.my_cert, self.ctx.signer)
            self.broadcasts_sent += 1
            return [chain]
        return []

    def absorb(self, j: int, chains: Sequence[Any]) -> List[MessageChain]:
        """Process round-j receipts (valid length-j chains only); returns the
        extension broadcasts for round j+1 (empty after round k).

        A chain whose value is not in the value domain is dropped unnoted,
        as every other payload outside the domain is: every honest receiver
        drops it alike, so it counts as silence.  A chain whose value is
        already accepted is dropped without validation: valid or not, it
        could only note that value again (a no-op, as it was noted on
        acceptance) and then stop at the acceptance test, so skipping it
        changes no state."""
        out: List[MessageChain] = []
        final = j >= self.k + 1
        domain = self.ctx.scenario.value_domain
        for chain in chains:
            if not isinstance(chain, MessageChain):
                continue
            value = chain.value
            if value not in domain or value in self.accepted:
                continue
            if not self.validator.chain_ok(chain, self.sender, j):
                continue
            if len(chain) != j:
                continue
            self._note_seen(value, j)
            if len(self.accepted) >= 2:
                continue
            self._record(value, j, chain.signers)
            if not final and self.my_cert is not None and self.ctx.pid not in chain.signers:
                extension = extend_chain(chain, self.my_cert, self.ctx.signer)
                self.broadcasts_sent += 1
                out.append(extension)
        return out

    def _note_seen(self, value, j):
        shared = self.ctx.shared.setdefault("bb_first_seen", {})
        key = (self.validator.context, self.sender, value)
        shared.setdefault(key, {}).setdefault(self.ctx.pid, j)

    def _record(self, value, j, signers):
        self.accepted.append(value)
        self.ctx.check("bb-x-cardinality", len(self.accepted) <= 2, "X grew past 2")
        if j == self.k + 1 and signers:
            self.ctx.shared.setdefault("bb_late_accepts", []).append(
                {
                    "context": self.validator.context,
                    "pid": self.ctx.pid,
                    "sender": self.sender,
                    "value": value,
                    "signers": list(signers),
                }
            )

    def result(self):
        if len(self.accepted) == 1:
            return self.accepted[0]
        return BOT


def committee_vote_payloads(ctx, context: str, targets: Sequence[int]):
    """Signed committee nominations, one targeted send per nominee."""
    sends = []
    for j in targets:
        sig = ctx.signer.sign(committee_content(context, j))
        sends.append((j, ("cvote", sig)))
    return sends


def certificate_from_inbox(ctx, context: str, inbox) -> Optional[CommitteeCertificate]:
    sigs = []
    for _src, payload in inbox:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "cvote":
            sigs.append(payload[1])
    return assemble_committee_certificate(ctx.pid, context, sigs, ctx.t, ctx.signer.verify)


def relay_rounds(ctx, instances: Dict[int, BroadcastInstance], k: int, own_value):
    """Rounds 1..k+1 of the broadcast instances in `instances`, keyed by
    origin.  Opens this process's own instance, if there is one; then, each
    round, hands each origin's instance that origin's chains and relays
    every extension it returns to processes 1..n, all of a round's chains
    as one multi-payload `Broadcast`."""
    own = instances.get(ctx.pid)
    chains = own.open(own_value) if own is not None else []
    for j in range(1, k + 2):
        inbox = yield Broadcast(tuple(chains), ctx.n) if chains else []
        chains = []
        # An instance that received nothing this round has nothing to do.
        for origin, received in ctx.per_inbox(inbox, "bb", _chains_by_origin):
            inst = instances.get(origin)
            if inst is not None:
                chains.extend(inst.absorb(j, received))


def _chains_by_origin(inbox) -> List[Tuple[int, List[Any]]]:
    """The payloads of `inbox` with an int ``origin``, grouped by it in
    ascending origin order, each group in inbox order."""
    per_origin: Dict[int, List[Any]] = {}
    for _src, payload in inbox:
        origin = getattr(payload, "origin", None)
        # A faulty origin may be unhashable: test its type before the lookup.
        if isinstance(origin, int):
            per_origin.setdefault(origin, []).append(payload)
    return sorted(per_origin.items())


def bb_instance_protocol(ctx, scenario, params):
    """Standalone broadcast instance behind a one-round committee setup.

    Round 0 elects the committee listed in params (honest processes send
    signed nominations to exactly those members), rounds 1..k+1 run the
    broadcast.  Total rounds: k + 2.
    """
    sender = params["sender"]
    k = params["k"]
    committee = sorted(params.get("committee", range(1, min(2 * k + 2, ctx.n + 1))))
    context = "bb-standalone"
    own_value = params["input"]

    outer = ctx.enter("bb-setup")
    sends = committee_vote_payloads(ctx, context, committee)
    inbox = yield sends
    my_cert = certificate_from_inbox(ctx, context, inbox)
    ctx.tag = outer
    ctx.enter("bb")
    inst = BroadcastInstance(ctx, sender, k, my_cert, chain_validator(ctx, context))
    yield from relay_rounds(ctx, {sender: inst}, k, own_value)
    if my_cert is not None:
        ctx.check(
            "bb-broadcast-budget",
            inst.broadcasts_sent <= 2,
            f"certified process broadcast {inst.broadcasts_sent} times",
        )
    else:
        ctx.check(
            "bb-uncertified-silent",
            inst.broadcasts_sent == 0,
            "uncertified process sent messages",
        )
    return inst.result()


def _check_bb(params, n: int, variant: str) -> None:
    """`k` is an integer of at least 0, `sender` a process id, a given
    `committee` a list of ids, and the variant authenticated."""
    require(params, "k", is_count(params.get("k")), "an integer of at least 0")
    require(params, "sender", is_pids([params.get("sender")], n), f"a process id in 1..{n}")
    require(params, "committee", is_pids(params.get("committee", []), n),
            f"a list of process ids in 1..{n}")
    if variant != "authenticated":
        raise ConfigurationError("bb-committee signs its votes and chains, so it needs the"
                                 f" authenticated variant, got {variant!r}")


register_protocol("bb-committee", ("k", "sender", "committee"), _check_bb)(bb_instance_protocol)

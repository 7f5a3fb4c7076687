"""Byzantine strategy catalog and an exhaustive small-instance enumerator.

A strategy controls everything the faulty processes transmit.  The engine
runs honest "shadow" programs for faulty processes and hands the strategy
their would-be send items each round, together with the honest round's
send items (rushing adversary); the strategy returns the actual faulty
send items.  Everything about a strategy lives here: each class declares
the params it reads, `make_strategy` is the one check of a spec, a strategy
signs as a member through ``actx.signer(member)`` (it gets no signer for an
honest process), and `_rewrite` is the one rewriter of a shadow's sends.

Enumeration soundness: honest code is deterministic, so the execution is a
function of the faulty per-round, per-receiver payload choices.  Every
adaptive strategy therefore induces some fixed choice table, and running
all choice tables over the protocol-syntactic payload alphabet (plus
silence; arbitrary garbage is discarded by honest parsers, hence
equivalent to silence) covers every honest-observable execution.  When the
table space exceeds the bound, a deterministic sample is drawn and the
report marks the run as sampled, not exhaustive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .authtools import (
    MessageChain,
    _link_content,
    assemble_committee_certificate,
    extend_chain,
    start_chain,
)
from .blocks import commit_content, proof_digest, vote_content
from .engine import Broadcast, is_count
from .errors import ConfigurationError
from .scenario import AdversarySpec

SILENT = "silent"


def entries(items):
    """Each send of `items` once, as ``(sender, tag, payload)``: each payload
    of a broadcast once, a pair list pair by pair."""
    for sender, tag, sends in items:
        if type(sends) is Broadcast:
            for payload in sends.payloads:
                yield sender, tag, payload
        else:
            for _rcv, payload in sends:
                yield sender, tag, payload


class Strategy:
    """Base: faulty processes replay their shadow (honest) behaviour.

    `PARAMS` declares the params a strategy reads, each as ``name:
    (default, test)``.  The constructor rejects a key that is not declared
    and a given value its test refuses, with `ConfigurationError`, and
    `self.params` holds every declared param, given or default.

    Traffic is a list of send items ``(sender, tag, sends)``, where `sends`
    is an `engine.Broadcast` (a tuple of payloads, each to every process)
    or a list of ``(receiver, payload)`` pairs; iterating either yields the
    pairs, a broadcast's payload by payload, and `entries` yields each
    payload once.  `emit` sees one round: the honest items (one per sender
    that sends, ascending) and each alive member's shadow item, and returns
    the faulty items, which the engine delivers after the honest ones in
    the order given.  The base `emit` hands each shadow item to
    `transform`, which returns the member's items for the round; a
    shadow's `Broadcast` passed on unchanged is delivered by reference, and
    so is one that `_rewrite` keeps whole.
    """

    name = "honest-shadow"
    PARAMS: Dict[str, Tuple[Any, Callable[[Any], bool]]] = {}

    def __init__(self, params: Optional[Dict[str, Any]] = None):
        given = dict(params or {})
        for key, value in given.items():
            if key not in self.PARAMS or not self.PARAMS[key][1](value):
                raise ConfigurationError(
                    f"strategy {self.name!r} cannot run with {key} = {value!r};"
                    f" it reads {sorted(self.PARAMS) or 'no params'}"
                )
        self.params = {key: given.get(key, default) for key, (default, _ok) in self.PARAMS.items()}
        self._tag_round: Dict[str, int] = {}
        self.scenario = None

    # -- hooks ------------------------------------------------------------
    def prepare(self, scenario):
        self.scenario = scenario

    def member_program_inputs(self, member, value, prediction):
        return value, prediction

    def filter_member_inbox(self, member, inbox, rnd):
        """Return what `member`'s shadow receives in round `rnd`, given the
        inbox the engine delivered to it: the ``(sender, payload)`` pairs
        under the shadow's tag, in delivery order, as a read-only tuple,
        exactly as an honest receiver of that tag gets them.  The shadow
        steps on what this returns; returning the inbox unchanged lets the
        shadow share it, and its per-inbox results, with its tag-mates."""
        return inbox

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        return [(member, tag, sends)]

    def emit(self, rnd, honest_items, shadow_items, actx):
        for tag in {item[1] for item in honest_items}:
            self._tag_round[tag] = self._tag_round.get(tag, 0) + 1
        out = []
        for member, tag, sends in shadow_items:
            out.extend(self.transform(member, tag, sends, rnd, honest_items, actx))
        return out

    # -- helpers ----------------------------------------------------------
    def tag_round(self, tag: str) -> int:
        """How many rounds of traffic tagged `tag` have been seen (1-based)."""
        return self._tag_round.get(tag, 0)


_DROP = object()  # what a chooser returns for a payload its receiver does not get


def _rewrite(member, tag, sends, choose, keeps):
    """`member`'s items for its shadow's `sends`, with each payload p for
    each receiver r replaced by ``choose(r, p)``, or left out where that is
    `_DROP`.  ``keeps(p)`` may hold only where ``choose(r, p)`` is one and
    the same for every r.  A `Broadcast` whose payloads all pass `keeps`
    stays one broadcast of their replacements (chosen for receiver 1), so
    every receiver shares the payload objects; anything else goes out as
    one pair per receiver, payload by payload."""
    if type(sends) is Broadcast and all(map(keeps, sends.payloads)):
        payloads = tuple(q for q in (choose(1, p) for p in sends.payloads) if q is not _DROP)
        return [(member, tag, Broadcast(payloads, sends.n) if payloads else [])]
    return [(member, tag, [(r, q) for r, p in sends if (q := choose(r, p)) is not _DROP])]


def _complemented(member, tag, sends, actx):
    """`member`'s items for `sends` with every payload replaced by the
    complement vector, one broadcast for a `Broadcast`."""
    return _rewrite(member, tag, sends, lambda _r, _p: actx.complement, lambda _p: True)


class SilentStrategy(Strategy):
    name = "silent"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        return []


class CrashStrategy(Strategy):
    """Honest behaviour until the configured round, then silence."""

    name = "crash"
    PARAMS = {"round": (2, is_count)}

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        return [] if rnd >= self.params["round"] else [(member, tag, sends)]


class EquivocatorStrategy(Strategy):
    """Distinct per-receiver values in every broadcast step.  Honest chain
    relays are multi-payload broadcasts, and equivocator (like
    grade-splitter) passes them on unchanged unless they hold the member's
    own length-1 chain, which it still equivocates receiver by receiver."""

    name = "equivocator"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        return _perturbed(member, tag, sends, rnd, actx)


def _perturbed(member, tag, sends, rnd, actx):
    """`member`'s items for `sends` with every payload passed through
    `_perturb` for its receiver."""
    return _rewrite(
        member, tag, sends,
        lambda r, p: _perturb(p, member, r, rnd, tag, actx),
        lambda p: _unperturbed(p, member),
    )


def _unperturbed(payload, member) -> bool:
    """Whether `_perturb` hands `payload` on as it is to every receiver:
    true of every chain but `member`'s own length-1 chain."""
    return isinstance(payload, MessageChain) and (len(payload) != 1 or payload.origin != member)


def _rotate(value, salt, domain):
    if value in domain:
        return domain[(domain.index(value) + salt) % len(domain)]
    return domain[salt % len(domain)]


def _perturb(payload, member, receiver, rnd, tag, actx):
    domain = actx.value_domain
    salt = receiver + rnd
    if payload in domain:
        return _rotate(payload, salt, domain)
    if isinstance(payload, MessageChain):
        if len(payload) == 1 and payload.origin == member:
            value = _rotate(payload.value, salt, domain)
            key = ("eqv-chain", member, payload.context, value)
            chain = actx.memo.get(key)
            if chain is None:
                cert = payload.links[0][0]
                chain = start_chain(value, cert, actx.signer(member))
                actx.memo[key] = chain
            return chain
        return payload
    if isinstance(payload, tuple):
        if len(payload) == actx.n and all(b in (0, 1) for b in payload):
            flip = receiver % actx.n
            return tuple(b ^ 1 if j < flip else b for j, b in enumerate(payload))
        if len(payload) == 2 and payload[0] in domain and isinstance(payload[1], tuple):
            return (_rotate(payload[0], salt, domain), payload[1])
        if len(payload) == 2 and payload[0] == "vote":
            v = _rotate(payload[1][1], salt, domain)
            key = ("eqv-vote", member, tag, v)
            entry = actx.memo.get(key)
            if entry is None:
                entry = ("vote", (member, v, actx.signer(member).sign(vote_content(tag, v))))
                actx.memo[key] = entry
            return entry
        if len(payload) == 3 and payload[0] == "plur":
            return ("plur", _rotate(payload[1], salt, domain), payload[2])
    return payload


class VotePoisonerStrategy(Strategy):
    """Classification round: complement or per-receiver tailored vectors.

    In complement mode every receiver gets the same vector, so a shadow's
    classify `Broadcast` goes out as one broadcast of the complement; in
    per-receiver mode, and for a classify send that is not a broadcast,
    the member sends one pair per receiver."""

    name = "vote-poisoner"
    PARAMS = {"mode": ("complement", ("complement", "per-receiver").__contains__)}

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if not tag.endswith("classify"):
            return [(member, tag, sends)]
        if self.params["mode"] == "complement":
            return _complemented(member, tag, sends, actx)
        truth = actx.truth
        return _rewrite(
            member, tag, sends,
            lambda r, _p: tuple((1 - b) if (j + r) % 2 else b for j, b in enumerate(truth)),
            lambda _p: False,
        )


class SelectiveIgnorerStrategy(Strategy):
    """Drops the first floor(t/2) messages, then follows the protocol while
    pretending a prediction that trusts everyone and an input of the
    smallest domain value.

    The quota counts only messages the member's shadow receives, those
    under its tag.  While it lasts, "first" is in a seeded order: an inbox
    of two or more pairs in round r is shuffled by ``Random(s).shuffle``
    with ``s = ((seed * 1_000_003 + r) * 1_000_003 + member) & (2**64 - 1)``,
    `seed` the scenario's, before its head is dropped.
    """

    name = "selective-ignorer"
    PARAMS = {"ignore": (None, is_count)}  # None: floor(t/2)

    def __init__(self, params=None):
        super().__init__(params)
        self._dropped: Dict[int, int] = {}

    def member_program_inputs(self, member, value, prediction):
        return self.scenario.value_domain[0], (1,) * self.scenario.n

    def filter_member_inbox(self, member, inbox, rnd):
        quota = self.params["ignore"]
        if quota is None:
            quota = self.scenario.t // 2
        dropped = self._dropped.get(member, 0)
        if dropped >= quota:
            return inbox
        if len(inbox) > 1:
            inbox = list(inbox)
            s = (self.scenario.seed * 1_000_003 + rnd) * 1_000_003 + member
            random.Random(s & 0xFFFFFFFFFFFFFFFF).shuffle(inbox)
        take = min(quota - dropped, len(inbox))
        self._dropped[member] = dropped + take
        return inbox[take:]


class _CvoteCollector(Strategy):
    """Keeps the committee-vote signatures each member's shadow has
    received, for strategies that certify their own members.  Arrival order
    does not matter: `assemble_committee_certificate` takes the t+1
    smallest valid signers."""

    def __init__(self, params=None):
        super().__init__(params)
        self._cvotes: Dict[int, List[Any]] = {}

    def filter_member_inbox(self, member, inbox, rnd):
        sigs = self._cvotes.setdefault(member, [])
        for _src, payload in inbox:
            if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "cvote":
                sigs.append(payload[1])
        return inbox


class ChainWithholderStrategy(_CvoteCollector):
    """Members behave honestly, but each certified faulty sender also builds
    a private chain for a second value, extended member-to-member without
    ever touching an honest process, and reveals it at the last round where
    its length is still acceptable."""

    name = "chain-withholder"

    def __init__(self, params=None):
        super().__init__(params)
        self._private: Dict[str, Dict[str, Any]] = {}

    def _member_cert(self, member, context, actx):
        sigs = self._cvotes.get(member, ())
        return assemble_committee_certificate(member, context, sigs, actx.t, actx.verify)

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        out = [(member, tag, sends)]
        for _rcv, payload in sends:
            if isinstance(payload, MessageChain) and len(payload) == 1 and payload.origin == member:
                key = (payload.context, member)
                if key not in self._private:
                    self._build_private(member, payload, tag, actx)
        for (_context, owner), state in sorted(self._private.items()):
            if owner != member or state["sent"] or state["chain"] is None:
                continue
            chain = state["chain"]
            if self.tag_round(state["tag"]) == len(chain):
                honest = [p for p in range(1, actx.n + 1) if p not in actx.fault_set]
                out.append((member, state["tag"], [(r, chain) for r in honest]))
                state["sent"] = True
        return out

    def _build_private(self, member, public_chain, tag, actx):
        context = public_chain.context
        domain = actx.value_domain
        second = _rotate(public_chain.value, 1, domain)
        cert = self._member_cert(member, context, actx)
        state = {"chain": None, "sent": False, "tag": tag}
        self._private[(context, member)] = state
        if cert is None:
            return
        chain = start_chain(second, cert, actx.signer(member))
        for other in sorted(actx.fault_set):
            if other == member or other in chain.signers:
                continue
            ocert = self._member_cert(other, context, actx)
            if ocert is not None:
                chain = extend_chain(chain, ocert, actx.signer(other))
        state["chain"] = chain


def _is_plur(payload) -> bool:
    return isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "plur"


class CertificateHoarderStrategy(Strategy):
    """Collects committee votes but stays silent through the broadcast
    rounds, spending the certificate only on a poisoned, per-receiver
    plurality message in the final round.  A shadow broadcast without
    plurality messages stays one broadcast, with its chains left out."""

    name = "certificate-hoarder"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        domain = actx.value_domain

        def choose(r, payload):
            if isinstance(payload, MessageChain):
                return _DROP  # withhold all chain traffic
            if _is_plur(payload):
                return ("plur", _rotate(payload[1], r, domain), payload[2])
            return payload

        return _rewrite(member, tag, sends, choose, lambda p: not _is_plur(p))


class GradeSplitterStrategy(Strategy):
    """Staged attack on the wrapper's grade-0 adoption guards.

    In both variants the members send complement vectors in the
    classification vote, so misclassified faulty processes fill the first
    leader window.  They stay silent in every other graded-consensus, king
    and conciliation round (`gc1`, `gc2`, `gc3`, `gc`, `king`, `con`,
    `gca`, `gcb`) and send everything else perturbed per receiver.

    Unauthenticated only, in the first leader window's `gca` and `gcb`
    rounds: in phase 1 the members hand the largest domain value u to a
    late-position faction of max(n - t - f, 1) honest processes, and from
    phase 2 on the smallest domain value to a second faction of that size,
    the earliest honest processes but the target (the first faction's
    first process).  They send it to themselves too, which keeps their
    shadows voting.  In phase 1's `gc3` they back u: in an odd round of the
    tag, to every honest process that sent u, if those holders and the
    members together reach n - t; in an even round, to the target alone,
    if any honest process sent u.
    """

    name = "grade-splitter"

    def prepare(self, scenario):
        super().prepare(scenario)
        n, t, f = scenario.n, scenario.t, scenario.f
        honest = list(scenario.honest)
        domain = scenario.value_domain
        self._active = bool(honest) and len(domain) >= 2
        if not self._active:
            return
        crowd = max(n - t - f, 1)
        self._push_value = domain[-1]
        self._flip_value = domain[0]
        self._faction_a = honest[-crowd:]
        self._target = self._faction_a[0]
        self._faction_c = [p for p in honest if p != self._target][:crowd]
        self._members = sorted(scenario.fault_set)
        self._unauth = scenario.variant == "unauthenticated"

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        if not sends or not self._active:
            return [(member, tag, sends)]
        if tag.endswith("classify"):
            return _complemented(member, tag, sends, actx)
        head, _, _ = tag.partition("/")
        phase = int(head[2:]) if head.startswith("ph") and head[2:].isdigit() else None
        leaf = tag.rsplit("/", 1)[-1]
        if self._unauth and leaf in ("gca", "gcb") and "/w1/" in tag and phase is not None:
            value = self._push_value if phase == 1 else self._flip_value
            faction = self._faction_a if phase == 1 else self._faction_c
            # feeding the members too keeps their shadows voting, which
            # keeps the next round of this window visible to us
            return [(member, tag, [(rr, value) for rr in faction + self._members])]
        if self._unauth and leaf == "gc3" and phase == 1:
            push_value = self._push_value
            holders = sorted(
                {s for s, t, p in entries(honest_items) if t == tag and p == push_value}
            )
            if self.tag_round(tag) % 2 == 1:
                if len(holders) + len(self._members) >= actx.n - actx.t:
                    return [(member, tag, [(rr, push_value) for rr in holders])]
            elif holders:
                return [(member, tag, [(self._target, push_value)])]
            return []
        if leaf in ("gc1", "gc2", "gc3", "gc", "king", "con", "gca", "gcb"):
            return []  # silent around every other guard site
        return _perturbed(member, tag, sends, rnd, actx)


class ForgerStrategy(Strategy):
    """Simulated forgery: replays honest signatures on altered content and
    fabricates tokens for honest signers; every artefact must be rejected."""

    name = "forger"

    def __init__(self, params=None):
        super().__init__(params)
        self._seen_sig = None  # the first honest committee signature seen

    def transform(self, member, tag, sends, rnd, honest_items, actx):
        from .signatures import Signature, digest as digest_of

        out = [(member, tag, sends)]
        if self._seen_sig is None:
            for _s, _tag, payload in entries(honest_items):
                if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "cvote":
                    self._seen_sig = payload[1]
                    break
        honest = [p for p in range(1, actx.n + 1) if p not in actx.fault_set]
        if not honest:
            return out
        victim = honest[(rnd - 1) % len(honest)]
        for _s, chain_tag, chain in entries(honest_items):
            if isinstance(chain, MessageChain):
                forged_value = _rotate(chain.value, 1, actx.value_domain)
                cert, _sig = chain.links[0]
                content = _link_content(None, forged_value, chain.context, cert)
                fake_sig = Signature(
                    signer=chain.origin, message_digest=digest_of(content), token="f" * 32
                )
                forged = MessageChain(
                    value=forged_value,
                    origin=chain.origin,
                    context=chain.context,
                    links=((cert, fake_sig),),
                )
                out.append((member, chain_tag, [(r, forged) for r in honest]))
                break
        if self._seen_sig is not None:
            # Replay an honest committee signature as a chain-link signature.
            out.append((member, "forgery-probe", [(victim, ("replayed-sig", self._seen_sig))]))
        return out


_CATALOG_STRATEGIES = (
    SilentStrategy, CrashStrategy, EquivocatorStrategy, VotePoisonerStrategy,
    SelectiveIgnorerStrategy, ChainWithholderStrategy, CertificateHoarderStrategy,
    GradeSplitterStrategy, ForgerStrategy,
)
CATALOG: Dict[str, Callable] = {cls.name: cls for cls in _CATALOG_STRATEGIES}
CATALOG["honest-shadow"] = Strategy


def strategy_catalog() -> List[AdversarySpec]:
    """One spec per catalog strategy, holding its declared defaults; a
    default of None is derived from the scenario and stays out."""
    return [
        AdversarySpec.make(cls.name, {
            key: default for key, (default, _ok) in cls.PARAMS.items() if default is not None
        })
        for cls in _CATALOG_STRATEGIES
    ]


def make_strategy(spec: AdversarySpec) -> Strategy:
    """The strategy `spec` names, built with its params.  An unknown name,
    a param the strategy does not read or a value it cannot run with raises
    `ConfigurationError`: this is the one check of a strategy spec."""
    cls = CATALOG.get(spec.name)
    if cls is None:
        raise ConfigurationError(f"unknown adversary strategy {spec.name!r}")
    return cls(spec.param_dict())


# ---------------------------------------------------------------------------
# Exhaustive enumeration for small instances
# ---------------------------------------------------------------------------

class ChoiceTableStrategy(Strategy):
    """Pre-committed per-(round, member, receiver) payload choices.

    Entries are ((round, member, receiver), (tag, action)) pairs.  An action
    is a literal payload or one of the symbolic graded-consensus forms
    resolved at runtime against what the member legitimately knows:

        ("@vote", v)         a signed graded-consensus vote for v
        ("@commit", v)       a commit for v with a proof assembled from
                             observed valid votes (dropped if impossible)
        ("@fwd", v | "*")    forward observed votes (for v, or all)
        ("@cfwd", "*")       forward observed commits
        ("@multi", a, b)     both actions in one round

    Unlisted slots stay silent.  The entries are tuples, which JSON cannot
    express, so no sweep file or record can give a table.
    """

    name = "choice-table"
    PARAMS = {"table": ((), lambda table: isinstance(table, (list, tuple))
                        and all(type(pair) is tuple for pair in table))}

    def __init__(self, params=None):
        super().__init__(params)
        self.table = dict(self.params["table"])
        self._votes_seen: Dict[str, Dict[Tuple[int, Any], tuple]] = {}
        self._commits_seen: Dict[str, Dict[int, tuple]] = {}

    def _observe(self, honest_items):
        for _s, tag, payload in entries(honest_items):
            if isinstance(payload, tuple) and len(payload) == 2:
                if payload[0] == "vote" and isinstance(payload[1], tuple):
                    entry = payload[1]
                    self._votes_seen.setdefault(tag, {}).setdefault((entry[0], entry[1]), entry)
                elif payload[0] == "commit" and isinstance(payload[1], tuple):
                    entry = payload[1]
                    self._commits_seen.setdefault(tag, {}).setdefault(entry[0], entry)

    def _resolve(self, action, member, rnd, actx, tag):
        if not (isinstance(action, tuple) and action and isinstance(action[0], str)):
            return [action]
        head = action[0]
        if head == "@multi":
            out = []
            for sub in action[1:]:
                out.extend(self._resolve(sub, member, rnd, actx, tag))
            return out
        if head == "@vote":
            v = action[1]
            entry = (member, v, actx.signer(member).sign(vote_content(tag, v)))
            self._votes_seen.setdefault(tag, {}).setdefault((member, v), entry)
            return [("vote", entry)]
        if head == "@fwd":
            votes = self._votes_seen.get(tag, {})
            sel = action[1]
            entries = tuple(
                votes[k] for k in sorted(votes, key=repr) if sel == "*" or k[1] == sel
            )
            return [("fwd", entries)]
        if head == "@commit":
            v = action[1]
            votes = self._votes_seen.setdefault(tag, {})
            if (member, v) not in votes:
                votes[(member, v)] = (member, v, actx.signer(member).sign(vote_content(tag, v)))
            proof_entries = sorted(
                (votes[k] for k in votes if k[1] == v), key=lambda e: e[0]
            )[: actx.n - actx.t]
            if len({e[0] for e in proof_entries}) < actx.n - actx.t:
                return []
            proof = tuple(proof_entries)
            sig = actx.signer(member).sign(commit_content(tag, v, proof_digest(proof)))
            entry = (member, v, proof, sig)
            self._commits_seen.setdefault(tag, {}).setdefault(member, entry)
            return [("commit", entry)]
        if head == "@cfwd":
            commits = self._commits_seen.get(tag, {})
            return [("cfwd", tuple(commits[s] for s in sorted(commits)))]
        return [action]

    def emit(self, rnd, honest_items, shadow_items, actx):
        self._observe(honest_items)
        out = []
        for member in sorted(actx.fault_set):
            for receiver in range(1, actx.n + 1):
                entry = self.table.get((rnd, member, receiver))
                if entry is None:
                    continue
                tag, action = entry
                for payload in self._resolve(action, member, rnd, actx, tag):
                    if payload is None:
                        continue
                    out.append((member, tag, [(receiver, payload)]))
        return out


CATALOG["choice-table"] = ChoiceTableStrategy


@dataclass(frozen=True)
class EnumerationReport:
    total: int
    enumerated: int
    truncated: bool


def enumerate_choice_tables(
    slots: Sequence[Tuple[int, int, int]],
    alphabets: Dict[Tuple[int, int, int], Sequence[Any]],
    bound: Optional[int] = None,
    seed: int = 0,
) -> Tuple[Iterator[Tuple], EnumerationReport]:
    """All (or a deterministic sample of) choice tables over the slots.

    Each yielded table is a sorted tuple of ((round, member, receiver),
    entry) pairs with silent slots omitted, suitable for
    AdversarySpec.make("choice-table", {"table": table}).
    """
    slots = sorted(slots)
    sizes = [len(alphabets[s]) for s in slots]
    total = 1
    for size in sizes:
        total *= size
    truncated = bound is not None and total > bound

    def full() -> Iterator[Tuple]:
        for combo in itertools.product(*(alphabets[s] for s in slots)):
            yield tuple(
                (slot, entry)
                for slot, entry in zip(slots, combo)
                if entry is not None and entry != SILENT
            )

    def sampled() -> Iterator[Tuple]:
        rng = random.Random(seed)
        for _ in range(bound):
            combo = [rng.choice(list(alphabets[s])) for s in slots]
            yield tuple(
                (slot, entry)
                for slot, entry in zip(slots, combo)
                if entry is not None and entry != SILENT
            )

    report = EnumerationReport(
        total=total, enumerated=bound if truncated else total, truncated=truncated
    )
    return (sampled() if truncated else full()), report

"""Unauthenticated building blocks plus the wrapper's standard sub-protocols.

Contents:

* graded consensus with core set (two rounds, window-scoped),
* conciliation with core set (one round, leader graph),
* the standard n-wide graded consensus used by the wrapper — an
  unauthenticated echo protocol for t < n/3 (2 rounds) and an
  authenticated vote/forward/commit/forward protocol for t < n/2
  (4 rounds),
* a time-boxed early-stopping Byzantine agreement (phase-king loop).

All tallies count distinct senders: a sender's first well-formed payload
per round wins, duplicates are ignored.  Values are filtered against the
scenario's finite, totally ordered value domain; anything else is treated
as a malformed payload (equivalent to silence).  What a round's rule
derives from an inbox alone (an echo, a grade, a leader graph) is computed
once per inbox object through `ctx.per_inbox`, so the honest receivers that
share one inbox share one tally.

The authenticated standard graded consensus works as follows.  Round 1:
everyone broadcasts a signed vote for its input.  Round 2: everyone
forwards the valid votes it received, after which each process voids any
signer seen voting for two values and tallies the rest.  Round 3: a
process holding n-t non-voided votes for some value broadcasts a signed
commit carrying those votes as a proof.  The commit signature binds the
proof through its vote signatures (`proof_digest`), and a commit is valid
only if every proof entry is a valid vote for the committed value; a valid
vote signature binds its signer and its type-exact value, so the
signatures bind the proof entry by entry.  Round 4: everyone forwards the
valid commits it received directly.  A process returns grade 1 for v only
if it received n-t distinct-signer non-voided commits for v directly and
saw no valid commit for any other value anywhere; otherwise it adopts the
value with the most direct non-voided commits (ties to the smallest), or
keeps its input if there were none.  Coherence rests on two facts: any
commit received directly by an honest process is re-broadcast, so a
grade-1 holder's "no conflict" view implies no honest process received a
conflicting commit; and any n-t commit quorum contains an honest,
unvoidable committer whose broadcast reaches everyone.

Receivers share broadcast payloads, so the authenticated protocol keeps
three memos per tag keyed on object identity (is a vote valid, is a commit
valid, what value and digest a commit proof carries) and two merged views
(of the vote forwards and of the commit forwards) per set of forwards.  A
receiver's own forward is merged last into the forwards it received.  For
an honest receiver self-delivery has already put that forward in its inbox
by reference, so appending it changes neither the set of forwards nor the
shared view; a faulty member's shadow may lack it, because its strategy may
replace or withhold what the member sends itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .engine import is_count, is_pids, register_protocol, require
from .errors import ConfigurationError
from .signatures import Signature, digest

BOT = None

GC_ROUNDS = {"unauthenticated": 2, "authenticated": 4}
ES_PHASE_ROUNDS = {"unauthenticated": 3, "authenticated": 5}


def plurality_tiebreak(values: Sequence[Any]) -> Any:
    """Smallest value among those occurring the largest number of times."""
    if not values:
        raise ConfigurationError("plurality of an empty multiset")
    counts = _count(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def distinct_by_sender(inbox, allowed=None) -> Dict[int, Any]:
    """First payload per sender, optionally restricted to allowed senders.

    Inbox order only decides between entries of one sender: the first one
    counts, and an honest inbox is in delivery order.  The inbox is only
    read (an honest one is a tuple that other receivers share), and the
    dict is new on every call.  It is built from the reversed inbox, so its
    key order is not the inbox order; every caller reads it as a mapping or
    a multiset."""
    seen = dict(reversed(inbox))
    if allowed is None:
        return seen
    return {src: payload for src, payload in seen.items() if src in allowed}


def _domain_values(inbox, domain, allowed=None) -> Dict[int, Any]:
    return {
        src: val
        for src, val in distinct_by_sender(inbox, allowed).items()
        if val in domain
    }


def _count(values) -> Dict[Any, int]:
    """How often each value occurs.  A plain dict rather than a `Counter`,
    whose constructor costs more than the counting on an inbox-sized tally."""
    counts: Dict[Any, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _support(votes: Dict[int, Any]) -> Dict[Any, int]:
    return _count(votes.values())


# ---------------------------------------------------------------------------
# Graded consensus with core set (window-scoped, 2 rounds)
# ---------------------------------------------------------------------------

def graded_consensus_core_set(ctx, value, k: int, window: Sequence[int]):
    """Two-round graded consensus listening only to the `window` members.

    Guarantees unanimity and coherence when every honest window has size
    3k+1 and shares a core of 2k+1 honest members.
    """
    members = frozenset(window)
    domain = ctx.scenario.value_domain
    mine = ctx.pid in members

    def vote_of(inbox):
        votes = _domain_values(inbox, domain, members)
        support = _support(votes)
        if support and max(support.values()) >= 2 * k + 1:
            return plurality_tiebreak([v for v in votes.values() if support[v] >= 2 * k + 1])
        return BOT

    def echoes_of(inbox):
        """The echo support, and the plurality echo if it reaches k+1."""
        echoes = _domain_values(inbox, domain, members)
        esupport = _support(echoes)
        if esupport and max(esupport.values()) >= k + 1:
            return esupport, plurality_tiebreak(list(echoes.values()))
        return esupport, BOT

    inbox = yield ctx.broadcast(value) if mine else []
    b = ctx.per_inbox(inbox, ("gc-core-vote", members, k), vote_of)

    sends = ctx.broadcast(b) if (mine and b is not BOT) else []
    inbox = yield sends
    esupport, top = ctx.per_inbox(inbox, ("gc-core-echo", members, k), echoes_of)
    if b is not BOT:
        if esupport.get(b, 0) >= 2 * k + 1:
            return b, 1
        return b, 0
    if top is not BOT:
        return top, 0
    return value, 0


# ---------------------------------------------------------------------------
# Conciliation with core set (1 round)
# ---------------------------------------------------------------------------

def conciliate(ctx, value, k: int, window: Sequence[int]):
    """One-round leader-graph conciliation.

    Returns the plurality over the per-leader minima of input values whose
    senders reach the leader in the declared-listening graph.
    """
    members = frozenset(window)
    domain = ctx.scenario.value_domain
    n = ctx.n
    fault_set = ctx.scenario.fault_set

    payload = (value, tuple(sorted(members)))
    inbox = yield ctx.broadcast(payload) if ctx.pid in members else []
    outcome, lemma_ok = ctx.per_inbox(
        inbox,
        ("conciliate", members),
        lambda box: _leader_graph_outcome(box, members, n, domain, fault_set),
    )
    ctx.check(
        "conciliation-path-lemma",
        lemma_ok,
        "a source outside the honest broadcaster set reaches an honest broadcaster",
    )
    return outcome[0] if outcome else value


def _leader_graph_outcome(inbox, members, n, domain, fault_set):
    """((plurality of the per-leader minima,) or () if there are none,
    whether the path lemma holds) for one conciliation inbox."""
    expected_size = len(members)
    heard: Dict[int, Tuple[Any, frozenset]] = {}
    for src, p in distinct_by_sender(inbox).items():
        if (
            isinstance(p, tuple)
            and len(p) == 2
            and p[0] in domain
            and isinstance(p[1], tuple)
            and len(p[1]) == expected_size
            and all(isinstance(x, int) and 1 <= x <= n for x in p[1])
        ):
            heard[src] = (p[0], frozenset(p[1]))

    vertices = set(heard)
    declared = {y for y in vertices if y in heard[y][1]}
    # Edge (y, z) iff y is in z's declared window; path search runs backwards
    # from each of the window's leaders.
    preds = {z: [y for y in vertices if y != z and y in heard[z][1]] for z in vertices}

    minima: List[Any] = []
    for z in sorted(vertices & members):
        reach = {z}
        frontier = [z]
        while frontier:
            node = frontier.pop()
            for y in preds[node]:
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        sources = [heard[y][0] for y in reach if y in declared]
        if sources:
            minima.append(min(sources))

    outcome = (plurality_tiebreak(minima),) if minima else ()
    return outcome, _path_lemma_holds(fault_set, vertices, declared, preds)


def _path_lemma_holds(fault_set, vertices, declared, preds) -> bool:
    # Oracle: any vertex with a path to an honest broadcaster is itself an
    # honest broadcaster (checked with ground truth the protocol cannot use).
    honest_bcast = {y for y in declared if y not in fault_set}
    reaches_honest = set(honest_bcast)
    changed = True
    while changed:
        changed = False
        for z in vertices:
            if z in reaches_honest:
                for y in preds[z]:
                    if y not in reaches_honest:
                        reaches_honest.add(y)
                        changed = True
    return all(y in honest_bcast or y in fault_set for y in reaches_honest)


# ---------------------------------------------------------------------------
# Standard graded consensus (n-wide substitute)
# ---------------------------------------------------------------------------

def graded_consensus_standard(ctx, value):
    """The variant's standard graded consensus generator."""
    if ctx.variant == "authenticated":
        return _gc_standard_auth(ctx, value)
    return _gc_standard_unauth(ctx, value)


def _gc_standard_unauth(ctx, value):
    n, t = ctx.n, ctx.t
    domain = ctx.scenario.value_domain

    def echo_of(inbox):
        votes = _domain_values(inbox, domain)
        support = _support(votes)
        if support and max(support.values()) >= n - t:
            return plurality_tiebreak([w for w in votes.values() if support[w] >= n - t])
        return BOT

    def grade_of(inbox):
        """(value, grade) as the echoes decide, or None to keep the input."""
        echoes = _domain_values(inbox, domain)
        esupport = _support(echoes)
        if esupport:
            best = plurality_tiebreak(list(echoes.values()))
            if esupport[best] >= n - t:
                return best, 1
            if esupport[best] >= t + 1:
                return best, 0
        return None

    inbox = yield ctx.broadcast(value)
    echo = ctx.per_inbox(inbox, "gc-echo", echo_of)

    inbox = yield ctx.broadcast(echo) if echo is not BOT else []
    graded = ctx.per_inbox(inbox, "gc-grade", grade_of)
    return graded if graded is not None else (value, 0)


_MULTI = object()  # sentinel: signer seen voting for more than one value


def _note_vote(votes, entry):
    """Note a valid vote into `votes` (signer -> its first vote, or _MULTI)."""
    known = votes.get(entry[0])
    if known is None:
        votes[entry[0]] = entry
    elif known is not _MULTI and known[1] != entry[1]:
        votes[entry[0]] = _MULTI


def vote_content(tag, value):
    return ("gc-vote", tag, value)


def commit_content(tag, value, proof_digest):
    return ("gc-commit", tag, value, proof_digest)


def proof_digest(proof):
    """Digest of a commit proof over its vote signatures, whose encodings
    are cached.  It binds the proof only if every entry is a valid vote."""
    return digest(tuple(e[2] for e in proof))


def _commit_choice(votes, n, t):
    """(value, proof, proof digest) of a non-voided n-t vote quorum, or None."""
    kept = [e for e in votes.values() if e is not _MULTI]
    tally = _count(e[1] for e in kept)
    if not tally or max(tally.values()) < n - t:
        return None
    w = plurality_tiebreak([v for v, c in tally.items() if c >= n - t])
    proof = tuple(sorted((e for e in kept if e[1] == w), key=lambda e: e[0])[: n - t])
    return w, proof, proof_digest(proof)


def _gc_standard_auth(ctx, value):
    n, t = ctx.n, ctx.t
    domain = ctx.scenario.value_domain
    tag = ctx.tag
    verify = ctx.signer.verify
    # The `vote`, `commit` and `proof` memos (see `vote_ok`, `commit_ok` and
    # `proof_of`) and the merged views `vmerge` and `cmerge` (see `merged`)
    # key on the identity of shared payload objects; each entry holds its
    # object, keeping the id stable.
    cache = ctx.memo.get(tag)
    if cache is None:
        cache = {"vote": {}, "commit": {}, "proof": {}, "vmerge": {}, "cmerge": {}}
        ctx.memo[tag] = cache
    vote_memo, commit_memo, proof_memo = cache["vote"], cache["commit"], cache["proof"]
    vmerge, cmerge = cache["vmerge"], cache["cmerge"]

    def vote_ok(entry):
        hit = vote_memo.get(id(entry))
        if hit is not None:
            return hit[1]
        ok = (
            isinstance(entry, tuple)
            and len(entry) == 3
            and type(entry[0]) is int
            and entry[1] in domain
            and isinstance(entry[2], Signature)
            and entry[2].signer == entry[0]
            and verify(entry[2], entry[0], vote_content(tag, entry[1]))
        )
        vote_memo[id(entry)] = (entry, ok)
        return ok

    def proof_of(proof):
        """(value, digest) if `proof` is valid votes for one value from at
        least n-t distinct signers, else None; digested only once every entry
        is valid.  A vote view registers its choice's proof here."""
        hit = proof_memo.get(id(proof))
        if hit is not None:
            return hit[1]
        info = None
        if isinstance(proof, tuple) and proof and all(vote_ok(v) for v in proof):
            val = proof[0][1]
            if all(v[1] == val for v in proof) and len({v[0] for v in proof}) >= n - t:
                info = (val, proof_digest(proof))
        proof_memo[id(proof)] = (proof, info)
        return info

    def commit_ok(entry):
        hit = commit_memo.get(id(entry))
        if hit is not None:
            return hit[1]
        ok = False
        if isinstance(entry, tuple) and len(entry) == 4:
            signer, val, proof, sig = entry
            ok = (
                type(signer) is int
                and val in domain
                and isinstance(sig, Signature)
                and sig.signer == signer
                and (info := proof_of(proof)) is not None
                and info[0] == val
                and verify(sig, signer, commit_content(tag, val, info[1]))
            )
        commit_memo[id(entry)] = (entry, ok)
        return ok

    def bodies(inbox, kind):
        """The (sender, body) pairs of the ``(kind, body)`` payloads in
        `inbox`, in inbox order; every valid body is a tuple."""
        return [
            (src, p[1])
            for src, p in inbox
            if isinstance(p, tuple) and len(p) == 2 and p[0] == kind and isinstance(p[1], tuple)
        ]

    # Receivers of the same forwards share one merged view, keyed by the
    # set of distinct payloads; the view holds them, keeping their ids
    # stable.  Noting a payload twice changes nothing, so each is merged
    # once, in the order of its first occurrence.
    def merged(views, payloads, fold):
        distinct = {id(p): p for p in payloads}
        key = tuple(sorted(distinct))
        view = views.get(key)
        if view is None:
            view = views[key] = (payloads, fold(distinct.values()))
        return view[1]

    def vote_fold(payloads):
        """The commit choice of the valid votes in `payloads`, whose proof
        it registers with `proof_of`."""
        votes: Dict[int, Any] = {}
        for payload in payloads:
            for entry in filter(vote_ok, payload):
                _note_vote(votes, entry)
        choice = _commit_choice(votes, n, t)
        if choice is not None:
            proof_memo[id(choice[1])] = (choice[1], (choice[0], choice[2]))
        return choice

    def commit_fold(payloads):
        """(every value of a valid commit in `payloads`, the committers seen
        committing to more than one)."""
        commit_values: Dict[int, set] = {}
        for payload in payloads:
            for entry in filter(commit_ok, payload):
                commit_values.setdefault(entry[0], set()).add(entry[1])
        return (
            frozenset(v for vals in commit_values.values() for v in vals),
            frozenset(s for s, vals in commit_values.items() if len(vals) > 1),
        )

    # Each round's result is a function of the inbox (and, in rounds 2 and
    # 4, of the receiver's own forward), computed once per inbox object.
    # Receivers of one round-1 inbox share one tuple of direct votes, so
    # their forwards carry the same body.
    def direct_votes_of(inbox):
        return tuple(body for _src, body in bodies(inbox, "vote") if vote_ok(body))

    # A receiver's direct votes (and in round 4 its direct commits) are its
    # own forward, merged last into the forwards it received.  Self-delivery
    # has already put it in an honest inbox by reference, so the shared view
    # is unchanged; a shadow's inbox may lack it, because its strategy may
    # replace or withhold what the member sends itself.
    def choice_of(inbox, own):
        return merged(vmerge, [body for _src, body in bodies(inbox, "fwd")] + [own], vote_fold)

    def direct_commits_of(inbox):
        return tuple(
            body for src, body in bodies(inbox, "commit") if commit_ok(body) and body[0] == src
        )

    def grade_of(inbox, own):
        """(value, grade), or None to keep the input."""
        all_commit_values, cvoided = merged(
            cmerge, [body for _src, body in bodies(inbox, "cfwd")] + [own], commit_fold
        )
        per_value = _count(val for signer, val in {(e[0], e[1]) for e in own}
                           if signer not in cvoided)
        if not per_value:
            return None
        top = max(per_value.values())
        best = min(v for v, c in per_value.items() if c == top)
        if per_value[best] >= n - t and all_commit_values == {best}:
            return best, 1
        return best, 0

    # Round 1: signed votes.
    my_vote = (ctx.pid, value, ctx.signer.sign(vote_content(tag, value)))
    inbox = yield ctx.broadcast(("vote", my_vote))
    own = ctx.per_inbox(inbox, (tag, "vote"), direct_votes_of)

    # Round 2: forward everything; void double-voters, tally the rest.  The
    # entry holds `own`, keeping its id stable for the round.
    inbox = yield ctx.broadcast(("fwd", own))
    choice = ctx.per_inbox(
        inbox, (tag, "fwd", id(own)), lambda box: (own, choice_of(box, own))
    )[1]

    # Round 3: commit with proof when a non-voided quorum exists.
    sends = []
    if choice is not None:
        w, proof, proof_dig = choice
        sig = ctx.signer.sign(commit_content(tag, w, proof_dig))
        sends = ctx.broadcast(("commit", (ctx.pid, w, proof, sig)))
    inbox = yield sends
    own = ctx.per_inbox(inbox, (tag, "commit"), direct_commits_of)

    # Round 4: forward direct commits; void double-committers, then grade.
    # The commit view is shared the same way.
    inbox = yield ctx.broadcast(("cfwd", own))
    graded = ctx.per_inbox(
        inbox, (tag, "cfwd", id(own)), lambda box: (own, grade_of(box, own))
    )[1]
    return graded if graded is not None else (value, 0)


# ---------------------------------------------------------------------------
# Early-stopping Byzantine agreement (phase-king, time-boxed)
# ---------------------------------------------------------------------------

def es_rounds_needed(variant: str, t: int, f: int) -> int:
    """Rounds within which every honest process returns given f actual faults."""
    return ES_PHASE_ROUNDS[variant] * min(f + 3, t + 2)


def ba_early_stopping(ctx, value, T: int):
    """Phase-king agreement truncated to exactly T rounds.

    Kings 1..t+2 lead one phase each (graded consensus + king broadcast);
    a process decides on grade 1, helps for one more phase, then stops.
    With f actual faults all honest processes return within
    es_rounds_needed(variant, t, f) rounds; beyond the budget the current
    estimate is returned and the caller's graded-consensus guards make
    that safe.
    """
    n, t = ctx.n, ctx.t
    domain = ctx.scenario.value_domain
    phase_rounds = ES_PHASE_ROUNDS[ctx.variant]
    start = ctx.rounds_used
    decision = None
    decided_phase = None

    for ph in range(1, t + 3):
        if ctx.rounds_used - start + phase_rounds > T:
            break
        if decided_phase is not None and ph > decided_phase + 1:
            break
        king = ((ph - 1) % n) + 1
        outer = ctx.enter(f"k{ph}")
        phase_tag = ctx.enter("gc")
        value, grade = yield from graded_consensus_standard(ctx, value)
        ctx.tag = phase_tag
        ctx.enter("king")
        sends = ctx.broadcast(value) if ctx.pid == king else []
        inbox = yield sends
        ctx.tag = outer
        king_value = _domain_values(inbox, domain, {king}).get(king)
        if grade == 0 and king_value is not None:
            value = king_value
        if grade == 1 and decision is None:
            decision = value
            decided_phase = ph

    yield from ctx.idle(T - (ctx.rounds_used - start))
    return decision if decision is not None else value


# ---------------------------------------------------------------------------
# Standalone protocol registrations
# ---------------------------------------------------------------------------

def _window_for(params, pid):
    windows = params.get("windows")
    if windows is None:
        return params.get("window")
    return windows.get(pid, windows.get(str(pid)))


def _check_windowed(params, n: int, variant: str) -> None:
    """`k` is an integer of at least 0, and exactly one of `window` and
    `windows` gives each process a list of process ids."""
    require(params, "k", is_count(params.get("k")), "an integer of at least 0")
    if ("window" in params) == ("windows" in params) or not (
        isinstance(params.get("windows", {}), dict)
        and all(is_pids(_window_for(params, p), n) for p in range(1, n + 1))
    ):
        raise ConfigurationError(
            "'window' or 'windows', not both, must be given: a list of process ids in 1..n,"
            f" or an object holding one for each process 1..n, got {params!r}"
        )


@register_protocol("graded-consensus-core", ("k", "window", "windows"), _check_windowed)
def _gc_core_protocol(ctx, scenario, params):
    ctx.enter("gc-core")
    window = _window_for(params, ctx.pid)
    return (yield from graded_consensus_core_set(ctx, params["input"], params["k"], window))


@register_protocol("conciliate", ("k", "window", "windows"), _check_windowed)
def _conciliate_protocol(ctx, scenario, params):
    ctx.enter("conciliate")
    return (yield from conciliate(ctx, params["input"], params["k"], _window_for(params, ctx.pid)))


@register_protocol("graded-consensus")
def _gc_standard_protocol(ctx, scenario, params):
    ctx.enter("gc")
    return (yield from graded_consensus_standard(ctx, params["input"]))


def _check_es(params, n: int, variant: str) -> None:
    """A given `T` is an integer of at least 0."""
    T = params.get("T")
    require(params, "T", T is None or is_count(T), "an integer of at least 0")


@register_protocol("ba-early-stopping", ("T",), _check_es)
def _es_protocol(ctx, scenario, params):
    T = params.get("T")
    if T is None:
        T = es_rounds_needed(scenario.variant, scenario.t, scenario.t)
    ctx.enter("es")
    return (yield from ba_early_stopping(ctx, params["input"], T))

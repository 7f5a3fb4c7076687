"""Deterministic synchronous round scheduler.

Processes are generator coroutines: each ``yield`` hands the engine the
list of ``(receiver, payload)`` pairs, or the `Broadcast`, to transmit
this round and resumes with the ``(sender, payload)`` pairs addressed to
the process in the same round under its current protocol tag.  One
yield == one communication round, so protocol code writes a round as
``inbox = yield sends`` and idles with ``yield from ctx.idle(r)``.  The
engine keeps each process's round count: it adds one to
``ctx.rounds_used`` for every inbox it delivers, just before the process
resumes on it.  A process sends and receives under the protocol tag it
last set, ``ctx.tag``: the engine keeps what a process yields as one send
item ``(sender, tag, sends)``, and it drops every message a receiver gets
under another tag, so protocol code never sees a tag.  A sub-protocol runs
under a sub-tag: ``outer = ctx.enter(name)`` joins the names into
``outer/name`` (``name`` itself at the top), and the caller assigns
``ctx.tag = outer`` back when the block ends.  A block that ends the
process, by a return, a raise or a close, needs no restore: the engine reads
a process's tag only after a step that yielded, and a process that returned,
whose step raised (an honest raise aborts the execution, a shadow's is
counted) or whose generator was closed never steps again.  Messages sent
in round r are consumed by the receiver's next computation step, so no
round-r state ever depends on a round-r message.

Faulty processes never run their own code on the network: the engine runs
"shadow" copies of the honest program for them (so strategies like
crash-at-round-r can replay honest behaviour), but everything they
transmit is produced by the adversary strategy, which sees the honest
round-r send items before choosing the faulty round-r items (rushing
adversary).  A strategy signs as a member through ``actx.signer(member)``,
the `SignOracle` that member's shadow signs with; asking for an honest
process's raises `ProtocolViolation`.  Honest and faulty items share one
format and one check: a malformed send, a receiver outside 1..n or a faulty
item with an honest sender raises `ProtocolViolation`.  A member receives
exactly as an honest process does; the strategy sees each member's inbox
before its shadow steps, and the shadow steps on what the strategy returns.

Message accounting counts messages with an honest sender and a receiver
other than the sender; self-delivery is instantaneous and free.  Inbox
order is not part of the synchronous model, and every inbox arrives in
delivery order: honest items in ascending sender order, then faulty items
in strategy order, each pair list receiver by receiver, an order a rushing
adversary could choose anyway.  Where a result depends
on order at all (which of one sender's payloads counts, which two values a
broadcast instance accepts first), delivery order decides it.  A strategy
that wants another order for its members draws it itself in
`filter_member_inbox`; the engine draws no random numbers.

A `Broadcast` carries a tuple of payloads, each to every process, and
stays one item from send to delivery, whoever sends it.
``ctx.broadcast(payload)`` builds a one-payload broadcast; the chain relay
(`authtools.relay_rounds`) sends all of a round's chains as one.  The
engine counts an honest broadcast as n-1 messages per payload and puts one
shared ``(sender, payload)`` pair per payload into every inbox of the
sender's tag instead of a tuple per receiver.  A strategy's broadcast, a
shadow's passed on or one that `adversaries._rewrite` keeps whole, is
delivered the same way.  Every inbox still holds the same
messages in the same order as if each broadcast had been n separate pairs
per payload, payload by payload.

The receivers of one tag without per-receiver traffic, honest or member,
share one read-only inbox per round: the engine fills one list per tag,
and a receiver forks its own copy only at the first targeted pair
delivered to it, after which later broadcasts extend both.  Every inbox is
handed over as a tuple, so no process can change what its peers see.  A
member's inbox passes through the strategy's `filter_member_inbox`, and
its shadow steps on exactly what that returns: a shadow whose strategy
passes its inbox through shares it with its tag-mates.  Protocol code that
derives something from an inbox alone computes it once per inbox object
through `ProcessContext.per_inbox`, a memo the engine clears at the start
of every round's delivery.

Processes report through one dict, the execution's trace dict: honest ones
write ``ctx.shared`` and it becomes `ExecutionResult.trace`, the one report
read beside the engine's own counts (a shadow's writes are thrown away).
A protocol asserts a runtime property with ``ctx.check(name, ok,
detail)``; only failures are kept, as `ExecutionResult.check_failures`,
and a passing check leaves no trace.

Most rounds carry no traffic at all (a protocol idling out its round
budget).  The engine keeps the alive processes in one pid-ordered table,
pruned only when one returns or its shadow raises, and gathers the next
round's items as it resumes them.  A round in which no item holds a send
builds no delivery structures: every process resumes on the one empty
tuple (a member's through `filter_member_inbox`), and a member idling on
under one tag hands `emit` the same idle item.  A shadow that raises falls
silent and is counted, by exception type, in `ExecutionResult.shadow_crashes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import predictions
from .errors import ConfigurationError, ProtocolViolation
from .scenario import Scenario
from .signatures import SignOracle, SimTokenScheme

# Hard cap on rounds per execution; hitting it means a protocol bug.
MAX_ROUNDS = 200_000

# (receiver, payload) as a process yields it; a send item on the wire is
# (sender, tag, sends), with sends a Broadcast or a list of Sends.
Send = Tuple[int, Any]
Item = Tuple[int, str, Any]

_PROTOCOLS: Dict[str, Callable] = {}


def register_protocol(name: str):
    """Class/function decorator registering a protocol factory under `name`.

    A factory is called as ``factory(ctx, scenario, params)`` and must
    return the per-process generator.
    """

    def deco(fn):
        _PROTOCOLS[name] = fn
        return fn

    return deco


def protocol_names() -> List[str]:
    return sorted(_PROTOCOLS)


class OracleCheck(NamedTuple):
    """A runtime property assertion that failed."""

    name: str
    detail: str


class ProcessContext:
    """Per-process view handed to protocol generators.  ``tag`` is the
    protocol tag the process sends and receives under, the one it last set:
    `enter` joins a sub-tag onto it, and the caller restores it.  ``shared``
    is the execution's trace dict, its one report (a throwaway dict for a
    shadow)."""

    __slots__ = (
        "pid",
        "n",
        "t",
        "variant",
        "scenario",
        "tag",
        "rounds_used",
        "signer",
        "_failures",
        "shared",
        "memo",
        "round_memo",
    )

    def __init__(self, pid, scenario, signer, failures, shared, memo, round_memo):
        self.pid = pid
        self.n = scenario.n
        self.t = scenario.t
        self.variant = scenario.variant
        self.scenario = scenario
        self.tag = ""
        self.rounds_used = 0
        self.signer = signer
        self._failures = failures  # the execution's failed checks; a throwaway list for a shadow
        self.shared = shared  # the execution's trace dict; honest writers only
        self.memo = memo  # execution-wide cache for pure derivations
        self.round_memo = round_memo  # per-inbox results; the engine clears it every round

    def enter(self, name: str) -> str:
        """Move to the sub-tag `name` of the current tag, ``outer/name``
        (`name` itself at the top), and return the current tag, which the
        caller assigns back to ``ctx.tag`` when its block ends.  This is the
        one place the tag-join rule lives."""
        outer = self.tag
        self.tag = f"{outer}/{name}" if outer else name
        return outer

    def broadcast(self, payload) -> "Broadcast":
        """One copy per process, self included (self-delivery is free)."""
        return Broadcast((payload,), self.n)

    def per_inbox(self, inbox, key, compute):
        """``compute(inbox)``, computed once per inbox object and `key` in
        this round and shared by every receiver of that object.

        `compute` may depend on the inbox, on what `key` names and on the
        execution's constants (n, t, the value domain, the fault set), but
        on nothing a receiver holds alone.  The entry holds the inbox, so
        its id is not reused while the entry lives, and the engine clears
        the memo at the start of every round's delivery."""
        slot = (id(inbox), key)
        hit = self.round_memo.get(slot)
        if hit is None:
            hit = self.round_memo[slot] = (inbox, compute(inbox))
        return hit[1]

    def idle(self, rounds: int):
        for _ in range(rounds):
            yield []

    def check(self, name: str, ok: bool, detail: str = ""):
        """Keep a failed assertion; a passing one leaves no trace."""
        if not ok:
            self._failures.append(OracleCheck(name, f"p{self.pid}: {detail}"))


class Broadcast:
    """Each of the tuple `payloads` to every process 1..n, as one send.

    It behaves as the read-only sequence of its ``(receiver, payload)``
    pairs, payload by payload, which are only built if someone iterates
    it; the engine recognises it and delivers each payload by reference.
    """

    __slots__ = ("payloads", "n")

    def __init__(self, payloads: Tuple[Any, ...], n: int):
        self.payloads = payloads
        self.n = n

    def __len__(self) -> int:
        return self.n * len(self.payloads)

    def __iter__(self):
        receivers = range(1, self.n + 1)
        return ((r, payload) for payload in self.payloads for r in receivers)


@dataclass
class ExecutionResult:
    """Outcome of one deterministic execution."""

    scenario: Scenario
    protocol: str
    decisions: Dict[int, Any]
    rounds_elapsed: int
    honest_messages_total: int
    honest_messages_by_protocol: Dict[str, int]
    trace: Dict[str, Any]  # the trace dict the honest processes wrote
    check_failures: List[OracleCheck]
    shadow_crashes: Dict[str, int]  # exception type name -> shadows it ended; not recorded


def _checked(sender: int, sends, receivers: range) -> Tuple[Any, int]:
    """Return `sends` as a `Broadcast` or a list of ``(receiver, payload)``
    pairs, with the number of messages it holds for processes other than
    `sender`.  A malformed send or a receiver outside `receivers` raises
    `ProtocolViolation` naming `sender`."""
    if type(sends) is Broadcast:
        return sends, (sends.n - 1) * len(sends.payloads)
    try:
        pairs = sends if type(sends) is list else list(sends)
    except TypeError:
        raise ProtocolViolation(f"process {sender} produced a malformed send: {sends!r}")
    sent = 0
    for item in pairs:
        try:
            rcv, _payload = item
        except (TypeError, ValueError):
            raise ProtocolViolation(f"process {sender} produced a malformed send: {item!r}")
        if rcv not in receivers:
            raise ProtocolViolation(f"process {sender} addressed unknown receiver {rcv!r}")
        if rcv != sender:
            sent += 1
    return pairs, sent


def run_execution(
    scenario: Scenario,
    protocol: str,
    params: Optional[Dict[str, Any]] = None,
) -> ExecutionResult:
    """Drive one execution to completion; the result is a pure function of
    (scenario, protocol, params)."""
    if protocol not in _PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {', '.join(protocol_names())}"
        )
    params = dict(params or {})
    factory = _PROTOCOLS[protocol]

    scheme = SimTokenScheme(scenario.seed)
    check_failures: List[OracleCheck] = []
    shared_trace: Dict[str, Any] = {}

    pred_vectors, pred_report = predictions.generate_predictions(
        scenario.n, scenario.fault_set, scenario.error_budget, scenario.error_allocation
    )
    shared_trace["predictions"] = pred_vectors
    shared_trace["prediction_report"] = {
        "faulty_as_honest": pred_report.faulty_as_honest,
        "honest_as_faulty": pred_report.honest_as_faulty,
        "total": pred_report.total,
    }

    from .adversaries import make_strategy  # late import; adversaries imports engine types

    strategy = make_strategy(scenario.adversary)
    strategy.prepare(scenario)

    shared_memo: Dict[Any, Any] = {}  # cross-process cache for pure derivations
    round_memo: Dict[Any, Any] = {}  # per-inbox results of the current round
    # The alive processes in pid order: [pid, ctx, bound generator send (None
    # once it left), member flag, the member's last idle item (at first untagged)].
    procs: List[list] = []
    for pid in range(1, scenario.n + 1):
        faulty = pid in scenario.fault_set
        # Shadows of faulty processes write to throwaway sinks: only honest
        # processes contribute failed checks and trace-dict sections.
        ctx = ProcessContext(pid, scenario, SignOracle(scheme, pid),
                             [] if faulty else check_failures, {} if faulty else shared_trace,
                             shared_memo, round_memo)
        value, prediction = scenario.input_of(pid), pred_vectors[pid]
        if faulty:
            value, prediction = strategy.member_program_inputs(pid, value, prediction)
        gen = factory(ctx, scenario, dict(params, input=value, prediction=prediction))
        procs.append([pid, ctx, gen.send, faulty, (pid, None, None)])

    adv_ctx = _AdversaryContext(scenario, scheme, {p[0]: p[1].signer for p in procs if p[3]})
    emit, filter_member_inbox = strategy.emit, strategy.filter_member_inbox
    decisions: Dict[int, Any] = {}
    finished_round: Dict[int, int] = {}
    shadow_crashes: Dict[str, int] = {}  # exception type name -> shadows it ended
    honest_left = len(scenario.honest)
    fault_set = scenario.fault_set
    receivers = range(1, scenario.n + 1)
    msg_counts: Dict[str, int] = {}

    # Round 0 is every process's first step, on no inbox.  Every later round
    # resumes each alive process once, in pid order, on its inbox: its entry
    # in `inboxes`, or the one empty tuple in a round without traffic.
    rnd = 0
    inboxes: Optional[Dict[int, Tuple[Send, ...]]] = None
    quiet_inbox: Optional[tuple] = None
    while True:
        honest_items: List[Item] = []  # the honest items that send, ascending pid
        shadow_items: List[Item] = []  # every alive member's item, ascending pid
        pruned = False
        for p in procs:
            pid, ctx, send, member, idle_item = p
            inbox = quiet_inbox if inboxes is None else inboxes[pid]
            if rnd:
                ctx.rounds_used += 1
                if member:
                    inbox = filter_member_inbox(pid, inbox, rnd)
            try:
                sends = send(inbox)
            except StopIteration as stop:
                p[2], pruned = None, True
                if not member:
                    decisions[pid] = stop.value
                    finished_round[pid] = rnd
                    honest_left -= 1
                continue
            except Exception as exc:
                if not member:
                    raise
                p[2], pruned = None, True  # crashed shadow: counted, silent from here on
                name = type(exc).__name__
                shadow_crashes[name] = shadow_crashes.get(name, 0) + 1
                continue
            if type(sends) is list and not sends:  # an idle step: nothing to check or count
                if member:
                    if idle_item[1] != ctx.tag:
                        idle_item = p[4] = (pid, ctx.tag, sends)
                    shadow_items.append(idle_item)
                continue
            tag = ctx.tag
            sends, sent = _checked(pid, sends, receivers)
            if member:
                shadow_items.append((pid, tag, sends))
            elif sends:
                honest_items.append((pid, tag, sends))
                if sent:
                    msg_counts[tag] = msg_counts.get(tag, 0) + sent
        if pruned:
            procs = [p for p in procs if p[2] is not None]
        if not honest_left:
            break

        rnd += 1
        if rnd > MAX_ROUNDS:
            raise ProtocolViolation(f"execution exceeded {MAX_ROUNDS} rounds")
        faulty_items: List[Item] = []
        for item in emit(rnd, honest_items, shadow_items, adv_ctx):
            try:
                sender, tag, sends = item
            except (TypeError, ValueError):
                raise ProtocolViolation(f"adversary produced a malformed send item: {item!r}")
            if sender not in fault_set:
                raise ProtocolViolation(f"adversary tried to send as honest process {sender!r}")
            if type(sends) is list and not sends:
                continue
            faulty_items.append((sender, tag, _checked(sender, sends, receivers)[0]))

        # Delivery order: honest items in ascending pid, then faulty items
        # in strategy order.  Every alive receiver, honest or member, takes
        # (sender, payload) in its own tag and nothing of any other tag, in
        # this order.  The receivers of one tag share one list until a
        # targeted pair reaches one of them, which then forks its own copy;
        # a broadcast extends its tag's list and that tag's forks.  A round
        # without items builds none of this: every inbox is the empty tuple.
        round_memo.clear()
        if not (honest_items or faulty_items):
            inboxes, quiet_inbox = None, ()
            continue
        want = {p[0]: p[1].tag for p in procs}
        groups: Dict[str, List[Send]] = {tag: [] for tag in want.values()}
        forks: Dict[int, List[Send]] = {}  # receiver -> its own list
        forked: Dict[str, List[List[Send]]] = {}  # tag -> the forks of that tag
        for sender, tag, sends in chain(honest_items, faulty_items):
            if type(sends) is Broadcast:
                box = groups.get(tag)
                if box is not None:
                    own_boxes = forked.get(tag, ())
                    for payload in sends.payloads:
                        pair = (sender, payload)
                        box.append(pair)
                        for own in own_boxes:
                            own.append(pair)
                continue
            for rcv, payload in sends:
                if want.get(rcv) == tag:
                    box = forks.get(rcv)
                    if box is None:
                        box = forks[rcv] = list(groups[tag])
                        forked.setdefault(tag, []).append(box)
                    box.append((sender, payload))
        shared = {tag: tuple(box) for tag, box in groups.items()}
        inboxes = {}
        for pid, tag in want.items():
            own = forks.get(pid)
            inboxes[pid] = shared[tag] if own is None else tuple(own)

    return ExecutionResult(
        scenario=scenario, protocol=protocol, decisions=decisions,
        rounds_elapsed=max(finished_round.values(), default=0),
        honest_messages_total=sum(msg_counts.values()), honest_messages_by_protocol=msg_counts,
        trace=shared_trace, check_failures=check_failures, shadow_crashes=shadow_crashes,
    )


class _AdversaryContext:
    """What a strategy is allowed to see and do."""

    def __init__(self, scenario: Scenario, scheme, signers: Dict[int, SignOracle]):
        self.n = scenario.n
        self.t = scenario.t
        self.fault_set = scenario.fault_set
        self.truth = predictions.correct_classification(scenario.n, self.fault_set)
        self.complement = tuple(1 - b for b in self.truth)
        self.value_domain = scenario.value_domain
        self._scheme = scheme
        self._signers = signers  # member -> the SignOracle its shadow signs with
        self.memo: Dict[Any, Any] = {}

    def signer(self, member: int) -> SignOracle:
        """`member`'s `SignOracle`; an honest process has none here."""
        oracle = self._signers.get(member)
        if oracle is None:
            raise ProtocolViolation(f"adversary requested a signature of honest process {member}")
        return oracle

    def verify(self, sig, signer, content) -> bool:
        return self._scheme.verify(sig, signer, content)

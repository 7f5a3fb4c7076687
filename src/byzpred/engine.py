"""Deterministic synchronous round scheduler.

Processes are generator coroutines: each ``yield`` hands the engine the
list of ``(receiver, payload)`` pairs to transmit this round and resumes
with the ``(sender, payload)`` pairs addressed to the process in the same
round under its current protocol tag.  One yield == one communication
round.  A process sends under exactly one protocol tag per round, its
current ``ctx.tag``: the engine stamps the sender and that tag onto each
pair, and it also drops every message a receiver gets under another tag,
so protocol code never sees a tag.  Messages sent in round r are consumed
by the receiver's next computation step, so no round-r state ever depends
on a round-r message.

Faulty processes never run their own code on the network: the engine runs
"shadow" copies of the honest program for them (so strategies like
crash-at-round-r can replay honest behaviour), but everything they
transmit is produced by the adversary strategy, which sees the complete
honest round-r traffic before choosing the faulty round-r messages
(rushing adversary).  The strategy also sees each member's inbox as full
``(sender, tag, payload)`` entries before its shadow steps.

Message accounting counts envelopes with an honest sender and a receiver
other than the sender; self-delivery is instantaneous and free.  Inboxes
are shuffled by a seed-derived permutation per (round, receiver); protocol
code must not depend on inbox order.

An honest ``ctx.broadcast`` stays one entry from send to delivery: the
engine counts it as n-1 messages, hands the strategy a `RoundTraffic` that
holds it once, and puts one shared ``(sender, payload)`` pair into every
honest inbox instead of a tuple per receiver.  Every inbox still holds the
same messages in the same order as if the broadcast had been yielded as n
separate pairs and filtered by tag after the shuffle.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import predictions
from .errors import ConfigurationError, ProtocolViolation
from .scenario import AUTHENTICATED, Scenario
from .signatures import SignOracle, SimTokenScheme

# Hard cap on rounds per execution; hitting it means a protocol bug.
MAX_ROUNDS = 200_000

# (receiver, payload) before tagging; (sender, receiver, tag, payload) on the wire.
Send = Tuple[int, Any]
Envelope = Tuple[int, int, str, Any]

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
    """Outcome of one runtime property assertion."""

    name: str
    ok: bool
    detail: str


class ProcessContext:
    """Per-process view handed to protocol generators."""

    __slots__ = (
        "pid",
        "n",
        "t",
        "variant",
        "scenario",
        "tag",
        "_tag_stack",
        "rounds_used",
        "signer",
        "_trace",
        "_checks",
        "mutants",
        "shared",
        "memo",
    )

    def __init__(self, pid, scenario, signer, trace_sink, check_sink, mutants, shared, memo):
        self.pid = pid
        self.n = scenario.n
        self.t = scenario.t
        self.variant = scenario.variant
        self.scenario = scenario
        self.tag = ""
        self._tag_stack: List[str] = []
        self.rounds_used = 0
        self.signer = signer
        self._trace = trace_sink
        self._checks = check_sink
        self.mutants = mutants
        self.shared = shared  # execution-wide trace dict; honest writers only
        self.memo = memo  # execution-wide cache for pure validation results

    @contextmanager
    def scope(self, name: str):
        self._tag_stack.append(name)
        self.tag = "/".join(self._tag_stack)
        try:
            yield self.tag
        finally:
            self._tag_stack.pop()
            self.tag = "/".join(self._tag_stack)

    def broadcast(self, payload) -> "Broadcast":
        """One copy per process, self included (self-delivery is free)."""
        return Broadcast(payload, self.n)

    def round(self, sends: List[Send]):
        """Perform one communication round; returns [(sender, payload)]
        for the messages sent to this process under its current tag.

        `sends` holds (receiver, payload) pairs, or is a `broadcast`, and is
        yielded as is; the engine stamps each with this process's id and
        current tag, so every message of a process in one round carries the
        same tag.  The engine also filters the inbox by the receiver's tag,
        so the inbox comes back as delivered."""
        inbox = yield sends
        self.rounds_used += 1
        return inbox

    def idle(self, rounds: int):
        for _ in range(rounds):
            yield []
            self.rounds_used += 1

    def exact_rounds(self, budget: int, inner):
        """Run `inner`, then idle so exactly `budget` rounds are consumed."""
        start = self.rounds_used
        value = yield from inner
        used = self.rounds_used - start
        if used > budget:
            raise ProtocolViolation(
                f"process {self.pid}: sub-protocol used {used} rounds, budget {budget}"
            )
        yield from self.idle(budget - used)
        return value

    def check(self, name: str, ok: bool, detail: str = ""):
        if self._checks is not None:
            if ok:
                self._checks.record_pass(name)
            else:
                self._checks.record_fail(OracleCheck(name, False, f"p{self.pid}: {detail}"))

    def trace(self, kind: str, **fields):
        if self._trace is not None:
            fields["pid"] = self.pid
            fields["kind"] = kind
            self._trace.append(fields)


class Broadcast:
    """`payload` to every process 1..n, as one send.

    It behaves as the read-only sequence of its ``(receiver, payload)``
    pairs, which are only built if someone iterates it; the engine
    recognises it and delivers the payload by reference.
    """

    __slots__ = ("payload", "n")

    def __init__(self, payload, n: int):
        self.payload = payload
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        payload = self.payload
        return ((r, payload) for r in range(1, self.n + 1))


class RoundTraffic:
    """The honest envelopes of one round, held as one item per sender.

    An item is a broadcast's ``(sender, tag, payload)`` entry or a targeted
    sender's list of ``(sender, receiver, tag, payload)`` envelopes, in
    ascending sender order.  Iterating yields every envelope, a broadcast as
    one envelope per receiver 1..n, so it is the round's full envelope list;
    `entries` yields each send once as ``(sender, tag, payload)``, and
    `tags` is the set of tags the honest senders used.
    """

    __slots__ = ("items", "n", "tags")

    def __init__(self, items: List[Any], n: int):
        self.items = items
        self.n = n
        self.tags = {item[1] if type(item) is tuple else item[0][2] for item in items}

    def __iter__(self):
        receivers = range(1, self.n + 1)
        for item in self.items:
            if type(item) is tuple:
                sender, tag, payload = item
                for rcv in receivers:
                    yield (sender, rcv, tag, payload)
            else:
                yield from item

    def entries(self):
        """Each broadcast once and each targeted envelope without its
        receiver, as ``(sender, tag, payload)``, in envelope order."""
        for item in self.items:
            if type(item) is tuple:
                yield item
            else:
                for sender, _rcv, tag, payload in item:
                    yield (sender, tag, payload)


class _CheckSink:
    """Aggregates runtime assertions: per-name pass counts plus failures."""

    def __init__(self):
        self.passes: Dict[str, int] = {}
        self.failures: List[OracleCheck] = []

    def record_pass(self, name):
        self.passes[name] = self.passes.get(name, 0) + 1

    def record_fail(self, check):
        self.failures.append(check)


class MessageCount(NamedTuple):
    count: int
    tag_present: bool


@dataclass
class ExecutionResult:
    """Outcome of one deterministic execution."""

    scenario: Scenario
    protocol: str
    params: Dict[str, Any]
    decisions: Dict[int, Any]
    rounds_elapsed: int
    honest_messages_total: int
    honest_messages_by_protocol: Dict[str, int]
    honest_messages_by_sender: Dict[str, Dict[int, int]]
    per_phase_trace: List[Dict[str, Any]]
    trace: Dict[str, Any]
    check_passes: Dict[str, int]
    check_failures: List[OracleCheck]
    alpha: Optional[int] = None

    def honest_message_count(self, tag: str) -> MessageCount:
        """Messages sent by honest processes under `tag` or any sub-tag.

        An unknown tag yields a zero count with tag_present == False rather
        than an error.
        """
        total = 0
        present = False
        prefix = tag + "/"
        for key, cnt in self.honest_messages_by_protocol.items():
            if key == tag or key.startswith(prefix):
                total += cnt
                present = True
        return MessageCount(total, present)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_json_dict(),
            "protocol": self.protocol,
            "params": _jsonable(self.params),
            "decisions": {str(k): _jsonable(v) for k, v in sorted(self.decisions.items())},
            "rounds_elapsed": self.rounds_elapsed,
            "honest_messages_total": self.honest_messages_total,
            "honest_messages_by_protocol": dict(sorted(self.honest_messages_by_protocol.items())),
            "honest_messages_by_sender": _jsonable(self.honest_messages_by_sender),
            "per_phase_trace": _jsonable(self.per_phase_trace),
            "trace": _jsonable(self.trace),
            "check_passes": dict(sorted(self.check_passes.items())),
            "check_failures": [list(c) for c in self.check_failures],
            "alpha": self.alpha,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(_jsonable(v) for v in obj)
    if obj is None or isinstance(obj, (int, float, str, bool)):
        return obj
    return repr(obj)


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle `x` in place exactly as ``Random.shuffle`` does when
    `getrandbits` is that generator's method: the same Fisher-Yates walk
    and the same rejection loop as ``Random._randbelow_with_getrandbits``,
    without two Python method calls per element."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def run_execution(
    scenario: Scenario,
    protocol: str,
    params: Optional[Dict[str, Any]] = None,
    mutants: Tuple[str, ...] = (),
    _shuffle_salt: Optional[int] = None,
) -> ExecutionResult:
    """Drive one execution to completion.

    The result is a pure function of (scenario, protocol, params, mutants);
    `_shuffle_salt` only perturbs inbox ordering and exists for the
    metamorphic order-independence test.
    """
    if protocol not in _PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {', '.join(protocol_names())}"
        )
    params = dict(params or {})
    factory = _PROTOCOLS[protocol]
    salt = scenario.seed if _shuffle_salt is None else _shuffle_salt

    scheme = SimTokenScheme(scenario.seed)
    trace_sink: List[Dict[str, Any]] = []
    checks = _CheckSink()
    shared_trace: Dict[str, Any] = {}

    pred_vectors, pred_report = predictions.generate_predictions(
        scenario.n, set(scenario.fault_set), scenario.error_budget, scenario.error_allocation
    )
    if pred_report.total != scenario.error_budget:
        shared_trace["error_budget_shortfall"] = {
            "requested": scenario.error_budget,
            "realized": pred_report.total,
        }
    shared_trace["predictions"] = {i: predictions.bits_to_string(v) for i, v in pred_vectors.items()}
    shared_trace["prediction_report"] = {
        "faulty_as_honest": pred_report.faulty_as_honest,
        "honest_as_faulty": pred_report.honest_as_faulty,
        "total": pred_report.total,
    }

    from .adversaries import make_strategy  # late import; adversaries imports engine types

    strategy = make_strategy(scenario.adversary)
    strategy.prepare(scenario)

    shared_memo: Dict[Any, Any] = {}  # cross-process cache for pure validation results
    ctxs: Dict[int, ProcessContext] = {}
    gens: Dict[int, Any] = {}
    for pid in range(1, scenario.n + 1):
        faulty = pid in scenario.fault_set
        signer = SignOracle(scheme, pid)
        # Shadows of faulty processes write to throwaway sinks: only honest
        # processes contribute traces, checks, and shared-trace sections.
        ctx = ProcessContext(
            pid,
            scenario,
            signer,
            [] if faulty else trace_sink,
            None if faulty else checks,
            mutants,
            {} if faulty else shared_trace,
            shared_memo,
        )
        ctxs[pid] = ctx
        value, prediction = scenario.input_of(pid), pred_vectors[pid]
        if faulty:
            value, prediction = strategy.member_program_inputs(pid, value, prediction)
        gens[pid] = factory(ctx, scenario, dict(params, input=value, prediction=prediction))

    adv_ctx = _AdversaryContext(scenario, scheme, pred_vectors)

    decisions: Dict[int, Any] = {}
    finished_round: Dict[int, int] = {}
    # A RoundTraffic item per honest sender; envelope lists for shadows.
    outs: Dict[int, Any] = {}
    alive = set(range(1, scenario.n + 1))
    honest = set(scenario.honest)
    n = scenario.n
    receivers = range(1, n + 1)
    msg_counts: Dict[str, int] = {}
    sender_counts: Dict[str, Dict[int, int]] = {}

    def step(pid: int, inbox):
        gen = gens[pid]
        try:
            sends = gen.send(inbox)
        except StopIteration as stop:
            alive.discard(pid)
            outs.pop(pid, None)
            if pid in honest:
                decisions[pid] = stop.value
                finished_round[pid] = rnd
            return
        except Exception:
            if pid in honest:
                raise
            alive.discard(pid)  # crashed shadow: silent from here on
            outs.pop(pid, None)
            return
        tag = ctxs[pid].tag
        if type(sends) is Broadcast:
            payload = sends.payload
            if pid in honest:
                outs[pid] = (pid, tag, payload)
            else:
                outs[pid] = [(pid, rcv, tag, payload) for rcv in receivers]
            sent = n - 1
        else:
            envs = []
            own = 0
            for item in sends:
                try:
                    rcv, payload = item
                except (TypeError, ValueError):
                    raise ProtocolViolation(f"process {pid} produced a malformed send: {item!r}")
                if not (1 <= rcv <= n):
                    raise ProtocolViolation(f"process {pid} addressed unknown receiver {rcv}")
                if rcv == pid:
                    own += 1
                envs.append((pid, rcv, tag, payload))
            outs[pid] = envs
            sent = len(envs) - own
        if sent and pid in honest:
            msg_counts[tag] = msg_counts.get(tag, 0) + sent
            per_sender = sender_counts.setdefault(tag, {})
            per_sender[pid] = per_sender.get(pid, 0) + sent

    # One generator, reseeded per (round, receiver), draws every inbox
    # permutation: the same permutations as a fresh Random(seed).shuffle.
    shuffle_rng = random.Random()
    reseed, getrandbits = shuffle_rng.seed, shuffle_rng.getrandbits

    rnd = 0
    for pid in sorted(gens):
        step(pid, None)

    while honest & alive:
        rnd += 1
        if rnd > MAX_ROUNDS:
            raise ProtocolViolation(f"execution exceeded {MAX_ROUNDS} rounds")
        items: List[Any] = []
        shadow_sends: Dict[int, List[Envelope]] = {}
        for pid in sorted(outs):
            if pid in honest:
                if outs[pid]:
                    items.append(outs[pid])
            else:
                shadow_sends[pid] = outs[pid]
        faulty_traffic = strategy.emit(rnd, RoundTraffic(items, n), shadow_sends, adv_ctx)
        for env in faulty_traffic:
            if env[0] not in scenario.fault_set:
                raise ProtocolViolation(
                    f"adversary tried to send as honest process {env[0]}"
                )
            if not (1 <= env[1] <= n):
                raise ProtocolViolation(f"adversary receiver out of range: {env[1]}")

        # Honest senders in ascending pid, then faulty traffic in strategy
        # order.  An honest receiver takes (sender, payload) in its own tag
        # and a None placeholder for any other tag, so the shuffle sees the
        # old inbox length; a member takes full (sender, tag, payload)
        # entries.  A run of consecutive broadcasters reaches every inbox of
        # one receiver tag with one extend per inbox.
        inboxes: Dict[int, List[Any]] = {pid: [] for pid in alive}
        want = {pid: ctxs[pid].tag for pid in alive if pid in honest}
        groups: Dict[str, List[int]] = {}
        for pid, tag in want.items():
            groups.setdefault(tag, []).append(pid)
        member_boxes = [inboxes[pid] for pid in alive if pid not in honest]
        holey = set()  # honest receivers holding a placeholder

        def flush(run):
            pairs = [(sender, payload) for sender, _tag, payload in run]
            run_tags = {entry[1] for entry in run}
            for tag, pids in groups.items():
                if run_tags == {tag}:
                    seq = pairs
                else:
                    seq = [pair if entry[1] == tag else None for pair, entry in zip(pairs, run)]
                    holey.update(pids)
                for pid in pids:
                    inboxes[pid].extend(seq)
            for box in member_boxes:
                box.extend(run)

        def deliver(envs):
            for sender, rcv, tag, payload in envs:
                box = inboxes.get(rcv)
                if box is None:
                    continue
                rtag = want.get(rcv)
                if rtag is None:
                    box.append((sender, tag, payload))
                elif rtag == tag:
                    box.append((sender, payload))
                else:
                    box.append(None)
                    holey.add(rcv)

        run: List[Tuple[int, str, Any]] = []
        for item in items:
            if type(item) is tuple:
                run.append(item)
                continue
            if run:
                flush(run)
                run = []
            deliver(item)
        if run:
            flush(run)
        deliver(faulty_traffic)

        seed_base = (salt * 1_000_003 + rnd) * 1_000_003
        for pid in sorted(alive):
            inbox = inboxes[pid]
            if len(inbox) > 1:
                reseed((seed_base + pid) & 0xFFFFFFFFFFFFFFFF)
                _shuffle(inbox, getrandbits)
            if pid in scenario.fault_set:
                inbox = strategy.filter_member_inbox(pid, inbox, rnd)
                adv_ctx.observe_member_inbox(pid, rnd, inbox)
                tag = ctxs[pid].tag
                inbox = [(sender, payload) for sender, mtag, payload in inbox if mtag == tag]
            elif pid in holey:
                inbox = [pair for pair in inbox if pair is not None]
            step(pid, inbox)

    rounds_elapsed = max(finished_round.values(), default=0)
    return ExecutionResult(
        scenario=scenario,
        protocol=protocol,
        params={k: v for k, v in params.items() if k not in ("input", "prediction")},
        decisions=decisions,
        rounds_elapsed=rounds_elapsed,
        honest_messages_total=sum(msg_counts.values()),
        honest_messages_by_protocol=msg_counts,
        honest_messages_by_sender=sender_counts,
        per_phase_trace=[e for e in trace_sink if e.get("kind") == "phase"],
        trace=shared_trace,
        check_passes=checks.passes,
        check_failures=checks.failures,
        alpha=shared_trace.get("alpha"),
    )


class _AdversaryContext:
    """What a strategy is allowed to see and do."""

    def __init__(self, scenario: Scenario, scheme, pred_vectors):
        self.scenario = scenario
        self.n = scenario.n
        self.t = scenario.t
        self.fault_set = set(scenario.fault_set)
        self.truth = predictions.correct_classification(scenario.n, self.fault_set)
        self.complement = tuple(1 - b for b in self.truth)
        self.value_domain = scenario.value_domain
        self.predictions = pred_vectors
        self.rng = random.Random(scenario.seed ^ 0xADE5A11)
        self._scheme = scheme
        self.memo: Dict[Any, Any] = {}
        self.member_inboxes: Dict[int, List[Tuple[int, List]]] = {m: [] for m in self.fault_set}

    def sign_as(self, member: int, content) -> Any:
        if member not in self.fault_set:
            raise ProtocolViolation(f"adversary requested a signature of honest process {member}")
        return self._scheme.sign(member, content)

    def verify(self, sig, signer, content) -> bool:
        return self._scheme.verify(sig, signer, content)

    def observe_member_inbox(self, member, rnd, inbox):
        self.member_inboxes[member].append((rnd, inbox))

"""Outside-in tracing of one byzpred execution, layer by layer.

`Tracer.installed()` wraps the public functions of each byzpred module at
every name they are bound under, records a span around each call, and
restores the originals on exit.  Nothing inside the package changes; the
wrappers only time calls and count them, so a traced execution produces the
same record bytes as an untraced one (the benchmark checks this).

A span's self time is its duration minus the durations of the spans nested
directly inside it, so the self times of all spans add up to the traced wall
time without double counting.  Spans are aggregated in memory per name
(calls and self seconds) rather than kept one by one: one catalog-sweep
pass makes about 10^6 spans.

Protocol generators are wrapped in a proxy whose `send` is one protocol step.
A step is named by the protocol tag the process is in when the step starts
(or, for the first step, when it ends), folded to its top-level scope with
the wrapper's phase prefix dropped: ``ph3/cond/w1/gca`` counts as ``cond``.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Tuple

from byzpred import adversaries, authtools, blocks, engine, harness, predictions, signatures

# Top-level scopes of the ba-with-predictions wrapper, in execution order.
TAGS = ("classify", "gc1", "es", "gc2", "cond", "gc3")

_PHASE = re.compile(r"ph\d+$")


def fold_tag(tag: str) -> str:
    parts = tag.split("/")
    if _PHASE.match(parts[0]):
        parts = parts[1:]
    return parts[0] if parts else ""


class Tracer:
    """Span and counter sink for one traced pass."""

    def __init__(self):
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, self seconds]
        self.counters: Dict[str, int] = {}
        self.rounds_by_tag: Dict[str, int] = {}
        self._stack: List[List[float]] = []  # child seconds of each open span
        self._folded: Dict[str, str] = {}
        self._execution: List["_StepProxy"] = []

    # -- spans -------------------------------------------------------------
    def _stat(self, name: str) -> List[float]:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0]
        return stat

    def _close(self, name: str, frame: List[float], duration: float):
        stack = self._stack
        stack.pop()
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += duration - frame[0]
        if stack:
            stack[-1][0] += duration

    def wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """`fn` with a span `name` around each call; `after(args, result)`
        runs outside the span."""
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, clock() - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: int):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def fold(self, tag: str) -> str:
        folded = self._folded.get(tag)
        if folded is None:
            folded = self._folded[tag] = fold_tag(tag)
        return folded

    # -- per-execution bookkeeping -----------------------------------------
    def _run_execution(self, fn: Callable) -> Callable:
        timed = self.wrap("engine", fn)

        def run_execution(*args, **kwargs):
            self._execution = []
            result = timed(*args, **kwargs)
            self._close_execution()
            return result

        return run_execution

    def _close_execution(self):
        # The honest process that finished last stepped once per elapsed
        # round, so its per-tag step counts split rounds_elapsed by tag.
        last = max(
            (p for p in self._execution if p.honest),
            key=lambda p: (sum(p.rounds.values()), -p.pid),
            default=None,
        )
        if last is not None:
            for tag, rounds in last.rounds.items():
                self.rounds_by_tag[tag] = self.rounds_by_tag.get(tag, 0) + rounds
        self._execution = []

    def _protocol_factory(self, factory: Callable) -> Callable:
        def traced_factory(ctx, scenario, params):
            proxy = _StepProxy(self, factory(ctx, scenario, params), ctx)
            self._execution.append(proxy)
            return proxy

        return traced_factory

    def _strategy_factory(self, make_strategy: Callable) -> Callable:
        def traced_make_strategy(spec):
            strategy = make_strategy(spec)
            strategy.emit = self.wrap(
                "adversaries.emit",
                strategy.emit,
                after=lambda _args, out: self.count("adversaries.faulty_envelopes", len(out)),
            )
            return strategy

        return traced_make_strategy

    def _chain_seen(self, args, _result):
        chain = args[1]
        if isinstance(chain, authtools.MessageChain):
            self.maximum("authtools.max_chain_len", len(chain))

    # -- installation --------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every traced binding site; restore the originals on exit."""
        saved: List[Tuple[Any, str, Any]] = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        digest = self.wrap("signatures.digest", signatures.digest)
        extend_chain = self.wrap("authtools.extend_chain", authtools.extend_chain)
        patch(signatures, "digest", digest)
        patch(blocks, "digest", digest)
        patch(authtools, "extend_chain", extend_chain)
        patch(adversaries, "extend_chain", extend_chain)
        scheme = signatures.SimTokenScheme
        patch(scheme, "sign", self.wrap("signatures.sign", scheme.sign))
        patch(scheme, "verify", self.wrap("signatures.verify", scheme.verify))
        validator = authtools.ChainValidator
        patch(validator, "chain_ok",
              self.wrap("authtools.chain_ok", validator.chain_ok, after=self._chain_seen))
        patch(validator, "certificate_ok",
              self.wrap("authtools.certificate_ok", validator.certificate_ok))
        patch(adversaries, "make_strategy", self._strategy_factory(adversaries.make_strategy))
        for name in ("tally_classification", "generate_predictions"):
            patch(predictions, name, self.wrap(f"predictions.{name}", getattr(predictions, name)))
        patch(harness, "run_execution", self._run_execution(harness.run_execution))
        patch(harness, "verify_execution",
              self.wrap("verify.verify_execution", harness.verify_execution))
        patch(harness, "run_point", self.wrap("harness.run_point", harness.run_point))
        patch(harness, "record_bytes", self.wrap("harness.record_bytes", harness.record_bytes))
        factories = {name: engine._PROTOCOLS[name] for name in engine.protocol_names()}
        for name, factory in factories.items():
            engine.register_protocol(name)(self._protocol_factory(factory))
        try:
            yield self
        finally:
            for name, factory in factories.items():
                engine.register_protocol(name)(factory)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _StepProxy:
    """Generator stand-in: times each `send` as one protocol step."""

    __slots__ = ("tracer", "gen", "ctx", "pid", "honest", "rounds")

    def __init__(self, tracer: Tracer, gen, ctx):
        self.tracer = tracer
        self.gen = gen
        self.ctx = ctx
        self.pid = ctx.pid
        self.honest = ctx.pid not in ctx.scenario.fault_set
        self.rounds: Dict[str, int] = {}

    def send(self, inbox):
        tracer = self.tracer
        tag = tracer.fold(self.ctx.tag)
        frame = [0.0]
        tracer._stack.append(frame)
        start = time.perf_counter()
        sends = None
        try:
            sends = self.gen.send(inbox)
            return sends
        finally:
            duration = time.perf_counter() - start
            if not tag:
                tag = tracer.fold(self.ctx.tag)
            tracer._close(f"protocol.{tag}", frame, duration)
            tracer.count("engine.steps")
            if sends is not None and not sends:
                tracer.count("engine.idle_steps")
            if inbox is not None and self.honest:
                self.rounds[tag] = self.rounds.get(tag, 0) + 1

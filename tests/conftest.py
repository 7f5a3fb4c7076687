"""Shared test fixtures."""

from contextlib import contextmanager

import pytest

from byzpred import engine


class _Delivered:
    """Generator stand-in for one process: hands every inbox the engine
    delivers to ``callback(ctx, inbox)`` and resumes the protocol on what
    that returns."""

    __slots__ = ("gen", "ctx", "callback")

    def __init__(self, gen, ctx, callback):
        self.gen = gen
        self.ctx = ctx
        self.callback = callback

    def send(self, inbox):
        if inbox is not None:
            inbox = self.callback(self.ctx, inbox)
        return self.gen.send(inbox)


@pytest.fixture
def delivered_through(monkeypatch):
    """A context manager ``delivered_through(callback)``: inside it, every
    registered protocol, honest process or shadow, steps on
    ``callback(ctx, inbox)`` for each inbox the engine delivers to it, idle
    rounds included.  The callback runs with the process still at the tag it
    received under."""

    @contextmanager
    def install(callback):
        with monkeypatch.context() as patch:
            for name, factory in list(engine._PROTOCOLS.items()):

                def delivered(ctx, scenario, params, factory=factory):
                    return _Delivered(factory(ctx, scenario, params), ctx, callback)

                patch.setitem(engine._PROTOCOLS, name, delivered)
            yield

    return install


@pytest.fixture
def messages_sent(monkeypatch):
    """Per-sender message counts, one dict per execution the test runs, in
    run order (an execution that never sends adds none).

    It wraps `engine._checked`, which the engine looks up at call time for
    every send that is not idle, honest or faulty (a shadow's sends and the
    adversary's items alike), and which returns the number of messages the
    send holds for processes other than its sender.  Each execution checks
    against its own ``receivers`` range, which tells executions apart."""
    executions = []
    checked = engine._checked
    last_receivers = None

    def counting(sender, sends, receivers):
        nonlocal last_receivers
        out = checked(sender, sends, receivers)
        if receivers is not last_receivers:
            last_receivers = receivers
            executions.append({})
        counts = executions[-1]
        counts[sender] = counts.get(sender, 0) + out[1]
        return out

    monkeypatch.setattr(engine, "_checked", counting)
    return executions

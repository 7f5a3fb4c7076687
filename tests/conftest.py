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

"""Byzantine agreement with classification predictions.

Protocol library and deterministic synchronous-round simulator: the
classification vote, graded consensus with core set, conciliation,
conditional unauthenticated/authenticated BA, broadcast with an implicit
committee, and the guess-and-double wrapper, plus an adversary catalog
and an experiment harness.
"""

from . import adversaries, agreement, authtools, blocks  # registers protocols
from .engine import ExecutionResult, protocol_names, run_execution
from .scenario import AdversarySpec, Scenario

__all__ = [
    "AdversarySpec",
    "ExecutionResult",
    "Scenario",
    "protocol_names",
    "run_execution",
]

__version__ = "0.1.0"

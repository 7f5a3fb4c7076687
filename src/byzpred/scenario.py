"""Scenario description: one fully-specified execution of a protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Tuple

from .errors import ConfigurationError

UNAUTHENTICATED = "unauthenticated"
AUTHENTICATED = "authenticated"
VARIANTS = (UNAUTHENTICATED, AUTHENTICATED)


@dataclass(frozen=True)
class AdversarySpec:
    """Strategy identifier plus its parameter block."""

    name: str = "silent"
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, params: Mapping[str, Any] | None = None) -> "AdversarySpec":
        items = tuple(sorted((params or {}).items()))
        return cls(name=name, params=items)

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one execution deterministically.

    Construction raises `ConfigurationError` on anything infeasible, among
    it a t over the variant's resilience bound: unauthenticated needs
    3t < n and authenticated needs 2t < n."""

    n: int
    t: int
    fault_set: frozenset
    inputs: Tuple[Any, ...]  # inputs[i-1] is process i's proposal
    error_budget: int = 0
    error_allocation: str = "concentrated-on-faulty"
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    seed: int = 0
    variant: str = UNAUTHENTICATED
    value_domain: Tuple[Any, ...] = (0, 1)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("need at least one process")
        if self.t < 0:
            raise ConfigurationError("fault bound must be non-negative")
        if not all(1 <= p <= self.n for p in self.fault_set):
            raise ConfigurationError("fault_set contains identifiers outside 1..n")
        if len(self.fault_set) > self.t:
            raise ConfigurationError(
                f"|fault_set| = {len(self.fault_set)} exceeds the bound t = {self.t}"
            )
        if len(self.inputs) != self.n:
            raise ConfigurationError("need one input value per process")
        if sorted(set(self.value_domain)) != list(self.value_domain) or not self.value_domain:
            raise ConfigurationError("value domain must be a sorted set of values")
        if any(v not in self.value_domain for v in self.inputs):
            raise ConfigurationError("inputs must come from the value domain")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")
        bound = 3 if self.variant == UNAUTHENTICATED else 2
        if bound * self.t >= self.n:
            raise ConfigurationError(
                f"{self.variant} protocols need t < n/{bound}, got n={self.n} t={self.t}"
            )
        if self.error_budget < 0:
            raise ConfigurationError("error budget must be non-negative")
        flippable = (self.n - len(self.fault_set)) * self.n
        if self.error_budget > flippable:
            raise ConfigurationError(
                f"error budget {self.error_budget} exceeds the {flippable} "
                "prediction bits held by honest processes"
            )
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError("seed must be a 64-bit unsigned integer")

    @property
    def f(self) -> int:
        return len(self.fault_set)

    @property
    def honest(self) -> Tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.fault_set)

    def input_of(self, pid: int) -> Any:
        return self.inputs[pid - 1]

    def honest_inputs_unanimous(self) -> bool:
        vals = {self.input_of(i) for i in self.honest}
        return len(vals) == 1

    def to_json_dict(self) -> Dict[str, Any]:
        """This scenario as a JSON object keyed by its field names."""
        return dict(
            {f.name: getattr(self, f.name) for f in fields(self)},
            fault_set=sorted(self.fault_set),
            inputs=list(self.inputs),
            adversary={"name": self.adversary.name, "params": self.adversary.param_dict()},
            value_domain=list(self.value_domain),
        )

    @classmethod
    def from_json_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        """The scenario `to_json_dict` wrote; a missing key raises `KeyError`."""
        values = {f.name: d[f.name] for f in fields(cls)}
        adv = values["adversary"]
        return cls(**dict(
            values,
            fault_set=frozenset(values["fault_set"]),
            inputs=tuple(values["inputs"]),
            adversary=AdversarySpec.make(adv["name"], adv["params"]),
            value_domain=tuple(values["value_domain"]),
        ))

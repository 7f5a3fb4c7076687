"""Classification predictions: generation, voting, ordering and error accounting.

Process identifiers are 1-based integers.  A prediction or classification
vector for a system of n processes is a tuple of n ints in {0, 1};
``bits[j-1] == 1`` means process j is considered honest, ``0`` means faulty.

Error accounting follows the convention that only bits held by honest
processes count: the budget of a prediction assignment is the number of
wrong bits summed over honest holders, split into faulty-predicted-honest
and honest-predicted-faulty parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set, Tuple

from .errors import ConfigurationError

Bits = Tuple[int, ...]

ALLOCATION_POLICIES = (
    "concentrated-on-faulty",
    "concentrated-on-honest",
    "spread-uniform",
    "adversarial-worst",
)


def honest_threshold(n: int) -> int:
    """Votes needed to classify a process as honest: ceil((n+1)/2)."""
    return (n + 2) // 2


def flips_to_misclassify(n: int, f: int, honest: bool) -> int:
    """Honest holders that must hold a wrong bit about a process before the
    f faulty votes can misclassify it: ceil(n/2) - f if it is honest, else
    honest_threshold(n) - f.  The first divides the misclassification bound;
    with 2f < n, as in every `Scenario`, both are at least 1."""
    return (n + 1) // 2 - f if honest else honest_threshold(n) - f


def correct_classification(n: int, fault_set: Set[int]) -> Bits:
    """The ground-truth vector: 1 for honest identifiers, 0 for faulty."""
    return tuple(0 if j in fault_set else 1 for j in range(1, n + 1))


def complement(bits: Bits) -> Bits:
    return tuple(1 - b for b in bits)


@dataclass(frozen=True)
class PredictionErrorReport:
    """Wrong prediction bits held by honest processes, by direction."""

    faulty_as_honest: int  # faulty process predicted honest
    honest_as_faulty: int  # honest process predicted faulty

    @property
    def total(self) -> int:
        return self.faulty_as_honest + self.honest_as_faulty


@dataclass(frozen=True)
class MisclassificationReport:
    """Processes wrongly classified by at least one honest process.

    Each process is counted once no matter how many honest classifiers got
    it wrong.
    """

    misclassified_honest: frozenset
    misclassified_faulty: frozenset

    @property
    def num_honest(self) -> int:
        return len(self.misclassified_honest)

    @property
    def num_faulty(self) -> int:
        return len(self.misclassified_faulty)

    @property
    def num_total(self) -> int:
        return self.num_honest + self.num_faulty


def _flip_order(n: int, fault_set: Set[int], policy: str, f: int) -> Iterable[Tuple[int, int]]:
    """Yield (holder, target) pairs in the order the policy spends its budget,
    each pair at most once.

    Holders are honest identifiers in increasing order per target; targets
    are visited lowest-identifier first within their class.
    """
    honest = [i for i in range(1, n + 1) if i not in fault_set]
    faulty = sorted(fault_set)
    if policy == "concentrated-on-faulty":
        for target in faulty:
            for holder in honest:
                yield holder, target
    elif policy == "concentrated-on-honest":
        for target in honest:
            for holder in honest:
                yield holder, target
    elif policy == "spread-uniform":
        # Diagonal striping over the holder x target matrix: consecutive
        # flips land on distinct holders and distinct targets.
        targets = faulty + honest
        rows, cols = len(honest), len(targets)
        for k in range(rows * cols):
            yield honest[k % rows], targets[(k % rows + k // rows) % cols]
    elif policy == "adversarial-worst":
        # Spend just enough per faulty target (lowest identifiers first) to
        # let the voting-round adversary push it over the honest threshold,
        # then start hurting honest targets the same way; leftovers flip the
        # remaining bits deterministically.
        need_faulty = max(flips_to_misclassify(n, f, honest=False), 0)
        need_honest = max(flips_to_misclassify(n, f, honest=True), 0)
        front = []
        for target in faulty:
            front.extend((holder, target) for holder in honest[:need_faulty])
        for target in honest:
            others = [h for h in honest if h != target]
            front.extend((holder, target) for holder in others[:need_honest])
        yield from front
        seen = set(front)
        for target in faulty + honest:
            for holder in honest:
                if (holder, target) not in seen:
                    yield holder, target
    else:
        raise ConfigurationError(f"unknown allocation policy {policy!r}")


def generate_predictions(
    n: int,
    fault_set: Set[int],
    budget: int,
    policy: str,
) -> Tuple[Dict[int, Bits], PredictionErrorReport]:
    """Build one prediction vector per process with exactly `budget` wrong
    bits over honest holders, or as many as the policy can realize.

    Faulty holders receive the complement of the correct classification;
    their bits are not counted.  The realized budget is returned alongside
    the vectors and is never silently different from the request: each
    flip turns one right bit of an honest holder wrong, so the report
    counts the flips.
    """
    if budget < 0:
        raise ConfigurationError("error budget must be non-negative")
    f = len(fault_set)
    if budget > (n - f) * n:
        raise ConfigurationError(
            f"error budget {budget} exceeds the {(n - f) * n} bits held by honest processes"
        )
    truth = correct_classification(n, fault_set)
    vectors: Dict[int, list] = {
        i: list(truth) if i not in fault_set else list(complement(truth))
        for i in range(1, n + 1)
    }
    wrong = [0, 0]  # flips of faulty targets, of honest targets: the truth bit indexes
    remaining = budget
    # the first step raises on an unknown policy, whatever the budget
    for holder, target in _flip_order(n, fault_set, policy, f):
        if remaining == 0:
            break
        vectors[holder][target - 1] ^= 1
        wrong[truth[target - 1]] += 1
        remaining -= 1
    return {i: tuple(v) for i, v in vectors.items()}, PredictionErrorReport(*wrong)


_BITS = frozenset((0, 1))


def _all_bits(v: tuple) -> bool:
    try:
        return _BITS.issuperset(v)
    except TypeError:  # an unhashable entry is no bit
        return False


def tally_classification(received: Iterable[Bits], n: int) -> Bits:
    """Majority-vote a classification from received prediction vectors.

    The caller's own vector must be part of `received`.  Entries that are
    not tuples of exactly n bits are discarded before tallying (a bit is
    anything equal to 0 or 1, so ``True`` and ``1.0`` count; a vector with
    an unhashable entry is discarded); a bit is set to 1 iff at least
    ceil((n+1)/2) of the remaining vectors agree.
    """
    votes = [v for v in received if isinstance(v, tuple) and len(v) == n and _all_bits(v)]
    need = honest_threshold(n)
    if not votes:
        return (0,) * n
    return tuple(1 if sum(col) >= need else 0 for col in zip(*votes))


def ordering(c: Bits) -> Tuple[int, ...]:
    """Priority permutation over identifiers: classified-honest first in
    increasing order, then classified-faulty in increasing order.

    Returned as a tuple whose p-th entry (0-based) is the identifier at
    position p+1.
    """
    n = len(c)
    first = [j for j in range(1, n + 1) if c[j - 1] == 1]
    second = [j for j in range(1, n + 1) if c[j - 1] == 0]
    return tuple(first + second)


def misclassification_report(
    classifications: Mapping[int, Bits], n: int, fault_set: Set[int]
) -> MisclassificationReport:
    """Union over honest classifiers of the processes they got wrong.

    Each distinct vector is walked once: honest holders of one classify
    inbox share its vector."""
    for holder in classifications:
        if holder in fault_set:
            raise ConfigurationError(f"classification holder {holder} is not honest")
    truth = correct_classification(n, fault_set)
    wrong_honest = set()
    wrong_faulty = set()
    for c in set(classifications.values()):
        for j in range(1, n + 1):
            if c[j - 1] == truth[j - 1]:
                continue
            if truth[j - 1] == 1:
                wrong_honest.add(j)
            else:
                wrong_faulty.add(j)
    return MisclassificationReport(
        misclassified_honest=frozenset(wrong_honest),
        misclassified_faulty=frozenset(wrong_faulty),
    )


def hamming(a: Bits, b: Bits) -> int:
    """Test-oracle helper; not used by any protocol."""
    return sum(x != y for x, y in zip(a, b))


def bits_to_string(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def bits_from_string(s: str) -> Bits:
    if s.strip("01"):
        raise ConfigurationError(f"prediction string must be 0/1 characters, got {s!r}")
    return tuple(map(int, s))

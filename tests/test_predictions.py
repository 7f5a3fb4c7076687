"""Prediction generation, classification voting, ordering, error accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzpred import predictions as pr
from byzpred.errors import ConfigurationError


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

def test_ordering_hand_example():
    # positions by the definition: classified-honest ascending, then
    # classified-faulty ascending
    assert pr.ordering((1, 0, 1, 1, 0)) == (1, 3, 4, 2, 5)


def test_ordering_all_ones_identity():
    assert pr.ordering((1,) * 6 ) == tuple(range(1, 7))


def test_ordering_all_zeros_identity():
    assert pr.ordering((0,) * 6) == tuple(range(1, 7))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_ordering_position_formulas(bits):
    # independent oracle: the closed-form position formulas
    c = tuple(bits)
    n = len(c)
    order = pr.ordering(c)
    assert sorted(order) == list(range(1, n + 1))
    for i in range(1, n + 1):
        pos = order.index(i) + 1
        if c[i - 1] == 1:
            assert pos == sum(c[:i])
        else:
            assert pos == i + sum(c[i:])


# ---------------------------------------------------------------------------
# tally_classification
# ---------------------------------------------------------------------------

def test_tally_threshold_met():
    # n=5: votes for position 3 are (1,1,1,0,0): 3 >= ceil(6/2)=3
    vecs = [
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    ]
    assert pr.tally_classification(vecs, 5)[2] == 1


def test_tally_threshold_missed_with_silent_sender():
    vecs = [
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    ]
    assert pr.tally_classification(vecs, 5)[2] == 0


def test_tally_unanimous_vote_reproduces_truth():
    truth = pr.correct_classification(6, {2, 5})
    assert pr.tally_classification([truth] * 6, 6) == truth


def test_tally_discards_wrong_length_vectors():
    truth = pr.correct_classification(4, {4})
    vecs = [truth, truth, truth, (1, 1, 1), (1, 1, 1, 1, 1), "junk", 5, None, [1, 1, 1, 0]]
    assert pr.tally_classification(vecs, 4) == truth
    # lists of the right length are not votes either
    assert pr.tally_classification([[1, 1, 1, 1]] * 3 + [truth], 4) == (0, 0, 0, 0)


def test_tally_accepts_what_equals_a_bit():
    # True and 1.0 equal 1, so they count as votes for 1
    assert pr.tally_classification([(True, 1.0, 0)] * 2, 3) == (1, 1, 0)
    assert pr.tally_classification([(True, 1.0, 0), (1, 0.0, False), (2, 1, 1)], 3) == (1, 0, 0)


def test_tally_discards_vectors_with_unhashable_entries():
    truth = pr.correct_classification(4, {4})
    assert pr.tally_classification([(1, [1], 1, 1)] * 3 + [truth] * 3, 4) == truth


def test_tally_without_valid_votes_is_all_zero():
    assert pr.tally_classification([], 3) == (0, 0, 0)
    assert pr.tally_classification([(1, [1], 1), (1, 1), "111"], 3) == (0, 0, 0)


@given(st.integers(1, 25), st.data())
def test_tally_matches_direct_count(n, data):
    vecs = data.draw(
        st.lists(
            st.tuples(*([st.integers(0, 1)] * n)),
            min_size=1,
            max_size=n,
        )
    )
    got = pr.tally_classification(vecs, n)
    need = math.ceil((n + 1) / 2)
    for j in range(n):
        assert got[j] == (1 if sum(v[j] for v in vecs) >= need else 0)


# ---------------------------------------------------------------------------
# generate_predictions
# ---------------------------------------------------------------------------

def test_zero_budget_gives_truth_to_honest():
    vectors, report = pr.generate_predictions(6, {5, 6}, 0, "concentrated-on-faulty")
    truth = pr.correct_classification(6, {5, 6})
    for holder in (1, 2, 3, 4):
        assert vectors[holder] == truth
    assert report.total == 0


def test_concentrated_on_faulty_exact_bits():
    # n=4, fault {4}, budget 3: exactly three honest holders see p4 as honest
    vectors, report = pr.generate_predictions(4, {4}, 3, "concentrated-on-faulty")
    holders = [i for i in (1, 2, 3) if vectors[i][3] == 1]
    assert len(holders) == 3
    truth = pr.correct_classification(4, {4})
    for i in (1, 2, 3):
        assert vectors[i][:3] == truth[:3]
    assert report.faulty_as_honest == 3 and report.honest_as_faulty == 0


def test_saturation_all_faulty_predicted_honest():
    n, faults = 6, {4, 5, 6}
    vectors, report = pr.generate_predictions(n, faults, (n - len(faults)) * len(faults), "concentrated-on-faulty")
    for holder in (1, 2, 3):
        assert all(vectors[holder][j - 1] == 1 for j in faults)
    assert report.faulty_as_honest == 9


def test_budget_over_policy_capacity_reports_shortfall():
    # concentrated-on-faulty can flip at most (n-f)*f bits
    n, faults = 5, {5}
    vectors, report = pr.generate_predictions(n, faults, 10, "concentrated-on-faulty")
    assert report.total == (n - 1) * 1  # ran out of faulty-target bits


def test_budget_above_all_flippable_bits_rejected():
    with pytest.raises(ConfigurationError):
        pr.generate_predictions(4, {4}, 13, "spread-uniform")


@pytest.mark.parametrize("policy", pr.ALLOCATION_POLICIES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_budget_realized_exactly_and_recounted(policy, data):
    n = data.draw(st.integers(2, 12))
    f = data.draw(st.integers(0, n // 2))
    faults = set(data.draw(st.permutations(range(1, n + 1)))[:f])
    budget = data.draw(st.integers(0, (n - f) * n))
    vectors, report = pr.generate_predictions(n, faults, budget, policy)
    # independent recount of wrong bits over honest holders, by direction
    truth = pr.correct_classification(n, faults)
    recount = {0: 0, 1: 0}  # by truth bit: faulty predicted honest, honest predicted faulty
    for holder, bits in vectors.items():
        if holder in faults:
            continue
        for j in range(n):
            if bits[j] != truth[j]:
                recount[truth[j]] += 1
    assert (recount[0], recount[1]) == (report.faulty_as_honest, report.honest_as_faulty)
    assert report.total <= budget
    if policy in ("spread-uniform",):
        assert report.total == budget  # every bit is flippable under spread


@pytest.mark.parametrize("budget", [0, 1, 12])
def test_unknown_policy_rejected_at_every_budget(budget):
    with pytest.raises(ConfigurationError, match="unknown allocation policy 'lucky'"):
        pr.generate_predictions(4, {4}, budget, "lucky")


def test_adversarial_worst_targets_low_id_faulty_first():
    n, faults = 9, {2, 7}
    need = pr.honest_threshold(n) - len(faults)
    vectors, _ = pr.generate_predictions(n, faults, need, "adversarial-worst")
    flipped = [(i, j + 1) for i, v in vectors.items() if i not in faults
               for j in range(n) if v[j] != pr.correct_classification(n, faults)[j]]
    assert all(target == 2 for _h, target in flipped)
    assert len(flipped) == need


# ---------------------------------------------------------------------------
# misclassification_report
# ---------------------------------------------------------------------------

def test_report_zero_when_all_correct():
    truth = pr.correct_classification(5, {5})
    rep = pr.misclassification_report({i: truth for i in (1, 2, 3, 4)}, 5, {5})
    assert rep.num_total == 0


def test_report_single_flipped_honest_bit():
    truth = pr.correct_classification(5, {5})
    flipped = list(truth)
    flipped[2] = 0  # honest p3 misclassified by p1
    rep = pr.misclassification_report(
        {1: tuple(flipped), 2: truth, 3: truth, 4: truth}, 5, {5}
    )
    assert rep.num_honest == 1 and rep.num_faulty == 0 and rep.num_total == 1


def test_report_counts_each_process_once():
    truth = pr.correct_classification(5, {5})
    wrong = list(truth)
    wrong[4] = 1  # faulty p5 predicted honest
    rep = pr.misclassification_report(
        {i: tuple(wrong) for i in (1, 2, 3, 4)}, 5, {5}
    )
    assert rep.num_faulty == 1 and rep.num_total == 1


def test_report_rejects_faulty_holder():
    truth = pr.correct_classification(4, {4})
    with pytest.raises(ConfigurationError):
        pr.misclassification_report({4: truth}, 4, {4})


def test_hamming():
    assert pr.hamming((1, 0, 1), (1, 1, 1)) == 1


def test_bits_string_roundtrip():
    assert pr.bits_from_string("0110") == (0, 1, 1, 0)
    assert pr.bits_to_string((0, 1, 1, 0)) == "0110"
    with pytest.raises(ConfigurationError):
        pr.bits_from_string("01x0")
    assert pr.bits_from_string("") == ()


@pytest.mark.parametrize("text", ["0 1", " 01", "01\n", "x"])
def test_bits_from_string_rejects_anything_but_0_and_1(text):
    with pytest.raises(ConfigurationError):
        pr.bits_from_string(text)

"""The reference implementations must agree with literal definitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedeval.oracle import _auc_from_arrays, _class_sorted, exact_pra_curve


def make(pairs):
    """(scores, positive) columns of (score, label) pairs."""
    scores = np.array([s for s, _ in pairs], dtype=np.float64)
    return scores, np.array([l == 1 for _, l in pairs], dtype=bool)


def exact_auc(columns):
    return _auc_from_arrays(*_class_sorted(*columns))


def exact_pra(columns, threshold):
    return exact_pra_curve(*_class_sorted(*columns), [threshold])[0]


def literal_pra(scores, positives, threshold):
    """Literal per-example counts with prediction rule score >= threshold."""
    true_pos = pred_pos = correct = 0
    for score, positive in zip(scores.tolist(), positives.tolist()):
        predicted = score >= threshold
        true_pos += predicted and positive
        pred_pos += predicted
        correct += predicted == positive
    num_pos = int(np.count_nonzero(positives))
    return (
        true_pos / pred_pos if pred_pos else None,
        true_pos / num_pos if num_pos else None,
        correct / scores.size,
    )


def brute_force_auc(scores, positives):
    """Literal double loop over all positive/negative pairs."""
    pos = scores[positives]
    neg = scores[~positives]
    strict = 0
    tied = 0
    for p in pos:
        for n in neg:
            if p > n:
                strict += 1
            elif p == n:
                tied += 1
    denom = len(pos) * len(neg)
    return strict / denom, (strict + tied / 2) / denom


def test_exact_auc_separated():
    examples = make([(0.8, 1), (0.9, 1), (0.1, 0), (0.2, 0)])
    assert exact_auc(examples) == (1.0, 1.0)
    flipped = make([(0.1, 1), (0.2, 1), (0.8, 0), (0.9, 0)])
    assert exact_auc(flipped) == (0.0, 0.0)


def test_exact_auc_all_tied():
    examples = make([(0.5, 1), (0.5, 1), (0.5, 0), (0.5, 0)])
    assert exact_auc(examples) == (0.0, 0.5)


def test_exact_auc_mixed_ties():
    # Pairs: (.3P,.3N) tied, (.3P,.5N) lost, (.7P,.3N) won, (.7P,.5N) won.
    examples = make([(0.3, 1), (0.7, 1), (0.3, 0), (0.5, 0)])
    assert exact_auc(examples) == (0.5, 0.625)


def test_exact_auc_rejects_single_class():
    with pytest.raises(ValueError):
        exact_auc(make([(0.5, 1), (0.6, 1)]))
    with pytest.raises(ValueError):
        exact_auc(make([]))


def test_exact_auc_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        num = int(rng.integers(2, 60))
        # A coarse grid forces plenty of ties.
        scores = rng.integers(0, 8, size=num) / 8.0
        positives = rng.random(num) < 0.5
        if positives.all() or not positives.any():
            positives[0] = not positives[0]
        assert exact_auc((scores, positives)) == brute_force_auc(scores, positives)


def test_exact_pra_hand_case():
    examples = make([(0.9, 1), (0.6, 1), (0.2, 1), (0.7, 0), (0.1, 0)])
    precision, recall, accuracy = exact_pra(examples, 0.5)
    # Above 0.5: two true positives and one false positive.
    assert precision == 2 / 3
    assert recall == 2 / 3
    assert accuracy == 3 / 5


def test_exact_pra_threshold_is_inclusive():
    examples = make([(0.5, 1), (0.5, 0), (0.6, 1)])
    precision, recall, accuracy = exact_pra(examples, 0.5)
    # Scores equal to the threshold are predicted positive.
    assert precision == 2 / 3
    assert recall == 1.0
    assert accuracy == 2 / 3


def test_exact_pra_degenerate_denominators():
    precision, recall, accuracy = exact_pra(make([(0.2, 0), (0.3, 0)]), 0.5)
    assert precision is None and recall is None
    assert accuracy == 1.0
    precision, recall, accuracy = exact_pra(make([(0.9, 1)]), 0.5)
    assert precision == 1.0 and recall == 1.0 and accuracy == 1.0
    with pytest.raises(ValueError):
        exact_pra(make([]), 0.5)


def test_exact_pra_curve_matches_pointwise():
    rng = np.random.default_rng(9)
    num = 400
    scores = rng.integers(0, 32, size=num) / 32.0
    positives = rng.random(num) < 0.4
    thresholds = [0.0, 0.125, 0.5, 0.50001, 0.96875, 1.0]
    curve = exact_pra_curve(*_class_sorted(scores, positives), thresholds)
    for threshold, triple in zip(thresholds, curve):
        assert triple == literal_pra(scores, positives, threshold)


def test_exact_metrics_bundle():
    examples = make([(0.8, 1), (0.9, 1), (0.1, 0), (0.2, 0)])
    assert exact_auc(examples) == (1.0, 1.0)
    assert exact_pra(examples, 0.5) == (1.0, 1.0, 1.0)


# Multiples of 1/8 tie heavily, and -0.0 ties with 0.0.
TIED_SCORES = [-0.0, *(k / 8 for k in range(9))]
# At scores, halfway between them, below 0 and above 1.
THRESHOLDS = [-0.5, -0.0, *(k / 16 for k in range(17)), 1.5]


@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(TIED_SCORES), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    thresholds=st.lists(st.sampled_from(THRESHOLDS), max_size=6),
)
def test_oracles_equal_literal_loops_on_tied_samples(pairs, thresholds):
    scores = np.array([s for s, _ in pairs], dtype=np.float64)
    positives = np.array([p for _, p in pairs], dtype=bool)
    classes = _class_sorted(scores, positives)
    curve = exact_pra_curve(*classes, thresholds)
    assert curve == [literal_pra(scores, positives, t) for t in thresholds]
    if positives.all() or not positives.any():
        with pytest.raises(ValueError):
            _auc_from_arrays(*classes)
    else:
        assert _auc_from_arrays(*classes) == brute_force_auc(
            scores, positives
        )

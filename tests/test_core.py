"""Unit tests for the shared data model."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedeval import (
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    Spike,
)
from fedeval.core import as_generator, leaf_indices


def test_label_from_int():
    assert Label(0) is Label.NEGATIVE
    assert Label(1) is Label.POSITIVE
    with pytest.raises(ValueError):
        Label(2)


def test_regime_names():
    assert Regime("secure_agg") is Regime.SECURE_AGG
    assert Regime("dist_dp") is Regime.DIST_DP
    assert Regime("local_dp") is Regime.LOCAL_DP


def test_privacy_spec_epsilon_rules():
    PrivacySpec(regime=Regime.SECURE_AGG)
    with pytest.raises(ValueError):
        PrivacySpec(regime=Regime.SECURE_AGG, epsilon=1.0)
    for eps in (None, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PrivacySpec(regime=Regime.DIST_DP, epsilon=eps)
    spec = PrivacySpec(regime=Regime.DIST_DP, epsilon=1.0, height=3)
    assert spec.num_leaves == 8


@pytest.mark.parametrize(
    "regime, epsilon, height",
    [
        (Regime.DIST_DP, 1e-17, 10),
        (Regime.DIST_DP, 1e-15, 20),
        (Regime.DIST_DP, 800.0, 1),
        (Regime.DIST_DP, 1e300, 26),
        (Regime.LOCAL_DP, 1e-17, 10),
        (Regime.LOCAL_DP, 2.0**-54, 1),
    ],
)
def test_privacy_spec_rejects_degenerate_mechanisms(regime, epsilon, height):
    with pytest.raises(ValueError, match=re.escape(f"epsilon {epsilon!r} ")):
        PrivacySpec(regime=regime, epsilon=epsilon, height=height)


def test_privacy_spec_accepts_the_mechanisms_extremes():
    PrivacySpec(regime=Regime.DIST_DP, epsilon=1e-15, height=1)
    PrivacySpec(regime=Regime.DIST_DP, epsilon=700.0, height=1)
    PrivacySpec(regime=Regime.LOCAL_DP, epsilon=1e-15)
    PrivacySpec(regime=Regime.LOCAL_DP, epsilon=1e300)


def test_privacy_spec_shape_rules():
    with pytest.raises(ValueError):
        PrivacySpec(regime=Regime.SECURE_AGG, height=0)
    with pytest.raises(ValueError):
        PrivacySpec(regime=Regime.SECURE_AGG, fanout=1)
    # 2**27 leaves is past the supported resolution.
    with pytest.raises(ValueError):
        PrivacySpec(regime=Regime.SECURE_AGG, height=27)


def test_distribution_default_slopes_saturate_at_two():
    dist = ScoreDistribution()
    assert dist.class_slope(Label.POSITIVE) == 2.0
    assert dist.class_slope(Label.NEGATIVE) == -2.0
    narrow = ScoreDistribution(lipschitz=1.0)
    assert narrow.class_slope(Label.POSITIVE) == 1.0
    assert narrow.class_slope(Label.NEGATIVE) == -1.0


def test_distribution_slope_overrides_and_limits():
    dist = ScoreDistribution(positive_slope=0.5, negative_slope=0.25)
    assert dist.class_slope(Label.POSITIVE) == 0.5
    assert dist.class_slope(Label.NEGATIVE) == 0.25
    with pytest.raises(ValueError):
        ScoreDistribution(lipschitz=1.0, positive_slope=1.5)
    with pytest.raises(ValueError):
        ScoreDistribution(positive_slope=2.5)
    for slope in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"negative_slope={slope}"):
            ScoreDistribution(negative_slope=slope)


def test_distribution_spike_validation():
    spikes = (Spike(0.25, 0.4, 0.0), Spike(0.75, 0.3, 0.2))
    ScoreDistribution(spikes=spikes)
    with pytest.raises(ValueError):
        ScoreDistribution(spikes=(Spike(1.5, 0.1, 0.1),))
    with pytest.raises(ValueError):
        ScoreDistribution(spikes=(Spike(0.5, -0.1, 0.0),))
    with pytest.raises(ValueError, match="nan"):
        ScoreDistribution(spikes=(Spike(0.5, float("nan"), 0.0),))
    with pytest.raises(ValueError):
        ScoreDistribution(spikes=(Spike(0.2, 0.6, 0.0), Spike(0.6, 0.6, 0.0)))


def test_leaf_indices_edges():
    scores = np.array([0.0, 0.249, 0.25, 0.5, 0.999, 1.0])
    assert leaf_indices(scores, 2, 2).tolist() == [0, 0, 1, 2, 3, 3]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
def test_leaf_indices_stay_in_range_and_order(scores):
    arr = np.array(scores)
    idx = leaf_indices(arr, 5, 2)
    assert idx.min() >= 0 and idx.max() < 32
    order = np.argsort(arr, kind="stable")
    assert np.all(np.diff(idx[order]) >= 0)


def test_as_generator_accepts_common_seed_types():
    gen = np.random.default_rng(7)
    assert as_generator(gen) is gen
    assert as_generator(123).random() == as_generator(123).random()
    seq = np.random.SeedSequence(5)
    assert as_generator(seq).random() == as_generator(np.random.SeedSequence(5)).random()

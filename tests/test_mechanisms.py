"""Distribution-level checks of the aggregation mechanisms and of the
per-client reference protocols in reference_mechanisms."""

import math

import numpy as np
import pytest

from fedeval.core import oue_flip_probability
from fedeval.mechanisms import aggregated_noise, discrete_laplace_variance

from reference_mechanisms import (
    OueParams,
    PolyaShareParams,
    distdp_noise_share,
    oue_aggregate,
    oue_decode,
    oue_encode,
    sample_polya,
    secure_aggregate,
)


def test_secure_aggregate_sums_exactly():
    reports = [np.array([1, 2, 3]), np.array([0, -1, 5]), np.array([2, 2, 2])]
    total = secure_aggregate(reports)
    assert total.dtype == np.int64
    assert total.tolist() == [3, 3, 10]
    assert secure_aggregate(reports[::-1]).tolist() == [3, 3, 10]


def test_secure_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        secure_aggregate([])
    with pytest.raises(ValueError):
        secure_aggregate([np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)])


def test_polya_moments():
    # Polya(1, 1/2) is geometric with mean 1 and variance 2.
    rng = np.random.default_rng(0)
    draws = sample_polya(1.0, 0.5, rng, size=100_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.05)
    assert draws.var() == pytest.approx(2.0, abs=0.1)


def test_polya_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_polya(0.0, 0.5, rng)
    with pytest.raises(ValueError):
        sample_polya(1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_polya(1.0, 0.0, rng)


def test_share_params_from_budget():
    params = PolyaShareParams.from_budget(2.0, 4, 100)
    assert params.alpha == math.exp(-0.5)
    assert params.shape == 0.01
    assert params.sensitivity == 4
    with pytest.raises(ValueError):
        PolyaShareParams.from_budget(0.0, 1, 10)
    with pytest.raises(ValueError):
        PolyaShareParams.from_budget(1.0, 1, 0)


def test_discrete_laplace_variance_frozen():
    # Var = 2a/(1-a)^2 from the two-sided geometric second moment.
    assert discrete_laplace_variance(0.5) == 4.0
    alpha = math.exp(-1.0)
    assert discrete_laplace_variance(alpha) == pytest.approx(
        2.0 * alpha / (1.0 - alpha) ** 2, rel=1e-12
    )
    assert discrete_laplace_variance(alpha) == pytest.approx(
        1.8413471884155848, rel=1e-12
    )
    with pytest.raises(ValueError):
        discrete_laplace_variance(1.0)


def test_aggregated_noise_matches_discrete_laplace():
    # The sum of 400 shares at the budget's alpha is discrete Laplace.
    params = PolyaShareParams.from_budget(1.0, 1, 400)
    rng = np.random.default_rng(7)
    draws = aggregated_noise(params.alpha, rng, size=100_000)
    target = discrete_laplace_variance(params.alpha)
    assert abs(draws.mean()) < 3.0 * math.sqrt(target / 100_000)
    assert draws.var() == pytest.approx(target, rel=0.05)


def test_aggregated_noise_is_two_unit_shape_polya_draws_bitwise():
    # The closed-form draw is the reference sampler at shape 1, in the
    # same order: x's gamma and Poisson, then y's.
    for alpha in (1e-9, 0.05, 0.5, math.exp(-1.0 / 16), 1.0 - 1e-9):
        for size in (None, 0, 1, (3, 5), 1000):
            ours = aggregated_noise(alpha, np.random.default_rng(11), size=size)
            rng = np.random.default_rng(11)
            x = sample_polya(1.0, alpha, rng, size=size)
            ref = x - sample_polya(1.0, alpha, rng, size=size)
            assert np.asarray(ours).dtype == np.asarray(ref).dtype
            assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()
            # The second draw is subtracted in place; the bits are those
            # of x - y with both draws kept.
            gen = np.random.default_rng(11)
            scale = alpha / (1.0 - alpha)
            x = gen.poisson(gen.gamma(1.0, scale, size=size))
            y = gen.poisson(gen.gamma(1.0, scale, size=size))
            assert np.asarray(ours).dtype == np.asarray(x - y).dtype
            assert np.asarray(ours).tobytes() == np.asarray(x - y).tobytes()
            # The next level's draws start where the literal gamma draws
            # leave the generator.
            drawn = np.random.default_rng(11)
            aggregated_noise(alpha, drawn, size=size)
            assert drawn.bit_generator.state == gen.bit_generator.state
    for alpha in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="alpha must lie in"):
            aggregated_noise(alpha, np.random.default_rng(0))


def test_share_sums_match_aggregate_distribution():
    # Four shares of shape 1/4 at alpha = 1/2 must sum to variance
    # 2 * alpha / (1 - alpha)^2 = 4 with P(0) = (1-alpha)/(1+alpha) = 1/3.
    rng = np.random.default_rng(3)
    trials = 20_000
    x = sample_polya(0.25, 0.5, rng, size=(trials, 4))
    y = sample_polya(0.25, 0.5, rng, size=(trials, 4))
    sums = (x - y).sum(axis=1)
    assert abs(sums.mean()) < 3.0 * math.sqrt(4.0 / trials)
    assert sums.var() == pytest.approx(4.0, rel=0.10)
    p_zero = (sums == 0).mean()
    assert p_zero == pytest.approx(1.0 / 3.0, abs=0.012)


def test_individual_shares_agree_with_aggregate_sampler():
    params = PolyaShareParams(shape=0.25, alpha=0.5, sensitivity=1)
    rng = np.random.default_rng(11)
    trials = 3000
    sums = np.array(
        [
            sum(distdp_noise_share(params, rng) for _ in range(4))
            for _ in range(trials)
        ]
    )
    assert abs(sums.mean()) < 3.0 * math.sqrt(4.0 / trials)
    assert sums.var() == pytest.approx(4.0, rel=0.20)


def test_oue_params_frozen():
    params = OueParams(epsilon=math.log(3.0), domain_size=8)
    assert params.p_keep == 0.5
    assert params.q_flip == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        OueParams(epsilon=0.0, domain_size=4)
    with pytest.raises(ValueError):
        OueParams(epsilon=1.0, domain_size=0)


def test_oue_flip_probability_is_stable_at_any_epsilon():
    # The flip probability is the literal 1/(exp(eps) + 1) bit for bit
    # wherever exp(eps) is finite, and 0 instead of overflowing beyond.
    for eps in np.geomspace(1e-300, 709.0, 20_000).tolist():
        assert OueParams(eps, 2).q_flip == 1.0 / (math.exp(eps) + 1.0)
    for eps in np.linspace(709.0, 709.78, 2_000).tolist():
        assert oue_flip_probability(eps) == 1.0 / (math.exp(eps) + 1.0)
    for eps in (709.79, 745.2, 746.0, 800.0, 1e300, math.inf):
        assert oue_flip_probability(eps) == 0.0
    assert OueParams(800.0, 2).q_flip == 0.0
    assert OueParams(1e300, 2).q_flip == 0.0


def test_oue_encode_shapes_and_range():
    params = OueParams(epsilon=1.0, domain_size=6)
    rng = np.random.default_rng(0)
    bits = oue_encode(3, params, rng)
    assert bits.shape == (6,)
    assert set(np.unique(bits)) <= {0, 1}
    with pytest.raises(ValueError):
        oue_encode(6, params, rng)
    with pytest.raises(ValueError):
        oue_encode(-1, params, rng)


def test_oue_none_reports_flip_at_q():
    params = OueParams(epsilon=math.log(3.0), domain_size=4)
    rng = np.random.default_rng(5)
    bits = np.array([oue_encode(None, params, rng) for _ in range(3000)])
    rate = bits.mean()
    se = math.sqrt(0.25 * 0.75 / bits.size)
    assert abs(rate - 0.25) < 3.0 * se


def test_oue_decode_inverts_known_sums():
    params = OueParams(epsilon=math.log(3.0), domain_size=3)
    # p - q = 1/4 and M*q = 25, so sums of 40 decode to (40-25)*4 = 60.
    estimates, variance = oue_decode(np.array([40, 25, 10]), 100, params)
    assert estimates.tolist() == [60.0, 0.0, -60.0]
    assert variance == pytest.approx(100 * 0.25 * 0.75 / 0.25**2)
    with pytest.raises(ValueError):
        oue_decode(np.array([1.0]), 0, params)


def test_oue_aggregate_unbiased_over_trials():
    params = OueParams(epsilon=1.0, domain_size=3)
    truth = np.array([150, 100, 50])
    total = int(truth.sum())
    values = [0] * 150 + [1] * 100 + [2] * 50
    rng = np.random.default_rng(21)
    trials = 150
    estimates = np.zeros((trials, 3))
    for t in range(trials):
        reports = [oue_encode(v, params, rng) for v in values]
        estimates[t], advertised = oue_aggregate(reports, params)
    p, q = params.p_keep, params.q_flip
    # True decode variance per entry: kept bits fluctuate at p(1-p),
    # flipped ones at q(1-q). The advertised value uses q(1-q) for all.
    true_var = (truth * p * (1 - p) + (total - truth) * q * (1 - q)) / (p - q) ** 2
    se = np.sqrt(true_var / trials)
    assert np.all(np.abs(estimates.mean(axis=0) - truth) < 3.0 * se)
    assert advertised == pytest.approx(total * q * (1 - q) / (p - q) ** 2)
    pooled = estimates.var(axis=0, ddof=1).mean()
    assert pooled == pytest.approx(true_var.mean(), rel=0.25)


def test_oue_aggregate_rejects_bad_reports():
    params = OueParams(epsilon=1.0, domain_size=4)
    with pytest.raises(ValueError):
        oue_aggregate([], params)
    with pytest.raises(ValueError):
        oue_aggregate([np.zeros(3, dtype=np.uint8)], params)

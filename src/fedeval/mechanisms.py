"""Aggregation mechanisms for client count vectors.

Three primitives, matching the three regimes:

* exact secure-style summation of integer vectors,
* per-client Polya noise shares whose sum across clients is a two-sided
  geometric (discrete Laplace) variable, used for distributed DP, and
* optimized unary encoding (OUE) with unbiased frequency decoding, used
  for local DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .core import NoisyCount, as_generator

__all__ = [
    "PolyaShareParams",
    "OueParams",
    "secure_aggregate",
    "sample_polya",
    "distdp_noise_share",
    "aggregated_noise",
    "discrete_laplace_variance",
    "oue_encode",
    "oue_aggregate",
    "oue_decode",
]


@dataclass(frozen=True)
class PolyaShareParams:
    """Parameters of one client's additive noise share.

    A share is the difference of two Polya(shape, alpha) draws. Summing
    num_clients shares with shape = 1/num_clients yields a discrete
    Laplace variable with parameter alpha = exp(-epsilon/sensitivity).
    """

    shape: float
    alpha: float
    sensitivity: int

    def __post_init__(self) -> None:
        if not (self.shape > 0.0):
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.sensitivity < 1:
            raise ValueError(f"sensitivity must be >= 1, got {self.sensitivity}")

    @classmethod
    def from_budget(
        cls, epsilon: float, sensitivity: int, num_clients: int
    ) -> "PolyaShareParams":
        if not (epsilon > 0.0) or not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be a finite positive real, got {epsilon}")
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        alpha = math.exp(-epsilon / sensitivity)
        return cls(shape=1.0 / num_clients, alpha=alpha, sensitivity=sensitivity)


@dataclass(frozen=True)
class OueParams:
    """Optimized unary encoding over a domain of fixed size.

    Bits equal to 1 are kept with probability 1/2; bits equal to 0 are
    flipped on with probability 1/(e^epsilon + 1).
    """

    epsilon: float
    domain_size: int

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be a finite positive real, got {self.epsilon}")
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be >= 1, got {self.domain_size}")

    @property
    def p_keep(self) -> float:
        return 0.5

    @property
    def q_flip(self) -> float:
        # expit(-epsilon) is 1/(exp(epsilon) + 1) without overflowing.
        return float(expit(-self.epsilon))


def secure_aggregate(reports: Sequence[np.ndarray]) -> np.ndarray:
    """Sum integer report vectors exactly.

    The sum is over int64, so the result is independent of report order.
    """
    if len(reports) == 0:
        raise ValueError("secure_aggregate needs at least one report")
    arrays = [np.asarray(r, dtype=np.int64) for r in reports]
    width = arrays[0].shape
    for arr in arrays:
        if arr.shape != width:
            raise ValueError(f"report shapes differ: {arr.shape} vs {width}")
    total = np.zeros(width, dtype=np.int64)
    for arr in arrays:
        total += arr
    return total


def sample_polya(shape: float, alpha: float, rng, size=None):
    """Draw from Polya(shape, alpha), a negative binomial with real shape.

    Realized as a Poisson draw whose rate is Gamma(shape, alpha/(1-alpha)).
    Mean is shape*alpha/(1-alpha), variance shape*alpha/(1-alpha)**2.
    """
    if not (shape > 0.0):
        raise ValueError(f"shape must be positive, got {shape}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    gen = as_generator(rng)
    scale = alpha / (1.0 - alpha)
    rate = gen.gamma(shape, scale, size=size)
    return gen.poisson(rate)


def distdp_noise_share(params: PolyaShareParams, rng) -> int:
    """One client's additive noise share: difference of two Polya draws."""
    gen = as_generator(rng)
    x = sample_polya(params.shape, params.alpha, gen)
    y = sample_polya(params.shape, params.alpha, gen)
    return int(x) - int(y)


def aggregated_noise(params: PolyaShareParams, num_shares: int, rng, size=None):
    """Sum of num_shares independent noise shares, drawn in aggregate.

    Sums of independent Polya draws with a common alpha add their shapes,
    so the aggregate is drawn with total shape num_shares*params.shape in
    one pass. The result is distributed identically to summing the shares
    one by one. num_shares == 0 yields exact zeros.
    """
    if num_shares < 0:
        raise ValueError(f"num_shares must be >= 0, got {num_shares}")
    if num_shares == 0:
        if size is None:
            return 0
        return np.zeros(size, dtype=np.int64)
    gen = as_generator(rng)
    total_shape = num_shares * params.shape
    x = sample_polya(total_shape, params.alpha, gen, size=size)
    y = sample_polya(total_shape, params.alpha, gen, size=size)
    return x - y


def discrete_laplace_variance(alpha: float) -> float:
    """Variance of the discrete Laplace distribution with parameter alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 2.0 * alpha / (1.0 - alpha) ** 2


def oue_encode(value: int | None, params: OueParams, rng) -> np.ndarray:
    """Perturbed one-hot report for value, or a perturbed zero vector.

    value None means the client has nothing to report in this domain; it
    still submits a (perturbed) all-zeros vector so participation does not
    leak its class.
    """
    if value is not None and not (0 <= value < params.domain_size):
        raise ValueError(
            f"value must be None or in [0, {params.domain_size}), got {value}"
        )
    gen = as_generator(rng)
    bits = np.zeros(params.domain_size, dtype=np.uint8)
    if value is not None:
        bits[value] = 1
    uniforms = gen.random(params.domain_size)
    keep = np.where(bits == 1, params.p_keep, params.q_flip)
    return (uniforms < keep).astype(np.uint8)


def oue_decode(
    bit_sums: np.ndarray, num_reports: int, params: OueParams
) -> tuple[np.ndarray, float]:
    """Unbiased frequency estimates from summed OUE bits.

    Returns (estimates, per-entry variance). The variance is the usual
    num_reports * q(1-q) / (p-q)**2 advertisement.
    """
    if num_reports < 1:
        raise ValueError(f"num_reports must be >= 1, got {num_reports}")
    p = params.p_keep
    q = params.q_flip
    sums = np.asarray(bit_sums, dtype=np.float64)
    estimates = (sums - num_reports * q) / (p - q)
    variance = num_reports * q * (1.0 - q) / (p - q) ** 2
    return estimates, variance


def oue_aggregate(
    reports: Sequence[np.ndarray], params: OueParams
) -> tuple[NoisyCount, ...]:
    """Decode a batch of OUE reports into per-entry count estimates."""
    if len(reports) == 0:
        raise ValueError("oue_aggregate needs at least one report")
    sums = secure_aggregate(reports)
    if sums.shape != (params.domain_size,):
        raise ValueError(
            f"reports must have length {params.domain_size}, got shape {sums.shape}"
        )
    estimates, variance = oue_decode(sums, len(reports), params)
    return tuple(NoisyCount(float(v), variance) for v in estimates)

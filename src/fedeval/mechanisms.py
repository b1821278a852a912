"""Noise parameters and closed-form aggregate draws for the DP regimes.

The simulation never materializes per-client reports. Under
distributed DP the sum of all clients' Polya noise shares is drawn in
one pass (aggregated_noise), which is a two-sided geometric (discrete
Laplace) variable when the shares use shape 1/num_clients. Under local
DP, OueParams holds the optimized unary encoding probabilities from
which the hierarchy draws binomial report counts. The per-client
protocols these draws stand for live with the tests, as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import as_generator

__all__ = [
    "PolyaShareParams",
    "OueParams",
    "sample_polya",
    "aggregated_noise",
    "discrete_laplace_variance",
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

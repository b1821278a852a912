"""Per-client reference mechanisms for the closed-form aggregates.

The package never runs these: it draws each regime's aggregate from
its law (fedeval.mechanisms.aggregated_noise from alpha alone, binomial
OUE counts in fedeval.hierarchy). The tests simulate the protocols
client by client with the parameters and functions here, and check that
both forms agree in distribution: PolyaShareParams gives one client's
Polya noise share, drawn with sample_polya, and OueParams one client's
unary encoding report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fedeval.core import as_generator, oue_flip_probability


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
        # The pipeline's flip probability, so tests of q cover both.
        return oue_flip_probability(self.epsilon)


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


def distdp_noise_share(params: PolyaShareParams, rng) -> int:
    """One client's additive noise share: difference of two Polya draws."""
    gen = as_generator(rng)
    x = sample_polya(params.shape, params.alpha, gen)
    y = sample_polya(params.shape, params.alpha, gen)
    return int(x) - int(y)


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
) -> tuple[np.ndarray, float]:
    """Decode a batch of OUE reports: per-entry estimates and their variance."""
    if len(reports) == 0:
        raise ValueError("oue_aggregate needs at least one report")
    sums = secure_aggregate(reports)
    if sums.shape != (params.domain_size,):
        raise ValueError(
            f"reports must have length {params.domain_size}, got shape {sums.shape}"
        )
    return oue_decode(sums, len(reports), params)

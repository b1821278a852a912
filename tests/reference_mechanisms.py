"""Per-client reference mechanisms for the closed-form aggregates.

The package never runs these: it draws each regime's aggregate in one
pass (fedeval.mechanisms.aggregated_noise, binomial OUE counts in
fedeval.hierarchy). The tests simulate the protocols client by client
with the functions here and check that both forms agree in
distribution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fedeval.core import NoisyCount, as_generator
from fedeval.mechanisms import OueParams, PolyaShareParams, sample_polya


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

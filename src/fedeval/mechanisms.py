"""Closed-form aggregate draws for the DP regimes.

The simulation never materializes per-client reports; it draws each
aggregate from its own law. Under distributed DP the clients' Polya
noise shares on a node sum to one discrete Laplace (two-sided
geometric) variable with parameter alpha, whatever the number of
clients, so aggregated_noise draws that sum from alpha alone. Under
local DP the hierarchy draws binomial report counts from the optimized
unary encoding probabilities, 1/2 and core.oue_flip_probability(epsilon).
The per-client protocols these draws stand for live with the tests, as
references.
"""

from __future__ import annotations

from .core import as_generator

__all__ = [
    "aggregated_noise",
    "discrete_laplace_variance",
]


def aggregated_noise(alpha: float, rng, size=None):
    """Discrete Laplace noise with parameter alpha, drawn in aggregate.

    This is the sum of any number of clients' noise shares: Polya draws
    with a common alpha add their shapes, so the shares' total shape is
    1 and the sum is the difference of two Polya(1, alpha) draws, each
    a Poisson draw whose rate is Gamma(1, alpha/(1-alpha)).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    gen = as_generator(rng)
    scale = alpha / (1.0 - alpha)
    x = gen.poisson(gen.gamma(1.0, scale, size=size))
    x -= gen.poisson(gen.gamma(1.0, scale, size=size))
    return x


def discrete_laplace_variance(alpha: float) -> float:
    """Variance of the discrete Laplace distribution with parameter alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 2.0 * alpha / (1.0 - alpha) ** 2

"""Core domain types shared across the package.

Scores live on the closed interval [0, 1]. Hierarchy operations discretize
a score to the leaf index floor(score * fanout**height); a score of exactly
1.0 is clamped into the last leaf so the mapping is total.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Label",
    "Regime",
    "LabeledScore",
    "ClientSplit",
    "PrivacySpec",
    "Spike",
    "ScoreDistribution",
    "DegenerateEstimateError",
    "InsufficientPopulationError",
    "as_arrays",
    "as_examples",
    "leaf_indices",
    "as_generator",
    "oue_flip_probability",
]


class Label(enum.Enum):
    """Binary ground-truth class of an example."""

    NEGATIVE = 0
    POSITIVE = 1


class Regime(enum.Enum):
    """How client reports are aggregated.

    SECURE_AGG sums exact client vectors. DIST_DP adds distributed noise
    whose aggregate is two-sided geometric (discrete Laplace). LOCAL_DP
    randomizes each client report with optimized unary encoding.
    """

    SECURE_AGG = "secure_agg"
    DIST_DP = "dist_dp"
    LOCAL_DP = "local_dp"


class LabeledScore(NamedTuple):
    """One example: a classifier score in [0, 1] and its true label."""

    score: float
    label: Label


@dataclass(frozen=True, eq=False)
class ClientSplit:
    """A population split into client shards, stored as columns.

    Client c holds rows offsets[c]:offsets[c+1] of scores (float64) and
    positive (bool, True for the positive class). Clients may be empty.
    """

    scores: np.ndarray
    positive: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_shards(cls, shards: Sequence[Sequence[LabeledScore]]) -> "ClientSplit":
        """Columns of per-client example lists, clients in input order."""
        sizes = np.fromiter(map(len, shards), dtype=np.int64, count=len(shards))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        return cls(*as_arrays(list(chain.from_iterable(shards))), offsets)

    @property
    def num_clients(self) -> int:
        return len(self.offsets) - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def check_one_per_client(self) -> None:
        """Raise ValueError if a client holds more than one example.

        Local randomization lets each client report about one example.
        """
        sizes = self.sizes()
        if np.any(sizes > 1):
            i = int(np.argmax(sizes > 1))
            raise ValueError(
                "local DP accepts at most one example per client shard, "
                f"shard {i} holds {sizes[i]}"
            )


class DegenerateEstimateError(RuntimeError):
    """Every requested ratio had a nonpositive (noisy) denominator.

    Carries the raw aggregated counters, as plain counts, so callers can
    log or inspect them.
    """

    def __init__(self, message: str, counters: dict):
        super().__init__(message)
        self.counters = dict(counters)


class InsufficientPopulationError(ValueError):
    """Too few clients for the requested mechanism (e.g. fewer than h)."""


@dataclass(frozen=True)
class PrivacySpec:
    """Mechanism parameters for one evaluation run.

    epsilon is the total privacy budget and must be absent for SECURE_AGG.
    height is the number of hierarchy levels; fanout the branching factor.
    """

    regime: Regime
    epsilon: float | None = None
    height: int = 10
    fanout: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.regime, Regime):
            raise ValueError(f"regime must be a Regime, got {self.regime!r}")
        if self.height < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")
        if self.regime is Regime.SECURE_AGG:
            if self.epsilon is not None:
                raise ValueError("epsilon must be absent under secure aggregation")
        else:
            eps = self.epsilon
            if eps is None or not math.isfinite(eps) or eps <= 0.0:
                raise ValueError(f"epsilon must be a finite positive real, got {eps!r}")
            # Each dist_dp level spends epsilon/height, and needs
            # exp(-epsilon/height) strictly inside (0, 1). A local_dp
            # client spends all of epsilon on its one report, and needs
            # the flip probability 1/(exp(epsilon) + 1) to differ from 1/2.
            use = f"{self.regime.value} at height {self.height}"
            if self.regime is Regime.DIST_DP:
                alpha = math.exp(-eps / self.height)
                if alpha in (0.0, 1.0):
                    share = "epsilon" if self.height == 1 else f"epsilon/{self.height}"
                    raise ValueError(
                        f"epsilon {eps!r} is too {'small' if alpha else 'large'} "
                        f"for {use}: exp(-{share}) rounds to {alpha:g}"
                    )
            elif oue_flip_probability(eps) == 0.5:
                raise ValueError(
                    f"epsilon {eps!r} is too small for {use}: the flip "
                    "probability 1/(exp(epsilon)+1) rounds to 1/2"
                )
        # Leaf arrays of every level must fit comfortably in memory. Any
        # height above 26 is past 2**26 leaves, and is rejected before
        # the power is formed.
        if self.height > 26 or self.num_leaves > (1 << 26):
            raise ValueError(
                f"fanout {self.fanout} and height {self.height} give more than "
                "2**26 leaves, past the supported resolution"
            )

    @property
    def num_leaves(self) -> int:
        return self.fanout**self.height


class Spike(NamedTuple):
    """A point mass in a synthetic score distribution.

    Masses are per-class fractions: positive_mass is the share of the
    positive class emitted exactly at location, likewise negative_mass.
    """

    location: float
    positive_mass: float
    negative_mass: float


@dataclass(frozen=True)
class ScoreDistribution:
    """Synthetic score distribution: point spikes plus a linear density.

    Outside the spikes each class draws from a density 1 + a*(x - 1/2) on
    [0, 1], where the slope a is bounded by min(lipschitz, 2) in magnitude
    (2 keeps the density nonnegative). By default the positive class slopes
    up and the negative class slopes down by that amount; per-class slopes
    can be overridden.
    """

    spikes: tuple[Spike, ...] = ()
    lipschitz: float = 2.0
    positive_slope: float | None = None
    negative_slope: float | None = None

    def __post_init__(self) -> None:
        if not (self.lipschitz >= 0.0):
            raise ValueError(f"lipschitz bound must be >= 0, got {self.lipschitz}")
        pos_total = 0.0
        neg_total = 0.0
        for spike in self.spikes:
            if not (0.0 <= spike.location <= 1.0):
                raise ValueError(f"spike location {spike.location} outside [0, 1]")
            if not (spike.positive_mass >= 0.0 and spike.negative_mass >= 0.0):
                raise ValueError(
                    f"spike masses must be nonnegative, got {spike.positive_mass}"
                    f" and {spike.negative_mass}"
                )
            pos_total += spike.positive_mass
            neg_total += spike.negative_mass
        if pos_total > 1.0 or neg_total > 1.0:
            raise ValueError(
                f"per-class spike masses must sum to at most 1, got "
                f"positive={pos_total}, negative={neg_total}"
            )
        limit = min(self.lipschitz, 2.0)
        for name, slope in (
            ("positive_slope", self.positive_slope),
            ("negative_slope", self.negative_slope),
        ):
            # Written so that a NaN slope fails too.
            if slope is not None and not abs(slope) <= limit + 1e-12:
                raise ValueError(
                    f"{name}={slope} must be a number of magnitude at most {limit}"
                )

    def class_slope(self, label: Label) -> float:
        limit = min(self.lipschitz, 2.0)
        if label is Label.POSITIVE:
            return limit if self.positive_slope is None else self.positive_slope
        return -limit if self.negative_slope is None else self.negative_slope


def as_arrays(examples: Sequence[LabeledScore]) -> tuple[np.ndarray, np.ndarray]:
    """Convert examples to (scores float64, labels bool) arrays."""
    count = len(examples)
    scores = np.fromiter(map(attrgetter("score"), examples), np.float64, count)
    labels = np.fromiter(map(attrgetter("label"), examples), object, count)
    return scores, labels == Label.POSITIVE


def as_examples(scores: np.ndarray, positive: np.ndarray) -> list[LabeledScore]:
    """The examples of (scores, positive) columns, in row order."""
    labels = (Label.NEGATIVE, Label.POSITIVE)
    return [
        LabeledScore(score, labels[flag])
        for score, flag in zip(scores.tolist(), positive.tolist())
    ]


def leaf_indices(scores: np.ndarray, height: int, fanout: int) -> np.ndarray:
    """Map scores in [0, 1] to leaf indices in [0, fanout**height - 1]."""
    num_leaves = fanout**height
    scores = np.asarray(scores, dtype=np.float64)
    # The product is cast to int64 a buffer at a time, so no float copy
    # of the column is made. The cast truncates, which is the floor for
    # every score >= 0; the clip sends every other value to leaf 0.
    idx = np.empty(scores.shape, dtype=np.int64)
    np.multiply(scores, num_leaves, out=idx, casting="unsafe")
    return np.clip(idx, 0, num_leaves - 1, out=idx)


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def oue_flip_probability(epsilon: float) -> float:
    """Probability 1/(e^epsilon + 1) that OUE turns a 0 bit on.

    Where exp(epsilon) overflows the probability is 0.0, the value of
    the formula with exp(epsilon) = inf.
    """
    try:
        return 1.0 / (math.exp(epsilon) + 1.0)
    except OverflowError:
        return 0.0

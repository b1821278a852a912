"""Deterministic experiment sweeps over privacy regimes and grid knobs.

A sweep iterates the cross product of (regime, population size, bucket
count, height, epsilon) for several repetitions. Every cell derives its
own seed from the base seed and its coordinates, so results are
reproducible row by row and independent of execution order. Estimates
are compared against exact centralized metrics on the same data;
degenerate estimates are recorded rather than aborting the sweep.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .calibration import (
    CalibrationMap,
    EceReport,
    apply_calibration_batch,
    calibrate_histogram,
    ece_arrays,
)
from .core import (
    DegenerateEstimateError,
    InsufficientPopulationError,
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    Spike,
    as_generator,
)
from .datagen import sample_population, split_population
from .hierarchy import HierarchicalCounts, build_hierarchy, build_score_histogram
from .metrics import auc_histogram, pra_threshold
from .oracle import _auc_from_arrays, _class_sorted, exact_pra_curve

__all__ = [
    "SweepConfig",
    "SweepConfigError",
    "SweepResultRow",
    "parse_spikes",
    "parse_sweep_config",
    "run_sweep",
    "evaluate_population",
    "held_out_calibrations",
    "result_rows",
]

_REGIME_INDEX = {Regime.SECURE_AGG: 0, Regime.DIST_DP: 1, Regime.LOCAL_DP: 2}

PRA_METRICS = ("precision", "recall", "accuracy")


class SweepConfigError(ValueError):
    """A sweep config file had an unknown key or unusable value."""


@dataclass(frozen=True)
class SweepResultRow:
    metric: str
    regime: Regime
    num_examples: int
    num_buckets: int
    height: int
    epsilon: float | None
    threshold: float | None
    estimate: float | None
    exact: float | None
    advertised_uncertainty: float | None
    seed: int
    wall_ms: float | None

    @property
    def abs_error(self) -> float | None:
        if self.estimate is None or self.exact is None:
            return None
        return abs(self.estimate - self.exact)

    @property
    def degenerate(self) -> bool:
        return self.estimate is None


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for run_sweep.

    Empty grids are allowed and simply produce no rows. When data_path
    is set the population grid is replaced by the file's size.
    """

    base_seed: int
    regimes: tuple[Regime, ...] = ()
    num_examples: tuple[int, ...] = ()
    num_buckets: tuple[int, ...] = ()
    heights: tuple[int, ...] = ()
    epsilons: tuple[float, ...] = ()
    thresholds: tuple[float, ...] = ()
    repetitions: int = 1
    split_policy: str = "one_per_client"
    fanout: int = 2
    class_balance: float = 0.5
    distribution: ScoreDistribution = field(default_factory=ScoreDistribution)
    data_path: str | None = None
    eval_bins: int = 20
    measure_ece: bool = True

    def __post_init__(self) -> None:
        if self.base_seed < 0:
            raise SweepConfigError("base_seed must be nonnegative")
        if self.repetitions < 0:
            raise SweepConfigError("repetitions must be nonnegative")
        if self.eval_bins < 1:
            raise SweepConfigError("eval_bins must be at least 1")
        if not 0.0 <= self.class_balance <= 1.0:
            raise SweepConfigError(
                f"class_balance must lie in [0, 1], got {self.class_balance}"
            )
        # A one-example split runs every check the policy makes of its
        # name and parameter, so a bad policy fails before the first cell.
        try:
            split_population(np.array([0.5]), np.array([True]), self.split_policy, 0)
        except ValueError as exc:
            raise SweepConfigError(f"split_policy: {exc}") from None
        for eps in self.epsilons:
            if not eps > 0.0:
                raise SweepConfigError(f"epsilons must be positive, got {eps}")
        for t in self.thresholds:
            if not 0.0 <= t <= 1.0:
                raise SweepConfigError(f"thresholds must lie in [0, 1], got {t}")
        for m in self.num_examples:
            if m < 0:
                raise SweepConfigError("num_examples entries must be nonnegative")
        for b in self.num_buckets:
            if b < 1:
                raise SweepConfigError("num_buckets entries must be at least 1")
        for h in self.heights:
            if h < 1:
                raise SweepConfigError("heights entries must be at least 1")
        # Every spec run_sweep will build is built here first, so a grid
        # value that PrivacySpec rejects fails before the first cell.
        for regime in self.regimes:
            for height, epsilon in product(self.heights, self._epsilon_grid(regime)):
                try:
                    PrivacySpec(
                        regime=regime, epsilon=epsilon, height=height,
                        fanout=self.fanout,
                    )
                except ValueError as exc:
                    raise SweepConfigError(str(exc)) from None

    def _epsilon_grid(self, regime: Regime) -> tuple[float | None, ...]:
        """Epsilons of regime's cells: exact aggregation takes a single None."""
        return (None,) if regime is Regime.SECURE_AGG else self.epsilons


def _float_bits(value: float | None) -> int:
    if value is None:
        return 0
    return int.from_bytes(struct.pack("<d", float(value)), "little")


def _estimate_or_none(metric, hist, *args):
    """metric(hist, *args), or None when hist is None or the estimate is degenerate."""
    if hist is None:
        return None
    try:
        return metric(hist, *args)
    except DegenerateEstimateError:
        return None


def evaluate_population(
    scores: np.ndarray,
    positive: np.ndarray,
    spec: PrivacySpec,
    num_buckets: int,
    split_policy: str,
    thresholds: Sequence[float],
    seeds: Sequence,
) -> list[tuple]:
    """(metric, threshold, estimate, exact, advertised) records of one population.

    The population is split into clients and both classes are aggregated
    under spec, with the split, positive and negative seeds of seeds.
    The estimates are read from their histogram: one AUC record, then
    precision/recall/accuracy per threshold. An estimate is None when it
    is degenerate or the population is too small for the mechanism.
    Exact values come from the raw scores, with AUC ties counted half as
    the histogram counts them; a missing exact (single-class data, say)
    is None too. An AUC record advertises its noise sd plus the
    bucketization halfwidth, a precision/recall/accuracy record its
    threshold_slack: |T - T'| plus one leaf width in score units, with
    no noise term (metric-unit values are ROADMAP item 3).
    """
    split_ss, pos_ss, neg_ss = seeds
    try:
        clients = split_population(scores, positive, split_policy, split_ss)
        hist = build_score_histogram(
            build_hierarchy(clients, Label.POSITIVE, spec, pos_ss),
            build_hierarchy(clients, Label.NEGATIVE, spec, neg_ss),
            num_buckets,
        )
    except InsufficientPopulationError:
        hist = None

    records = []
    pos, neg = _class_sorted(scores, positive)
    try:
        _, exact_value = _auc_from_arrays(pos, neg)
    except ValueError:
        exact_value = None
    est = _estimate_or_none(auc_histogram, hist)
    if est is None:
        records.append(("auc", None, None, exact_value, None))
    else:
        records.append(
            ("auc", None, est.value, exact_value, est.advertised_uncertainty)
        )

    if thresholds:
        if scores.size:
            curve = exact_pra_curve(pos, neg, thresholds)
        else:
            curve = [(None, None, None)] * len(thresholds)
        for threshold, exact_triple in zip(thresholds, curve):
            est = _estimate_or_none(pra_threshold, hist, threshold)
            if est is None:
                values = (None, None, None)
                slack = None
            else:
                values = (est.precision, est.recall, est.accuracy)
                slack = est.threshold_slack
            for name, value, exact in zip(PRA_METRICS, values, exact_triple):
                records.append((name, threshold, value, exact, slack))
    return records


def held_out_calibrations(
    scores: np.ndarray,
    positive: np.ndarray,
    specs: Sequence[PrivacySpec],
    split_policy: str,
    seeds: Sequence[np.random.SeedSequence],
    fit_map: Callable[[HierarchicalCounts, HierarchicalCounts], CalibrationMap],
    eval_bins: int,
) -> list[tuple[CalibrationMap, EceReport]]:
    """A calibration map fitted under each spec, and its held-out ECE report.

    The rows are permuted and halved once; the first half is split into
    clients once. Under each spec in turn both classes of that split are
    aggregated, fit_map(pos, neg) fits a map, and the map is scored on
    the second half. The trees of one spec are dropped before the next
    spec's are built. seeds are the permutation, split, positive and
    negative seeds, in that order, so the same four seeds give the same
    fits on every call. Every spec takes the same positive and negative
    seeds.
    """
    if scores.size < 4:
        raise InsufficientPopulationError("calibrate needs at least 4 examples")
    perm_ss, split_ss, pos_ss, neg_ss = seeds
    perm = as_generator(perm_ss).permutation(scores.size)
    half = scores.size // 2
    clients = split_population(
        scores[perm[:half]], positive[perm[:half]], split_policy, split_ss
    )
    eval_scores, eval_positive = scores[perm[half:]], positive[perm[half:]]
    del perm  # the halves are copies, so the trees are built without it
    fits = []
    for spec in specs:
        cal_map = fit_map(
            build_hierarchy(clients, Label.POSITIVE, spec, pos_ss),
            build_hierarchy(clients, Label.NEGATIVE, spec, neg_ss),
        )
        report = ece_arrays(
            apply_calibration_batch(cal_map, eval_scores), eval_positive, eval_bins
        )
        fits.append((cal_map, report))
    return fits


_DEGENERATE_ECE = ("ece", None, None, None, None)


def _ece_record(
    scores: np.ndarray,
    positive: np.ndarray,
    spec: PrivacySpec,
    num_buckets: int,
    split_policy: str,
    eval_bins: int,
    calib_seeds: Sequence[np.random.SeedSequence],
) -> tuple:
    """Held-out calibration quality under this cell's regime.

    The estimate is the held-out ECE of the single-binning map at
    num_buckets. The exact reference repeats the fit with exact
    aggregation on the same halves and split, so for exact regimes the
    error is zero by construction. Fewer than 4 rows, or too few
    clients for the mechanism, give a degenerate record.
    """
    exact_spec = PrivacySpec(
        regime=Regime.SECURE_AGG, height=spec.height, fanout=spec.fanout
    )
    specs = [spec] if spec.regime is Regime.SECURE_AGG else [spec, exact_spec]

    def fit_map(pos, neg):
        return calibrate_histogram(build_score_histogram(pos, neg, num_buckets))

    try:
        fits = held_out_calibrations(
            scores, positive, specs, split_policy, calib_seeds, fit_map, eval_bins
        )
    except InsufficientPopulationError:
        return _DEGENERATE_ECE
    return ("ece", None, fits[0][1].ece, fits[-1][1].ece, None)


def result_rows(
    records: Sequence[tuple],
    spec: PrivacySpec,
    num_examples: int,
    num_buckets: int,
    seed: int,
    wall_ms: float | None,
) -> list[SweepResultRow]:
    """Result rows of one evaluated population, one per record."""
    return [
        SweepResultRow(
            metric=metric,
            regime=spec.regime,
            num_examples=num_examples,
            num_buckets=num_buckets,
            height=spec.height,
            epsilon=spec.epsilon,
            threshold=threshold,
            estimate=estimate,
            exact=exact,
            advertised_uncertainty=advertised,
            seed=seed,
            wall_ms=wall_ms,
        )
        for metric, threshold, estimate, exact, advertised in records
    ]


def _run_cell(
    config: SweepConfig,
    regime: Regime,
    num_examples: int,
    num_buckets: int,
    height: int,
    epsilon: float | None,
    rep: int,
    file_columns: tuple[np.ndarray, np.ndarray] | None,
    timings: bool,
) -> list[SweepResultRow]:
    entropy = (
        config.base_seed,
        _REGIME_INDEX[regime],
        num_examples,
        num_buckets,
        height,
        _float_bits(epsilon),
        rep,
    )
    root = np.random.SeedSequence(entropy)
    cell_seed = int(root.generate_state(1, np.uint64)[0])
    data_ss, split_ss, pos_ss, neg_ss, calib_ss = root.spawn(5)
    started = time.perf_counter()

    if file_columns is not None:
        scores, positive = file_columns
    else:
        scores, positive = sample_population(
            num_examples, config.distribution, config.class_balance, data_ss
        )
    spec = PrivacySpec(
        regime=regime, epsilon=epsilon, height=height, fanout=config.fanout
    )
    records = evaluate_population(
        scores, positive, spec, num_buckets, config.split_policy,
        config.thresholds, (split_ss, pos_ss, neg_ss),
    )
    if config.measure_ece:
        records.append(
            _ece_record(
                scores, positive, spec, num_buckets, config.split_policy,
                config.eval_bins, calib_ss.spawn(4),
            )
        )

    wall_ms = (time.perf_counter() - started) * 1000.0 if timings else None
    return result_rows(records, spec, num_examples, num_buckets, cell_seed, wall_ms)


def run_sweep(config: SweepConfig, timings: bool = False) -> list[SweepResultRow]:
    """All rows of the sweep grid, in deterministic order.

    Cells iterate regimes, then population sizes, bucket counts,
    heights, epsilons (exact aggregation takes a single None epsilon),
    then repetitions. Within a cell the rows are AUC, then
    precision/recall/accuracy per threshold, then ECE.
    """
    file_columns = None
    if config.data_path is not None:
        from .io import read_columns

        file_columns = read_columns(config.data_path)
        m_grid: tuple[int, ...] = (file_columns[0].size,)
    else:
        m_grid = config.num_examples

    rows = []
    for regime in config.regimes:
        grid = product(
            m_grid, config.num_buckets, config.heights,
            config._epsilon_grid(regime), range(config.repetitions),
        )
        for num_examples, num_buckets, height, epsilon, rep in grid:
            rows.extend(
                _run_cell(
                    config, regime, num_examples, num_buckets, height,
                    epsilon, rep, file_columns, timings,
                )
            )
    return rows


_LIST_KEYS = {
    "regimes": lambda v: Regime(v),
    "num_examples": int,
    "num_buckets": int,
    "heights": int,
    "epsilons": float,
    "thresholds": float,
}

_SCALAR_KEYS = {
    "repetitions": int,
    "base_seed": int,
    "fanout": int,
    "eval_bins": int,
    "split_policy": str,
    "class_balance": float,
    "data": str,
    "measure_ece": lambda v: {"true": True, "false": False}[v.lower()],
}


def parse_spikes(value: str) -> tuple[Spike, ...]:
    """Semicolon-separated location:pos_mass:neg_mass triples."""
    spikes = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"spike {chunk!r} is not location:pos_mass:neg_mass")
        spikes.append(Spike(float(parts[0]), float(parts[1]), float(parts[2])))
    return tuple(spikes)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse 'key = value' sweep configs.

    Lists are comma separated; spikes are semicolon-separated
    location:pos_mass:neg_mass triples; '#' starts a comment. Unknown
    keys and unusable values raise SweepConfigError naming the key.
    """
    values: dict[str, object] = {}
    dist_kwargs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise SweepConfigError(f"line {lineno}: expected 'key = value'")
        if key in values or key in dist_kwargs:
            raise SweepConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                parse = _LIST_KEYS[key]
                items = [x.strip() for x in value.split(",")]
                values[key] = tuple(parse(x) for x in items if x)
            elif key == "spikes":
                dist_kwargs["spikes"] = parse_spikes(value)
            elif key in ("lipschitz", "pos_slope", "neg_slope"):
                dist_kwargs[
                    {"pos_slope": "positive_slope", "neg_slope": "negative_slope"}.get(
                        key, key
                    )
                ] = float(value)
            elif key in _SCALAR_KEYS:
                values[key] = _SCALAR_KEYS[key](value)
            else:
                raise SweepConfigError(f"line {lineno}: unknown key {key!r}")
        except SweepConfigError:
            raise
        except (ValueError, KeyError) as exc:
            raise SweepConfigError(
                f"line {lineno}: bad value for key {key!r}: {exc}"
            ) from None
    if "base_seed" not in values:
        raise SweepConfigError("missing required key 'base_seed'")
    if "data" in values:
        values["data_path"] = values.pop("data")
    try:
        distribution = ScoreDistribution(**dist_kwargs)
        return SweepConfig(distribution=distribution, **values)
    except SweepConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise SweepConfigError(str(exc)) from None

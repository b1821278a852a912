"""The traced layers: which fedeval functions get spans and what they count.

Layer names are ``<module>.<function>`` of the package module that
defines the function. Counters read sizes from a call's arguments and
result; they run after the call, outside its span.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Target


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_counts(args, kwargs, result) -> dict:
    data = Path(_arg(args, kwargs, 0, "path")).read_bytes()
    return {"rows": max(data.count(b"\n") - 1, 0), "bytes": len(data)}


def _hierarchy_nodes(args, kwargs, result) -> dict:
    spec = _arg(args, kwargs, 2, "spec")
    return {"nodes": sum(spec.fanout**k for k in range(1, spec.height + 1))}


def _histogram_counts(args, kwargs, result) -> dict:
    pos = _arg(args, kwargs, 0, "pos")
    return {"leaves": pos.num_leaves, "buckets": result.num_buckets}


TARGETS = [
    Target("sweep.run_sweep", "sweep", "run_sweep"),
    Target("cli.main", "cli", "main"),
    Target("datagen.gen_well_behaved", "datagen", "gen_well_behaved",
           lambda a, k, r: {"examples": _arg(a, k, 0, "num_examples")},
           ("examples",)),
    Target("datagen.split_to_clients", "datagen", "split_to_clients",
           lambda a, k, r: {"shards": len(r)}, ("shards",)),
    Target("core.as_arrays", "core", "as_arrays"),
    Target("hierarchy.build_hierarchy", "hierarchy", "build_hierarchy",
           _hierarchy_nodes, ("nodes",)),
    Target("hierarchy.build_score_histogram", "hierarchy", "build_score_histogram",
           _histogram_counts, ("leaves", "buckets")),
    Target("mechanisms.aggregated_noise", "mechanisms", "aggregated_noise",
           lambda a, k, r: {"draws": int(getattr(r, "size", 1))}, ("draws",)),
    Target("metrics.auc_histogram", "metrics", "auc_histogram"),
    Target("metrics.pra_threshold", "metrics", "pra_threshold"),
    Target("oracle.exact_pra_curve", "oracle", "exact_pra_curve"),
    # The exact-AUC entry point that sweep and cli import.
    Target("oracle.auc", "oracle", "_auc_from_arrays"),
    Target("calibration.calibrate_histogram", "calibration", "calibrate_histogram"),
    Target("calibration.calibrate_bbq", "calibration", "calibrate_bbq",
           lambda a, k, r: {"binnings": len(r.binnings)}, ("binnings",)),
    Target("calibration.apply_calibration_batch", "calibration",
           "apply_calibration_batch"),
    Target("calibration.ece_arrays", "calibration", "ece_arrays"),
    Target("io.read_data_file", "io", "read_data_file", _file_counts,
           ("rows", "bytes")),
    Target("io.write_data_file", "io", "write_data_file", _file_counts,
           ("rows", "bytes")),
    Target("io.row_to_json", "io", "row_to_json"),
]

"""fedeval benchmark: one workload, measured in fresh processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload population --seed 0 --seconds 35 --trace 0

Each call runs one workload (see ``workloads.py``) closed loop, with one
caller in one process and one thread. Set-up is timed in
``SETUP_SAMPLES`` fresh worker processes, one after the other; the
middle one then measures, so the set-up samples span the whole run.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from spans around
the fedeval functions in ``layers.py``, and untraced passes interleaved
with the traced ones give the tracing overhead. Metric names and units
are the ones BENCHMARK.json declares. The line before the result is an
``info`` object with the sample counts, the failed fraction, the output
digest, any failed checks and the machine.

End-to-end metrics, over the operations of all timed passes:

- ``ops_per_s``: operations divided by the time spent inside them;
- ``op_p50_ms``: median operation latency;
- ``op_tail_ms``: the latency with ten operations beyond it, that is the
  highest percentile that has at least ten (``info.op_tail_pct``);
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process;
- ``setup_s``: median over the set-up processes of the time from just
  before the process starts until its warm-up operation has ended.

Exits 2 without a result when the checkout holds no ``src/fedeval``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from layers import TARGETS
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(args, tmp: Path, index: int, setup_only: bool, deadline: float) -> dict:
    out = tmp / f"result-{index}.json"
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--tmp", str(tmp), "--out", str(out), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited {proc.returncode}")
    return json.loads(out.read_text())


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    latencies = sorted(record[3] for record in result["ops"])
    n = len(latencies)
    tail = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": latencies[tail] * 1000.0,
        "peak_rss_mb": result["max_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    info = {"op_tail_pct": 100.0 * (tail + 1) / n, "op_samples": n,
            "setup_samples": setup}
    return metrics, info


def per_layer(result: dict) -> dict:
    """Medians over traced passes of self time, calls and work counts."""
    ops = result["ops"]
    traced = sorted({r[0] for r in ops if r[4]})
    untraced = sorted({r[0] for r in ops if not r[4]})
    busy = {p: 0.0 for p in traced + untraced}
    for record in ops:
        busy[record[0]] += record[3]
    spans = result["spans"]
    selfs = self_times(spans)
    sums: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    covered = {p: 0.0 for p in traced}
    for span, own in zip(spans, selfs):
        name, start, _, parent, op, counts, settled = span
        sums[f"{name}.self_s"][op[0]] += own
        sums[f"{name}.calls"][op[0]] += 1
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"][op[0]] += value
        if parent < 0:
            covered[op[0]] += settled - start

    skipped = set(result["missing"])
    metrics = {}
    for target in TARGETS:
        if target.name in skipped:
            continue
        names = [f"{target.name}.self_s", f"{target.name}.calls"]
        if target.name not in result["uncounted"]:
            names += [f"{target.name}.{key}" for key in target.counts]
        for name in names:
            metrics[name] = statistics.median(sums[name][p] for p in traced)
    metrics["sweep.degenerate_frac"] = result["degenerate"] / max(result["rows"], 1)
    metrics["trace.untraced_s"] = statistics.median(busy[p] - covered[p] for p in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(busy[p] for p in traced)
        / statistics.median(busy[p] for p in untraced) - 1.0
    )
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric."""
    return {metric["name"]: metric["unit"] for metric in load_spec()[kind]}


def summarize(result: dict, setup: list[float], trace: bool) -> tuple[dict, dict]:
    """The info object and the result line for one measuring worker.

    A declared metric the run did not produce, such as the self time of
    a function that was renamed, is left out; the tracer warned of it.
    """
    problems = [p for record in result["ops"] for p in record[5]]
    failed = sum(1 for record in result["ops"] if record[5])
    attempted = len(result["ops"])
    values, info = end_to_end(result, setup)
    if trace:
        values = per_layer(result)
    units = declared("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    info.update(
        passes=len(result["digests"]), failed_frac=failed / attempted,
        output_sha256=result["digests"][0], problems=problems[:20],
        warnings=result.get("warnings", []),
    )
    return info, {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def _last_level_cache() -> str | None:
    best_level, best = 0, None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best = level, f"L{level} {size}"
    return best


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "last_level_cache": _last_level_cache(),
            "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedeval" / "__init__.py").is_file():
        print(f"perfbench: no fedeval package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            setup = []
            for index in range(SETUP_SAMPLES):
                measuring = index == SETUP_SAMPLES // 2
                sample = spawn(args, Path(tmp), index, not measuring, deadline)
                setup.append(sample["setup_s"])
                if measuring:
                    result = sample
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info, line = summarize(result, setup, bool(args.trace))
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

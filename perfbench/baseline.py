"""Record a baseline: every workload over several seeds, one run at a time.

Run from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload in BENCHMARK.json this runs ``run.py --trace 0`` once
for each of ``SEEDS`` and ``run.py --trace 1`` once at the first seed,
all for the declared ``run_seconds``. It writes each end-to-end metric's
values, median and quartile spread (as a share of the median), the first
seed's output digest, and the traced per-layer table with the function
and module that have the largest self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Ten seeds, as many runs as the quartile spread of a metric is taken over.
SEEDS = list(range(10))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def largest_self_time(per_layer: dict) -> dict:
    functions = {name[: -len(".self_s")]: value for name, value in per_layer.items()
                 if name.endswith(".self_s")}
    modules: dict[str, float] = {}
    for name, value in functions.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + value
    return {"function": max(functions, key=functions.get),
            "module": max(modules, key=modules.get),
            "module_self_s": modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1][1])}", file=sys.stderr)
        traced_info, traced = run_once(name, SEEDS[0], seconds, 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        first_info = runs[0][0]
        report["environment"] = first_info["environment"]
        report["workloads"][name] = {
            "end_to_end": {
                metric["name"]: summary([r["metrics"][metric["name"]]["value"]
                                         for _, r in runs])
                for metric in spec["end_to_end"]
            },
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "op_tail_pct": [info["op_tail_pct"] for info, _ in runs],
            "output_sha256": {"seed": SEEDS[0],
                              "digest": first_info["output_sha256"]},
            "per_layer": {"seed": SEEDS[0], "failed": traced["failed"],
                          "output_sha256": traced_info["output_sha256"],
                          "metrics": per_layer,
                          "largest_self_time": largest_self_time(per_layer),
                          "warnings": traced_info["warnings"]},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

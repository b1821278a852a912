"""Run one workload in this fresh process and write its raw measurements.

``run.py`` starts this script; it is not meant to be called by hand. It
imports fedeval from the checkout's ``src``, builds the workload from
the seed, sets up (input files plus one untimed warm-up operation), then
repeats whole passes of the workload until the next pass would end
after ``--seconds``. With ``--trace 1`` every second pass runs with the
tracer installed. The measurements go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from layers import TARGETS
from tracer import Tracer

MIN_PASSES = 2


def load_fedeval(root: Path):
    """Import fedeval from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fedeval

    if Path(fedeval.__file__).resolve().parent != src / "fedeval":
        raise SystemExit(f"perfbench: fedeval imported from {fedeval.__file__}, "
                         f"not from {src}")
    return fedeval


def run_op(op) -> tuple[float, object, list[str]]:
    """Time one operation; return its latency, outcome and problems."""
    started = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - started, None, [f"{op.name}: {exc!r}"]
    elapsed = time.perf_counter() - started
    try:
        outcome = op.settle(raw)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return elapsed, None, [f"{op.name}: unreadable output: {exc!r}"]
    return elapsed, outcome, [f"{op.name}: {p}" for p in outcome.problems]


def measure(workload, seconds: float, trace: bool, tracer: Tracer | None) -> dict:
    """Repeat passes of the workload; check each pass against the first."""
    ops = workload.ops
    first: list[str | None] = [None] * len(ops)
    records, digests = [], []
    rows = degenerate = 0
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if index >= MIN_PASSES and elapsed * (index + 1) / index > seconds:
            break
        traced = trace and index % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            pass_hash = hashlib.sha256()
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = (index, i)
                latency, outcome, problems = run_op(op)
                if outcome is not None:
                    digest = hashlib.sha256(outcome.data).hexdigest()
                    pass_hash.update(digest.encode())
                    if first[i] is None:
                        first[i] = digest
                    elif digest != first[i]:
                        problems.append(f"{op.name}: output differs from pass 0")
                    rows += outcome.rows
                    degenerate += outcome.degenerate
                records.append([index, i, op.name, latency, traced, problems])
        digests.append(pass_hash.hexdigest())
        index += 1
    return {"ops": records, "digests": digests, "rows": rows,
            "degenerate": degenerate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_fedeval(args.root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.setup()
    workload.ops[0].run()
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        tracer = Tracer(TARGETS) if args.trace else None
        result.update(measure(workload, args.seconds, bool(args.trace), tracer))
        result["spans"] = tracer.spans if tracer else []
        if tracer:
            result.update(warnings=tracer.warnings, missing=sorted(tracer.missing),
                          uncounted=sorted(tracer.uncounted))
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

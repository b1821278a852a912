"""Count how often the statistical acceptance gates pass under re-seeded noise.

Each criterion in tests/test_acceptance.py runs at frozen seeds, so a
gate may pass by the luck of one noise stream. For each salt s in
1..N this script runs the chosen criteria in a fresh Python process in
which every build_hierarchy call that draws noise (every regime but
secure_agg) has its seed mixed with s. Data, client splits and exact
trees stay as they are; salt 0 would be the identity. It prints each
criterion's outcome and its `criterion N:` lines per salt, then the
pass count out of N per criterion.

    python scripts/gate_audit.py --salts 16 --criteria 03,04,05,07,09

A failing gate is the measurement, so the exit code is 0 whatever the
gates give; it is 2 when a process could not run the criteria.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
RESULT_PREFIX = "gate_audit result: "


def salted(build, salt: int):
    """build_hierarchy with the seed of every noisy call mixed with salt.

    The salted seed is a SeedSequence of salt and four words drawn from
    the original seed, so a call gets the same tree every time it is
    made with the same seed. Salt 0 returns build itself.
    """
    if salt == 0:
        return build
    import numpy as np

    from fedeval import Regime

    def build_salted(shards, class_filter, spec, seed=None):
        if spec.regime is not Regime.SECURE_AGG:
            words = np.random.default_rng(seed).integers(2**32, size=4)
            seed = np.random.SeedSequence([salt, *words.tolist()])
        return build(shards, class_filter, spec, seed)

    return build_salted


class SaltPlugin:
    """Runs the chosen criteria with build_hierarchy salted and records them."""

    def __init__(self, salt: int, criteria: list[str]):
        self.salt = salt
        self.criteria = criteria
        self.outcomes: dict[str, str] = {}
        self.lines: dict[str, list[str]] = {c: [] for c in criteria}

    def pytest_configure(self, config):
        # Before collection, so the test module's own imports of
        # build_hierarchy already see the salted function.
        import fedeval.hierarchy

        build = fedeval.hierarchy.build_hierarchy
        wrapped = salted(build, self.salt)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "fedeval":
                continue
            if getattr(module, "build_hierarchy", None) is build:
                module.build_hierarchy = wrapped

    def _criterion(self, name: str) -> str | None:
        for criterion in self.criteria:
            if name.startswith(f"test_criterion_{criterion}_"):
                return criterion
        return None

    def pytest_collection_modifyitems(self, config, items):
        items[:] = [item for item in items if self._criterion(item.name)]

    def pytest_runtest_logreport(self, report):
        criterion = self._criterion(report.nodeid.rpartition("::")[2])
        if report.when == "call" or report.failed:
            self.outcomes[criterion] = report.outcome
        if report.when != "call":
            return
        lines = self.lines[criterion]
        for line in report.capstdout.splitlines():
            # A printed array may wrap; its rows continue the line before.
            if line.startswith("criterion "):
                lines.append(line)
            elif lines:
                lines[-1] += " " + line.strip()


def run_salt(salt: int, criteria: list[str]) -> int:
    """Run the criteria under one salt in this process and print the result."""
    import pytest

    plugin = SaltPlugin(salt, criteria)
    code = pytest.main(
        [str(ACCEPTANCE), "-q", "-p", "no:cacheprovider"], plugins=[plugin]
    )
    result = {"outcomes": plugin.outcomes, "lines": plugin.lines}
    print(RESULT_PREFIX + json.dumps(result))
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else 2


def audit_salt(salt: int, criteria: list[str]) -> dict:
    """Outcome and printed lines of each criterion under salt, from a child process."""
    cmd = [sys.executable, __file__, "--run-salt", str(salt),
           "--criteria", ",".join(criteria)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    results = [
        json.loads(line[len(RESULT_PREFIX):])
        for line in proc.stdout.splitlines()
        if line.startswith(RESULT_PREFIX)
    ]
    if proc.returncode != 0 or len(results) != 1:
        raise RuntimeError(
            f"salt {salt}: the criteria did not run (exit {proc.returncode})\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    (result,) = results
    missing = [c for c in criteria if c not in result["outcomes"]]
    if missing:
        raise RuntimeError(f"salt {salt}: no test ran for criteria {missing}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--salts", type=int, help="run salts 1..N")
    parser.add_argument(
        "--criteria",
        default="03,04,05,07,09",
        help="comma-separated two-digit criterion numbers",
    )
    parser.add_argument("--run-salt", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if not criteria:
        parser.error("--criteria must name at least one criterion")
    if args.run_salt is not None:
        return run_salt(args.run_salt, criteria)
    if args.salts is None or args.salts < 1:
        parser.error("--salts must be at least 1")

    passed = {c: 0 for c in criteria}
    for salt in range(1, args.salts + 1):
        try:
            result = audit_salt(salt, criteria)
        except RuntimeError as exc:
            print(f"gate_audit: error: {exc}", file=sys.stderr)
            return 2
        print(f"salt {salt}:")
        for criterion in criteria:
            outcome = result["outcomes"][criterion]
            passed[criterion] += outcome == "passed"
            print(f"  {criterion} {outcome}")
            for line in result["lines"][criterion]:
                print(f"    {line}")
        sys.stdout.flush()
    print("criterion  passed")
    for criterion in criteria:
        print(f"{criterion:<9}  {passed[criterion]}/{args.salts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

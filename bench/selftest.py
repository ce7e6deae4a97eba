#!/usr/bin/env python3
"""Self-test for the benchmark: every workload at its smallest size.

    python3 bench/selftest.py

Runs each workload untraced and traced with --smoke for one second and
checks that the result line holds exactly the keys correct, attempted,
failed and metrics, that the metrics are exactly those BENCHMARK.json lists
for that mode, with their units, and that no operation failed. It also checks
that --all prints every headline metric name with failed_frac, that two
Monte Carlo runs with one seed print the same report digests, and that the
benchmark exits non-zero without a result where the package sources are
missing. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run_bench import ALIASES, WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HEADLINE = {
    "design_per_s", "design_p50_ms", "design_p99_ms", "mc_trials_per_s",
    "set_distance_p50_ms", "cli_p50_ms", "setup_s", "peak_rss_mb",
}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def bench(workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return run([str(BENCH / "run_bench.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--smoke"])


def check_result(workload: str, trace: int, proc: subprocess.CompletedProcess) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(units):
        missing = set(units) - set(result["metrics"])
        extra = set(result["metrics"]) - set(units)
        errors.append(f"{where}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, m in result["metrics"].items():
        if m.get("unit") != units.get(name):
            errors.append(f"{where}: {name} has unit {m.get('unit')!r}, not {units.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {m.get('value')!r} is not a number")
        elif not trace and not m["value"] > 0:
            errors.append(f"{where}: end-to-end metric {name} is {m['value']}")
    return errors


def main() -> int:
    errors = []
    unknown = {w["name"] for w in SPEC["workloads"]} - set(WORKLOAD_NAMES)
    if unknown:
        errors.append(f"BENCHMARK.json lists unknown workloads {sorted(unknown)}")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = bench(workload, trace)
            errors += check_result(workload, trace, proc)
            if workload == "design_sweep" and trace == 0:
                probes = [l for l in proc.stdout.splitlines() if l.startswith("known-defect probe")]
                if len(probes) != 2:
                    errors.append(f"design_sweep: expected 2 known-defect probe lines, got {len(probes)}")

    digests = []
    for _ in range(2):
        proc = bench("monte_carlo", 0, seed=11)
        lines = [l.rsplit(" sha256=", 1) for l in proc.stdout.splitlines() if l.startswith("mc-digest")]
        digests.append(dict(lines))
    common = digests[0].keys() & digests[1].keys()
    if not common or any(digests[0][k] != digests[1][k] for k in common):
        errors.append("monte_carlo: report digests differ between two runs with one seed")

    proc = run([str(BENCH / "run_bench.py"), "--all", "--seed", "7", "--seconds", "1", "--smoke"])
    shown = {alias for names in ALIASES.values() for alias in names.values()} | {"setup_s", "peak_rss_mb"}
    if proc.returncode != 0:
        errors.append(f"--all: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if not HEADLINE <= shown or not all(name in proc.stdout for name in HEADLINE | {"failed_frac"}):
        errors.append("--all: a headline metric or failed_frac is not printed")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([*SPEC["command"][1:], "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            errors.append("bare directory: the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

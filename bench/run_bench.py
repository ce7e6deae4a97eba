#!/usr/bin/env python3
"""Benchmark for bountylab: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload monte_carlo --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --all --seed 1 --seconds 30    # every workload, one table

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, measured untraced; with --trace 1 they are its per-layer
metrics plus the tracing overhead. Lines before it name every failed
operation, the Monte Carlo report digests and the known-defect probes.

Each workload runs in its own single-threaded worker process. This script
spawns the set-up probes and then the worker, one process at a time, and waits
for each. Timing uses only the standard library clock.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # extra fresh processes timing set-up; the worker adds one more sample
# design_sweep runs by hand and in --all but is not listed in BENCHMARK.json:
# on the reference host its run-to-run spread exceeded the largest bound.
WORKLOAD_NAMES = ("design_sweep", "monte_carlo", "set_distance", "cli_modes")
MODES = ("equilibrium", "design", "public", "simulate", "figures", "commit", "reveal-verify", "coin")
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- worker side ---------------------------------------------------------------


def _import_package() -> float:
    """Import bountylab (and its CLI) from this checkout's src; seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bountylab
    import bountylab.cli  # noqa: F401

    if Path(bountylab.__file__).resolve().parent != SRC / "bountylab":
        raise BenchError(f"imported bountylab from {bountylab.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def _run_pass(wl, index: int, rec: dict, tracer=None) -> None:
    latency = []
    for op in wl.pass_ops(index):
        with tracer.span(op.span) if tracer else nullcontext():
            t = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
        if error is None and tracer is None:
            # checks call the library, so traced passes skip them; every
            # operation of a traced run is also run and checked untraced
            error = op.check(result)
        rec["attempted"] += 1
        if error:
            rec["failures"].append(f"FAILED {op.label}: {error}")
        latency.append(dt)
        rec["units"] += op.units
    rec["passes"].append(latency)


def _new_record() -> dict:
    return {"attempted": 0, "failures": [], "passes": [], "units": 0.0}


def _latencies(rec: dict) -> list[float]:
    return [dt for p in rec["passes"] for dt in p]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layer_metrics(tracer, setup_root: int, pass_roots: list[int], import_s: float) -> dict:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as the median over traced passes."""
    import numpy as np

    setup, *_ = tracer.aggregate([setup_root])
    passes = tracer.aggregate(pass_roots)
    first = passes[0]

    def count(name: str) -> int:
        return first.get(name, {}).get("calls", 0)

    def ms(name: str, field: str = "incl") -> float:
        return statistics.median(p.get(name, {}).get(field, 0.0) for p in passes) * 1e3

    def extras(name: str, stats: dict) -> list:
        return [tracer.extra[int(i)] for i in stats.get(name, {}).get("idx", [])]

    evals = extras("rootfind.bisect", first)
    shapes = extras("asymptotic.hausdorff", first)
    sim_idx = [int(i) for i in first.get("simulation.simulate", {}).get("idx", [])]

    def per_1e6(name: str) -> float:
        values = []
        for p in passes:
            trials = sum(extras(name, p))
            values.append(p[name]["incl"] * 1e3 / trials * 1e6 if trials else 0.0)
        return statistics.median(values)

    m: dict[str, tuple[float, str]] = {
        "costs.cdf.calls": (count("costs.cdf"), "count"),
        "costs.cdf.self_ms": (ms("costs.cdf", "self"), "ms"),
        "costs.hazard_ratio.calls": (count("costs.hazard_ratio"), "count"),
        "costs.quantile.calls": (count("costs.quantile"), "count"),
        "costs.quantile.self_ms": (ms("costs.quantile", "self"), "ms"),
        "costs.init_ms": (setup.get("costs.init", {}).get("incl", 0.0) * 1e3, "ms"),
        "rootfind.bisect.calls": (count("rootfind.bisect"), "count"),
        "rootfind.bisect.g_evals_per_call": (statistics.median_low(evals) if evals else 0, "count"),
        "rootfind.bisect.self_ms": (ms("rootfind.bisect", "self"), "ms"),
        "game.psi.calls": (count("game.psi"), "count"),
        "game.psi.self_ms": (ms("game.psi", "self"), "ms"),
        "game.solve_equilibrium.calls": (count("game.solve_equilibrium"), "count"),
        "game.solve_equilibrium.ms": (ms("game.solve_equilibrium"), "ms"),
        "design.optimize.ms": (ms("design.optimize"), "ms"),
        "design.solve_c_tilde.ms": (ms("design.solve_c_tilde"), "ms"),
        "design.solve_c_a.ms": (ms("design.solve_c_a"), "ms"),
        "design.solve_c0.ms": (ms("design.solve_c0"), "ms"),
        "design.omega.calls": (count("design.omega"), "count"),
        "asymptotic.optimize_public.ms": (ms("asymptotic.optimize_public"), "ms"),
        "asymptotic.convergence_table.ms": (ms("asymptotic.convergence_table"), "ms"),
        "asymptotic.hausdorff.ms": (ms("asymptotic.hausdorff"), "ms"),
        "asymptotic.hausdorff.pairs": (sum(n * k for n, k, _ in shapes), "count"),
        "asymptotic.hausdorff.bytes": (max((n * k * d * 8 for n, k, d in shapes), default=0), "bytes"),
        "simulation.simulate.ms_per_1e6": (per_1e6("simulation.simulate"), "ms/1e6"),
        "simulation.check_equilibrium.ms_per_1e6": (per_1e6("simulation.check_equilibrium"), "ms/1e6"),
        "simulation.uniforms_per_trial": (
            max((tracer.draws[i] // tracer.extra[i] for i in sim_idx), default=0),
            "count",
        ),
        "simulation.chunk_bytes": (tracer.max_draw * 8, "bytes"),
        "credibility.commit.ms": (ms("credibility.commit"), "ms"),
        "credibility.verify_reveal.ms": (ms("credibility.verify_reveal"), "ms"),
        "credibility.coin_resolve.ms": (ms("credibility.coin_resolve"), "ms"),
    }
    for mode in MODES:
        durations = np.concatenate([p.get(f"cli.{mode}", {}).get("dur", np.empty(0)) for p in passes])
        m[f"cli.{mode}.p50_ms"] = (float(np.median(durations)) * 1e3 if len(durations) else 0.0, "ms")
    m["cli.import_ms"] = (import_s * 1e3, "ms")
    m["cli.main.self_ms"] = (ms("cli.main", "self"), "ms")
    return {k: {"value": int(v) if u in ("count", "bytes") else float(v), "unit": u} for k, (v, u) in m.items()}


def worker_main(args) -> int:
    import_s = _import_package()
    import tracer as tracing
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            with tracer.span("bench.setup") as setup_root:
                wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
            tracer.uninstall()
        else:
            wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        setup_s = import_s + (time.perf_counter() - t0)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if tracer and args.workload == "cli_modes":
            wl.in_process = True  # the traced run calls cli.main(argv) directly
        # one untimed warm-up pass (checked and counted), then timed passes
        warm, rec, traced_rec = _new_record(), _new_record(), _new_record()
        _run_pass(wl, 0, warm)
        pass_roots: list[int] = []
        index = 1
        start = time.perf_counter()
        while True:
            _run_pass(wl, index, rec)
            if tracer:
                # alternate untraced and traced passes over the same inputs
                tracer.install()
                with tracer.span("bench.pass") as root:
                    _run_pass(wl, index, traced_rec, tracer)
                tracer.uninstall()
                pass_roots.append(root)
            index += 1
            if time.perf_counter() - start >= args.seconds:
                break
        final_attempted, final_failures, lines = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = (warm, rec, traced_rec)
    failures = [f for r in records for f in r["failures"]] + final_failures
    attempted = sum(r["attempted"] for r in records) + final_attempted
    for line in lines + failures:
        print(line)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"latency-{args.workload}-trace{int(bool(tracer))}.json").write_text(
        json.dumps({"seed": args.seed, "untraced": rec["passes"], "traced": traced_rec["passes"]})
    )
    if tracer:
        metrics = _layer_metrics(tracer, setup_root, pass_roots, import_s)
        untraced = statistics.median(_latencies(rec)) * 1e3
        traced = statistics.median(_latencies(traced_rec)) * 1e3
        metrics["trace.overhead_ms"] = {"value": traced - untraced, "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
        tracer.save(out / f"spans-{args.workload}.npz")
    else:
        lat = _latencies(rec)
        # not a listed metric: the listed workloads give fewer than ten samples beyond it
        print(f"tail: op_p99_ms={_quantile(lat, 99) * 1e3:.6g} over {len(lat)} operations")
        metrics = {
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "work_per_s": {"value": rec["units"] / sum(lat), "unit": "1/s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# -- runner side -----------------------------------------------------------------


def _spawn(argv: list[str]) -> tuple[list[str], dict]:
    """Run one worker process to completion; its info lines and result.

    The worker, and every process it starts, runs single-threaded and imports
    bountylab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", *argv],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[list[str], dict]:
    if not (SRC / "bountylab" / "__init__.py").is_file():
        raise BenchError(f"no bountylab sources under {SRC}; run from a full checkout")
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        common.append("--smoke")
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_spawn([*common, "--setup-only"])[1]["setup_s"])
    lines, result = _spawn(common)
    if not trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    return lines, {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


# Names used by the benchmark's documentation for each workload's headline metrics.
ALIASES = {
    "design_sweep": {"op_p50_ms": "design_p50_ms", "op_p99_ms": "design_p99_ms", "work_per_s": "design_per_s"},
    "monte_carlo": {"work_per_s": "mc_trials_per_s"},
    "set_distance": {"op_p50_ms": "set_distance_p50_ms"},
    "cli_modes": {"op_p50_ms": "cli_p50_ms"},
}


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced then traced, printed as one table."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            lines, result = run_workload(workload, seed, seconds, trace, smoke)
            for line in lines:
                if line.startswith("tail:") and "op_p99_ms" in ALIASES[workload]:
                    line = line.replace("op_p99_ms", f"op_p99_ms ({ALIASES[workload]['op_p99_ms']})")
                if line.startswith(("FAILED", "known-defect", "tail:")):
                    print(f"{workload}: {line}")
            frac = result["failed"] / result["attempted"]
            label = "traced" if trace else "untraced"
            print(
                f"== {workload} ({label}): correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} failed_frac={frac:.6g}"
            )
            for name, m in result["metrics"].items():
                alias = ALIASES[workload].get(name)
                shown = f"{name} ({alias})" if alias and not trace else name
                print(f"  {shown:<44} {m['value']:>16.6g} {m['unit']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs (self-test)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.worker:
            return worker_main(args)
        if args.all:
            return run_all(args.seed, args.seconds, args.smoke)
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac={frac:.6g} (failed={result['failed']} attempted={result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

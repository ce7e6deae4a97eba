"""The four benchmark workloads: inputs drawn from the seed, operations, checks.

Each workload builds its inputs in ``__init__`` (this is the set-up the
``setup_s`` metric times) and hands out one pass of operations at a time.
Every operation is one closed-loop call by a single caller; its check
returns ``None`` or the reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import bountylab as bl
from bountylab import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

RESIDUAL_TOL = 1e-10  # |Psi(c) - c| the solvers promise at a fixed point
Z_LIMIT = 5.0


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    units: float = 1.0  # work done, for work_per_s
    span: str = "bench.op"


def _seq(*parts: int) -> np.random.Generator:
    return np.random.default_rng(list(parts))


# -- design_sweep -------------------------------------------------------------

FAMILIES = ("uniform", "power", "exponential")
N_BUCKETS = ((2, 10), (10, 100), (100, 500), (500, 1000))
CONVERGENCE_N = [2, 5, 10, 50, 200, 1000]
GAMES_PER_CELL = 5


def _draw_game(rng: np.random.Generator, family: str, n_bugs: int, floor: bool, bucket: int):
    # Power laws keep alpha >= 1 and budgets stay below 4x the cost scale:
    # outside that range the seed commit has known solver defects (see
    # known_defect_probes), and the timed sweep must not fail operations.
    scale = float(rng.uniform(0.5, 2.0))
    c_low = float(rng.uniform(0.2, 1.0)) * scale if floor else 0.0
    lo, hi = N_BUCKETS[bucket]
    n = min(max(int(round(math.exp(rng.uniform(math.log(lo), math.log(hi))))), lo), hi)
    if family == "uniform":
        dist = bl.CostDistribution.uniform(c_low, c_low + scale)
    elif family == "power":
        dist = bl.CostDistribution.power(c_low, c_low + scale, float(rng.uniform(1.0, 3.0)))
    else:
        dist = bl.CostDistribution.exponential(c_low, 1.0 / scale)
    w_scale = scale * (3.0 if floor else 1.0)
    bugs = tuple(
        bl.OrganicBug(
            mu=float(rng.uniform(0.2, 1.0)),
            q=float(rng.uniform(0.2, 1.0)),
            w=float(rng.uniform(0.5, 4.0)) * w_scale,
        )
        for _ in range(n_bugs)
    )
    budget = scale * math.exp(rng.uniform(math.log(0.2), math.log(4.0)))
    return bl.GameConfig(n=n, bugs=bugs, dist=dist, budget=budget)


def _fixed_point_error(what: str, c: float, prizes, config) -> str | None:
    """Residual check for a threshold solved as a fixed point of Psi."""
    dist = config.dist
    gap = bl.expected_benefit_psi(c, prizes, config) - c
    if c == dist.c_low:
        ok = gap <= RESIDUAL_TOL
    elif c == dist.upper_bound():
        # pinned at a finite endpoint is an answer; pinned at the truncated
        # end of an unbounded support while Psi - c > 0 is not
        ok = gap >= -RESIDUAL_TOL if math.isfinite(dist.c_high) else gap <= 0.0
    else:
        ok = abs(gap) <= RESIDUAL_TOL
    return None if ok else f"{what}={c!r}: Psi(c)-c={gap:.3e}"


def _check_design(config, result) -> str | None:
    report, outcome, table = result
    L = len(config.bugs)
    problems = [_fixed_point_error("c_star", outcome.c_star, report.canonical_prizes, config)]
    all_on_a = bl.PrizeSchedule(v=(0.0,) * L, artificial=(bl.ArtificialBugDesign(config.budget, 1.0),))
    problems.append(_fixed_point_error("c_a", report.c_a, all_on_a, config))
    for l, c_l in enumerate(report.per_bug_c):
        v = [0.0] * L
        v[l] = config.budget
        problems.append(_fixed_point_error(f"c_0[{l}]", c_l, bl.PrizeSchedule.organic_only(v), config))
    if abs(outcome.c_star - report.c_hat_star) > RESIDUAL_TOL:
        problems.append(f"round trip c_star={outcome.c_star!r} != c_hat_star={report.c_hat_star!r}")
    if table is not None and not all(math.isfinite(row["c_n"]) for row in table):
        problems.append("non-finite c_n in convergence_table")
    problems = [p for p in problems if p]
    return "; ".join(problems) or None


def _design_op(config):
    report = bl.optimize(config)
    outcome = bl.solve_equilibrium(report.canonical_prizes, config)
    table = None
    if config.dist.c_low > 0.0:
        bl.optimize_public(config)
        table = bl.convergence_table(config, report.canonical_prizes, CONVERGENCE_N)
    return report, outcome, table


def known_defect_probes() -> list[str]:
    """Inputs kept out of the timed sweep because the seed commit fails them.

    Run through the same check as every sweep operation; each line says
    whether the check still flags the input.
    """
    bug = (bl.OrganicBug(0.5, 0.5, 1.0),)
    cases = [
        # exponential support truncated at the 1 - 1e-12 quantile
        ("exponential_truncation", bl.GameConfig(2, bug, bl.CostDistribution.exponential(0.0, 1.0), 100.0)),
        # steep power law (alpha < 1): bisection width 1e-13 leaves |Psi - c| > 1e-10
        ("steep_power_residual", bl.GameConfig(500, bug, bl.CostDistribution.power(0.5, 1.5, 0.5), 1.0)),
    ]
    lines = []
    for name, config in cases:
        all_on_a = bl.PrizeSchedule(v=(0.0,), artificial=(bl.ArtificialBugDesign(config.budget, 1.0),))
        error = _fixed_point_error("c_a", bl.solve_c_a(config.budget, config), all_on_a, config)
        status = f"flagged ({error})" if error else "not flagged"
        lines.append(f"known-defect probe {name}: {status}")
    return lines


class DesignSweep:
    """Random games over the three cost families, L = 1..4, n = 2..1000, with
    and without a positive cost floor; stratified so every seed draws the
    same mix of cells."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = _seq(seed, 1)
        cells = [
            (family, n_bugs, floor)
            for family in FAMILIES
            for n_bugs in range(1, 5)
            for floor in (False, True)
        ]
        if smoke:
            draws = [(*cell, k % len(N_BUCKETS)) for k, cell in enumerate(cells)]
        else:
            draws = [
                (*cell, bucket)
                for cell in cells
                for bucket in range(len(N_BUCKETS))
                for _ in range(GAMES_PER_CELL)
            ]
        games = [_draw_game(rng, *draw) for draw in draws]
        self.games = [games[i] for i in rng.permutation(len(games))]

    def pass_ops(self, index: int) -> list[Op]:
        ops = []
        for i, config in enumerate(self.games):
            label = (
                f"game{i}({config.dist.kind},L={len(config.bugs)},n={config.n},"
                f"c_low={config.dist.c_low:.3g},budget={config.budget:.3g})"
            )
            ops.append(
                Op(
                    label,
                    lambda config=config: _design_op(config),
                    lambda result, config=config: _check_design(config, result),
                )
            )
        return ops

    def finish(self) -> tuple[int, list[str], list[str]]:
        return 0, [], known_defect_probes()


# -- monte_carlo ----------------------------------------------------------------


def _report_digest(obj) -> str:
    h = hashlib.sha256()
    if isinstance(obj, bl.SimReport):
        h.update(f"{obj.trials}|{obj.seed}|{float(obj.threshold).hex()}".encode())
        for s in obj.rows():
            h.update(f"|{s.name}:{float(s.estimate).hex()}:{float(s.std_error).hex()}:{float(s.closed_form).hex()}".encode())
    else:
        h.update(f"{float(obj.estimate).hex()}:{float(obj.std_error).hex()}:{float(obj.c_star).hex()}".encode())
    return h.hexdigest()[:16]


def _z(estimate: float, std_error: float, expected: float) -> float:
    if std_error == 0.0:
        return 0.0 if estimate == expected else math.inf
    return (estimate - expected) / std_error


class MonteCarlo:
    """simulate and check_equilibrium at the equilibrium threshold of four
    fixed games; the seed only picks the random streams."""

    TRIALS = {"private_k1": 1 << 19, "power_n8": 1 << 17, "exp_n8": 1 << 17, "power_n64": 1 << 16}
    SMOKE_TRIALS = 1 << 12

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        private = bl.GameConfig(2, (bl.OrganicBug(0.5, 0.5, 2.0),), bl.CostDistribution.uniform(0.0, 1.0), 0.5)
        bugs = (bl.OrganicBug(0.6, 0.5, 1.0), bl.OrganicBug(0.4, 0.3, 2.0), bl.OrganicBug(0.8, 0.7, 0.5))
        prizes = bl.PrizeSchedule(v=(0.3, 0.2, 0.1), artificial=(bl.ArtificialBugDesign(0.2, 0.6),))
        power = bl.CostDistribution.power(0.0, 1.0, 2.0)
        games = {
            "private_k1": (private, bl.optimize(private).canonical_prizes),
            "power_n8": (bl.GameConfig(8, bugs, power, 1.0), prizes),
            "exp_n8": (bl.GameConfig(8, bugs, bl.CostDistribution.exponential(0.0, 2.0), 1.0), prizes),
            "power_n64": (bl.GameConfig(64, bugs, power, 1.0), prizes),
        }
        self.configs = []
        for name, (game, sched) in games.items():
            threshold = bl.solve_equilibrium(sched, game).c_star
            trials = self.SMOKE_TRIALS if smoke else self.TRIALS[name]
            self.configs.append((name, game, sched, threshold, trials))
        self.digests: dict[tuple[str, str, int], str] = {}
        self.lines: list[str] = []

    def _sim_seed(self, index: int) -> int:
        return (self.seed * 1_000_003 + index) % 2**64

    def _ops(self, index: int, record: bool) -> list[Op]:
        sim_seed = self._sim_seed(index)
        ops = []
        for name, game, sched, threshold, trials in self.configs:
            sim = bl.SimConfig(trials=trials, seed=sim_seed, threshold=threshold)
            for kind in ("simulate", "check_equilibrium"):
                call = (lambda g=game, p=sched, s=sim, k=kind: getattr(bl, k)(p, g, s))
                check = (lambda result, key=(name, kind, sim_seed): self._check(key, result, record))
                ops.append(Op(f"{name}.{kind}(seed={sim_seed})", call, check, units=float(trials)))
        return ops

    def pass_ops(self, index: int) -> list[Op]:
        return self._ops(index, record=True)

    def _check(self, key, result, record: bool) -> str | None:
        digest = _report_digest(result)
        if record:
            self.digests.setdefault(key, digest)
            self.lines.append(f"mc-digest {key[0]} {key[1]} seed={key[2]} sha256={digest}")
        elif self.digests.get(key) != digest:
            return f"digest {digest} differs from first run {self.digests.get(key)}"
        if isinstance(result, bl.SimReport):
            bad = [f"{s.name} z={s.z_score:.2f}" for s in result.rows() if not abs(s.z_score) <= Z_LIMIT]
        else:
            z = _z(result.estimate, result.std_error, result.c_star)
            bad = [] if abs(z) <= Z_LIMIT else [f"deviation gap z={z:.2f}"]
        return ", ".join(bad) or None

    def finish(self) -> tuple[int, list[str], list[str]]:
        """Re-run the first pass untimed: every report must be bit-identical."""
        ops = self._ops(0, record=False)
        failures = []
        for op in ops:
            error = op.check(op.call())
            if error:
                failures.append(f"FAILED {op.label} rerun: {error}")
        return len(ops), failures, self.lines


# -- set_distance -----------------------------------------------------------------


class SetDistance:
    """Figure-5 sweep on the two-bug config: q_a in {1/3, 1/2, 1} x n in
    {5, 20, 100, 500}, sampled at step 0.05; the seed orders each pass."""

    Q_A = (1.0 / 3.0, 0.5, 1.0)
    N = (5, 20, 100, 500)
    STEP = 0.05

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.config = bl.GameConfig(
            n=2,
            bugs=(bl.OrganicBug(0.5, 0.5, 10.0), bl.OrganicBug(0.5, 0.4, 8.0)),
            dist=bl.CostDistribution.uniform(1.0, 2.0),
            budget=6.0,
        )
        self.cases = [(q, n) for q in self.Q_A for n in self.N]
        if smoke:
            self.cases = self.cases[:1]
        # an exact set distance would have no sampling step: pass it only while accepted
        params = inspect.signature(bl.solution_set_distance).parameters
        self.kwargs = {"sample_step": self.STEP} if "sample_step" in params else {}
        self.first: dict[tuple[float, int], float] = {}

    def pass_ops(self, index: int) -> list[Op]:
        order = _seq(self.seed, 3, index).permutation(len(self.cases))
        ops = []
        for k in order:
            q_a, n = self.cases[k]
            call = (lambda q_a=q_a, n=n: bl.solution_set_distance(self.config, n, q_a, **self.kwargs))
            ops.append(Op(f"solution_set_distance(q_a={q_a:.4g}, n={n})", call, lambda r, key=(q_a, n): self._check(key, r)))
        return ops

    def _check(self, key, result) -> str | None:
        if not result.feasible:
            return "infeasible slice"
        if not math.isfinite(result.distance):
            return f"non-finite distance {result.distance!r}"
        if self.first.setdefault(key, result.distance) != result.distance:
            return f"distance {result.distance!r} differs from first call {self.first[key]!r}"
        return None

    def finish(self) -> tuple[int, list[str], list[str]]:
        return 0, [], []


# -- cli_modes ----------------------------------------------------------------------

PRIVATE_GAME = {
    "n": 2,
    "budget": 0.5,
    "dist": {"kind": "uniform", "c_low": 0.0, "c_high": 1.0},
    "bugs": [{"mu": 0.5, "q": 0.5, "w": 2.0}],
}
PUBLIC_GAME = {
    "n": 2,
    "budget": 5.0,
    "dist": {"kind": "uniform", "c_low": 1.0, "c_high": 2.0},
    "bugs": [{"mu": 0.5, "q": 0.5, "w": 10.0}],
}
CANONICAL = {"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]}
DESIGN_EXACT = {"c_tilde": 2 / 9, "c_hat_star": 2 / 9, "c_0": 4 / 33, "utility_at_optimum": 1 / 9, "spend": 1 / 4}
ZERO_SALT = "00" * 32
TIMESTAMP = "2026-01-01T00:00:00Z"


def _read_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class CliModes:
    """One bountylab process per invocation, all eight modes per pass; the
    traced run calls cli.main(argv) in process instead."""

    MODES = ("equilibrium", "design", "public", "simulate", "figures", "commit", "reveal-verify", "coin")

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.dir = workdir
        self.in_process = False
        self.sim_trials = 10**4 if smoke else 10**5
        self.sim_seed = seed % 2**64
        configs = {
            "equilibrium": {"spec_version": 1, "game": PRIVATE_GAME, "prizes": CANONICAL},
            "public": {"spec_version": 1, "game": PUBLIC_GAME, "prizes": {"v": [5.0]}},
            "simulate": {"spec_version": 1, "game": PRIVATE_GAME, "prizes": CANONICAL},
            "figures": {"spec_version": 1, "game": PUBLIC_GAME, "prizes": {"v": [5.0]}},
        }
        for mode, cfg in configs.items():
            (workdir / f"{mode}.json").write_text(json.dumps(cfg), encoding="utf-8")
        self.payload = workdir / "payload.bin"
        shutil.copyfile(DATA / "payload.bin", self.payload)
        self.golden_commitment = (DATA / "golden_commitment.txt").read_bytes()
        # expected c_star of the equilibrium config, from the library in process
        private = bl.GameConfig(
            2, (bl.OrganicBug(0.5, 0.5, 2.0),), bl.CostDistribution.uniform(0.0, 1.0), 0.5
        )
        canonical = bl.PrizeSchedule(v=(0.0,), artificial=(bl.ArtificialBugDesign(0.25, 1.0),))
        self.expected_c_star = bl.solve_equilibrium(canonical, private).c_star
        # insertion coin: a committed 32-byte seed and a public beacon from the seed
        coin_seed = hashlib.sha256(f"coin-seed-{seed}".encode()).digest()
        self.beacon = hashlib.sha256(f"beacon-{seed}".encode()).hexdigest()
        (workdir / "coin").mkdir(exist_ok=True)
        (workdir / "coin" / "seed.bin").write_bytes(coin_seed)
        record = bl.commit(coin_seed, salt=bytes(32), created_at=TIMESTAMP)
        bl.write_commitment_file(record, workdir / "coin" / "commitment.txt")
        bl.write_reveal_file(bytes(32), "seed.bin", workdir / "coin" / "reveal.txt")
        r = int.from_bytes(hashlib.sha256(coin_seed + bytes.fromhex(self.beacon)).digest(), "big")
        self.expected_insert = r < int(Fraction(0.5) * (1 << 256))

    def argv(self, mode: str) -> list[str]:
        d = self.dir
        out = str(d / f"out-{mode}")
        if mode in ("equilibrium", "public", "simulate", "figures"):
            argv = [mode, "--config", str(d / f"{mode}.json"), "--out", out]
            if mode == "simulate":
                argv += ["--seed", str(self.sim_seed), "--trials", str(self.sim_trials)]
            return argv
        if mode == "design":
            return ["design", "--config", str(DATA / "private_example.json"), "--out", out]
        if mode == "commit":
            return ["commit", "--payload", str(self.payload), "--salt-hex", ZERO_SALT, "--timestamp", TIMESTAMP, "--out", out]
        if mode == "reveal-verify":
            c = d / "out-commit"
            return ["reveal-verify", "--commitment", str(c / "commitment.txt"), "--reveal", str(c / "reveal.txt")]
        c = d / "coin"
        return ["coin", "--commitment", str(c / "commitment.txt"), "--reveal", str(c / "reveal.txt"), "--beacon", self.beacon, "--mu-a", "0.5"]

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()
        # inherits the worker's environment: one thread, this checkout's src
        proc = subprocess.run(
            [sys.executable, "-m", "bountylab.cli", *argv],
            cwd=self.dir,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def pass_ops(self, index: int) -> list[Op]:
        return [
            Op(f"bountylab {mode}", lambda argv=self.argv(mode): self._run(argv), lambda r, mode=mode: self._check(mode, r), span=f"cli.{mode}")
            for mode in self.MODES
        ]

    def _check(self, mode: str, result: tuple[int, str]) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        out = self.dir / f"out-{mode}"
        if mode == "equilibrium":
            c_star = float(_read_rows(out / "equilibrium.csv")[0]["c_star"])
            if c_star != self.expected_c_star:
                return f"c_star {c_star!r} != library {self.expected_c_star!r}"
        elif mode == "design":
            row = _read_rows(out / "design_report.csv")[0]
            bad = [k for k, exact in DESIGN_EXACT.items() if not abs(float(row[k]) - exact) <= 1e-12]
            if bad:
                return "design CSV off the analytic values in " + ", ".join(bad)
        elif mode == "public":
            row = _read_rows(out / "public_report.csv")[0]
            if not float(row["kappa_hat_star"]) > 0.0:
                return "public optimum kappa_hat_star is not positive"
        elif mode == "simulate":
            bad = [r["statistic"] for r in _read_rows(out / "sim_report.csv") if not abs(float(r["z_score"])) <= Z_LIMIT]
            if bad:
                return "simulate z-scores beyond 5: " + ", ".join(bad)
        elif mode == "figures":
            if len(stdout.split()) != 7:
                return f"expected 7 figure files, got {len(stdout.split())}"
            if not all(math.isfinite(float(r["d_hausdorff"])) for r in _read_rows(out / "fig5_set_distances.csv")):
                return "non-finite figure-5 distance"
        elif mode == "commit":
            if (out / "commitment.txt").read_bytes() != self.golden_commitment:
                return "commitment.txt differs from tests/data/golden_commitment.txt"
        elif mode == "reveal-verify":
            if stdout.strip() != "verified: true":
                return f"unexpected output {stdout.strip()!r}"
        elif stdout.strip() != f"insert: {'true' if self.expected_insert else 'false'}":
            return f"coin says {stdout.strip()!r}, expected insert={self.expected_insert}"
        return None

    def finish(self) -> tuple[int, list[str], list[str]]:
        return 0, [], []


WORKLOADS = {
    "design_sweep": DesignSweep,
    "monte_carlo": MonteCarlo,
    "set_distance": SetDistance,
    "cli_modes": CliModes,
}

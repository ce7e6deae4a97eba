"""Command-line front end: validated JSON configs in, CSV datasets out.

Subcommands: equilibrium, design, public, simulate, figures, commit,
reveal-verify, coin. Outputs are deterministic given the config bytes (and
seed for simulation modes). Exit codes: 0 success, 1 failed protocol
verification, 2 config or argument validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

# layers are reached as module attributes at call time, so a mode executes
# only the layers it uses (see the package docstring)
from . import asymptotic, costs, credibility, design, game, simulation

SPEC_VERSION = 1

MAX_GRID_POINTS = 10**4  # figures 1 to 4 hold grid_points rows per curve

# figures parameters: default, entry type, the range each entry must lie in and
# its message ({n_max}: game.MAX_TABLE_N), and the noun of a list that must not
# be empty (None: it may be); grid_points is the one scalar
_FIGURE_PARAMS = {
    "which": ([1, 2, 3, 4, 5], int, lambda w: 1 <= w <= 5, "figure numbers must lie in 1..5", "figure"),
    "w_list": ([2.0, 4.0, 6.0], float, lambda w: w >= 0.0, "bug values must be >= 0", None),
    "q_a_fig1": ([0.2, 0.5, 1.0], float, lambda q: 0.0 < q <= 1.0, "q_a values must lie in (0, 1]", None),
    "q_a_fig5": ([1 / 3, 0.5, 1.0], float, lambda q: 0.0 < q <= 1.0, "q_a values must lie in (0, 1]", None),
    "grid_points": (
        201, int, lambda g: 0 <= g <= MAX_GRID_POINTS, f"grid_points must lie in [0, {MAX_GRID_POINTS}]", None
    ),
    "n_list_curves": (
        [2, 5, 10, 50, 200, 1000], int,
        lambda n: 1 <= n <= game.MAX_TABLE_N, "n values must lie in [1, {n_max}]", "n",
    ),
    "n_list_distance": (
        [5, 20, 100, 500], int,
        lambda n: 2 <= n <= game.MAX_TABLE_N, "n values must lie in [2, {n_max}]", "n",
    ),
}

# each cost family's fields, in the order its CostDistribution constructor of
# the same name reads them
_DIST_FAMILIES = {
    "uniform": ("c_low", "c_high"),
    "power": ("c_low", "c_high", "alpha"),
    "exponential": ("c_low", "rate"),
}

# the optional top-level fields and their types
_OPTIONAL_FIELDS = {
    "mode": str, "prizes": dict, "output_dir": str, "seed": int,
    "trials": int, "threshold": float, "n_list": list, "figures": dict,
}

# One output file: (file name, header, rows).
Table = tuple[str, list[str], list[list]]


class ConfigError(Exception):
    """Validation failure; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _linspace(lo: float, hi: float, k: int) -> list[float]:
    """``k`` evenly spaced floats from ``lo`` to ``hi``, equal bit for bit to
    ``numpy.linspace(lo, hi, k).tolist()``."""
    if k <= 1:
        return [lo + 0.0 * (hi - lo)] * k
    step = (hi - lo) / (k - 1)
    if step == 0.0:  # the span is subnormal: numpy scales i / (k - 1) instead
        return [lo + i / (k - 1) * (hi - lo) for i in range(k - 1)] + [hi]
    return [lo + i * step for i in range(k - 1)] + [hi]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv  # here, not at module level: the protocol modes write no CSV

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _check(value, path: str, kind):
    """``value`` as a ``kind``: a float must be finite (an int is widened to
    one), and a bool passes only as a bool."""
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # exact int/float comparison: rejects inf, nan and ints beyond float range
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(path, "expected a finite number")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(path, f"expected {kind.__name__}")
    return value


def _get(obj: dict, key: str, path: str, kind, required: bool = True):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return None
    return _check(obj[key], f"{path}.{key}", kind)


def _check_figure_param(value, path: str, key: str) -> None:
    """Check ``value`` against the figures parameter ``key``: a list of
    entries (or, for grid_points, one value) of its type, each in its range."""
    default, kind, in_range, message, noun = _FIGURE_PARAMS[key]
    if not isinstance(default, list):
        value = [_check(value, path, kind)]
    else:
        try:
            for x in _check(value, path, list):
                _check(x, path, kind)
        except ConfigError:
            plural = "integers" if kind is int else "finite numbers"
            raise ConfigError(path, f"expected a list of {plural}") from None
        if noun and not value:
            raise ConfigError(path, f"the {noun} list must not be empty")
    if not all(in_range(x) for x in value):
        raise ConfigError(path, message.format(n_max=game.MAX_TABLE_N))


def _parse_objects(items: list, path: str, cls) -> tuple:
    """Each entry of ``items`` as ``cls``, its float fields checked under ``path[i]``."""
    names = cls.__match_args__
    parsed = []
    for i, item in enumerate(items):
        item_path = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(item_path, "expected object")
        _check_keys(item, set(names), item_path)
        try:
            parsed.append(cls(**{name: _get(item, name, item_path, float) for name in names}))
        except ValueError as exc:
            raise ConfigError(item_path, str(exc)) from exc
    return tuple(parsed)


def _parse_dist(obj: dict, path: str) -> costs.CostDistribution:
    _check_keys(obj, {"kind", "c_low", "c_high", "alpha", "rate"}, path)
    kind = _get(obj, "kind", path, str)
    if kind not in _DIST_FAMILIES:
        raise ConfigError(f"{path}.kind", f"unknown distribution kind {kind!r}")
    fields = _DIST_FAMILIES[kind]
    for key, family in (("alpha", "power"), ("rate", "exponential")):
        if key in obj and key not in fields:
            raise ConfigError(f"{path}.{key}", f"only valid for the {family} family")
    if "c_high" not in fields and obj.get("c_high") is not None:
        raise ConfigError(f"{path}.c_high", "the exponential family takes c_high = null")
    params = {"alpha": 1.0, "rate": 1.0, **obj}  # a missing alpha or rate reads 1.0
    try:
        return getattr(costs.CostDistribution, kind)(*[_get(params, key, path, float) for key in fields])
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_game(obj: dict, path: str) -> game.GameConfig:
    _check_keys(obj, {"n", "budget", "dist", "bugs"}, path)
    n = _get(obj, "n", path, int)
    budget = _get(obj, "budget", path, float)
    dist = _parse_dist(_get(obj, "dist", path, dict), f"{path}.dist")
    bugs = _parse_objects(_get(obj, "bugs", path, list), f"{path}.bugs", game.OrganicBug)
    try:
        return game.GameConfig(n=n, bugs=bugs, dist=dist, budget=budget)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_prizes(obj: dict, path: str, n_bugs: int) -> game.PrizeSchedule:
    _check_keys(obj, {"v", "artificial"}, path)
    v = _get(obj, "v", path, list)
    if len(v) != n_bugs:
        raise ConfigError(f"{path}.v", f"expected {n_bugs} entries, got {len(v)}")
    artificial = _parse_objects(
        _get(obj, "artificial", path, list, required=False) or [],
        f"{path}.artificial",
        game.ArtificialBugDesign,
    )
    v = [_check(x, f"{path}.v[{i}]", float) for i, x in enumerate(v)]
    try:
        return game.PrizeSchedule(v=tuple(v), artificial=artificial)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_figures(obj: dict, path: str) -> dict:
    _check_keys(obj, set(_FIGURE_PARAMS), path)
    params = {key: obj.get(key, spec[0]) for key, spec in _FIGURE_PARAMS.items()}
    for key, value in params.items():
        _check_figure_param(value, f"{path}.{key}", key)
    return params


class RunConfig:
    """Parsed, validated run configuration: ``game``, ``figures`` and each
    optional top-level field (None when absent)."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("$", "top-level value must be an object")
        _check_keys(raw, {"spec_version", "game", *_OPTIONAL_FIELDS}, "$")
        if _get(raw, "spec_version", "$", int) != SPEC_VERSION:
            raise ConfigError("$.spec_version", f"expected {SPEC_VERSION}")
        for key, kind in _OPTIONAL_FIELDS.items():
            setattr(self, key, _get(raw, key, "$", kind, required=False))
        if self.mode is not None and self.mode not in MODES:
            raise ConfigError("$.mode", f"unknown mode {self.mode!r}")
        self.game = _parse_game(_get(raw, "game", "$", dict), "$.game")
        if self.prizes is not None:
            self.prizes = _parse_prizes(self.prizes, "$.prizes", len(self.game.bugs))
        if self.n_list is not None:
            # n_list stands in for figures.n_list_curves, so it obeys the same rules
            _check_figure_param(self.n_list, "$.n_list", "n_list_curves")
        self.figures = _parse_figures(self.figures or {}, "$.figures")


def _load_config(path: str) -> RunConfig:
    import json  # here, not at module level: the protocol modes read no config

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$ (line {exc.lineno})", f"invalid JSON: {exc.msg}") from exc
    return RunConfig(raw)


# -- config modes: each maps a RunConfig to the tables it outputs ---------------


def _fields(obj, names: str) -> list[tuple[str, object]]:
    """(name, value) columns read off same-named attributes of ``obj``."""
    return [(name, getattr(obj, name)) for name in names.split()]


def _one_row(name: str, columns: list[tuple[str, object]]) -> Table:
    return name, [key for key, _ in columns], [[value for _, value in columns]]


def _equilibrium(cfg: RunConfig) -> list[Table]:
    if cfg.prizes is None:
        raise ConfigError("$.prizes", "equilibrium mode requires a prize schedule")
    outcome = game.solve_equilibrium(cfg.prizes, cfg.game)
    columns = _fields(outcome, "c_star boundary participation expected_payout designer_utility")
    for l, (cond, uncond) in enumerate(
        zip(outcome.detect_organic_conditional, outcome.detect_organic_unconditional), start=1
    ):
        columns += [(f"detect_cond_bug_{l}", cond), (f"detect_uncond_bug_{l}", uncond)]
    for k, det in enumerate(outcome.detect_artificial, start=1):
        columns.append((f"detect_artificial_{k}", det))
    return [_one_row("equilibrium.csv", columns)]


def _schedule_columns(schedule: game.PrizeSchedule) -> list[tuple[str, object]]:
    columns = [(f"v_bug_{l}", v) for l, v in enumerate(schedule.v, start=1)]
    art = schedule.artificial[0] if schedule.artificial else game.ArtificialBugDesign(0.0, 0.0)
    return columns + [("v_a", art.v_a), ("q_a", art.q_a)]


def _design(cfg: RunConfig) -> list[Table]:
    report = design.optimize(cfg.game)
    columns = _fields(
        report, "c_tilde c_a c_0 c_hat_star beneficial marginal utility_at_optimum spend"
    )
    columns += _schedule_columns(report.canonical_prizes)
    columns += [(f"c_l_bug_{l}", c_l) for l, c_l in enumerate(report.per_bug_c, start=1)]
    columns.append(("best_bug", report.best_bug + 1))
    return [_one_row("design_report.csv", columns)]


def _public(cfg: RunConfig) -> list[Table]:
    report = asymptotic.optimize_public(cfg.game)
    columns = _fields(
        report, "kappa_tilde kappa_a kappa_0 kappa_hat_star beneficial marginal utility_at_optimum"
    )
    columns += _schedule_columns(report.prizes)
    columns += [(f"kappa_l_bug_{l}", k) for l, k in enumerate(report.per_bug_kappa, start=1)]
    columns += [("best_bug", report.best_bug + 1)]
    columns += [("assumption_notes", ";".join(report.assumption_notes))]
    tables = [_one_row("public_report.csv", columns)]
    if cfg.prizes is not None:
        outcome = asymptotic.solve_kappa_star(cfg.prizes, cfg.game)
        columns = _fields(outcome, "kappa_star trivial utility_inf")
        columns += [(f"detect_inf_bug_{l}", p) for l, p in enumerate(outcome.detect_inf, start=1)]
        tables.append(_one_row("public_outcome.csv", columns))
    return tables


def _simulate(cfg: RunConfig) -> list[Table]:
    if cfg.prizes is None:
        raise ConfigError("$.prizes", "simulate mode requires a prize schedule")
    if cfg.seed is None:
        raise ConfigError("$.seed", "simulate mode requires a seed")
    if cfg.trials is None:
        raise ConfigError("$.trials", "simulate mode requires a trial count")
    threshold = cfg.threshold
    if threshold is None:
        threshold = game.solve_equilibrium(cfg.prizes, cfg.game).c_star
    try:
        sim = simulation.SimConfig(trials=cfg.trials, seed=cfg.seed, threshold=threshold)
        report = simulation.simulate(cfg.prizes, cfg.game, sim)
    except ValueError as exc:
        field = str(exc).split()[0]  # the messages open with the field name
        path = {"seed": "$.seed", "trials": "$.trials", "n": "$.game.n"}.get(field, "$.threshold")
        raise ConfigError(path, str(exc)) from exc
    header = ["statistic", "estimate", "std_error", "closed_form", "z_score"]
    rows = [[s.name, s.estimate, s.std_error, s.closed_form, s.z_score] for s in report.rows()]
    return [("sim_report.csv", header, rows)]


def _figures(cfg: RunConfig) -> list[Table]:
    params = cfg.figures
    config = cfg.game
    which = set(params["which"])
    if which & {3, 4} and cfg.prizes is None:
        raise ConfigError("$.prizes", "figures 3 and 4 require a prize schedule")
    if which & {3, 4, 5} and config.dist.c_low <= 0.0:
        raise ConfigError("$.game.dist.c_low", "figures 3 to 5 require c_low > 0")
    grid_points = params["grid_points"]
    lo = max(config.dist.c_low, 0.0)
    hi = config.dist.upper_bound()
    c_grid = _linspace(lo, hi, grid_points)
    tables: list[Table] = []

    if 1 in which:
        if len(config.bugs) != 1:
            raise ConfigError("$.game.bugs", "figure 1 needs exactly one organic bug")
        c_target = design.solve_c_tilde(config)
        rows = []
        for q_a in params["q_a_fig1"]:
            a_org, a_art = design.solution_set(config, c_target, q_a).coeffs
            if not (a_art > 0.0 and math.isfinite(c_target / a_art)):
                raise ConfigError("$.figures.q_a_fig1", f"q_a = {q_a} leaves v_a unbounded")
            v_max = c_target / a_org if a_org > 0 else 0.0
            if not math.isfinite(v_max):
                raise ConfigError("$.game.bugs[0].q", f"q = {config.bugs[0].q} leaves v unbounded")
            for v in _linspace(0.0, v_max, grid_points):
                rows.append([f"qa_{q_a:.6g}", q_a, v, (c_target - a_org * v) / a_art])
        for v in _linspace(0.0, config.budget, grid_points):
            rows.append(["budget", "", v, config.budget - v])
        tables.append(("fig1_solution_sets.csv", ["curve", "q_a", "v", "v_a"], rows))

    if 2 in which:
        rows = []
        for w in params["w_list"]:
            bugs = tuple(game.OrganicBug(mu=b.mu, q=b.q, w=float(w)) for b in config.bugs)
            game_w = game.GameConfig(n=config.n, bugs=bugs, dist=config.dist, budget=config.budget)
            for c_hat in c_grid:
                rows.append([w, c_hat, design.designer_utility(float(c_hat), game_w)])
        tables.append(("fig2_utility_curves.csv", ["w", "c_hat", "W"], rows))
        markers = [
            ["c_0", design.solve_c0(config.budget, config).c_0],
            ["c_a", design.solve_c_a(config.budget, config)],
        ]
        tables.append(("fig2_markers.csv", ["name", "value"], markers))

    if which & {3, 4}:
        n_list = cfg.n_list or params["n_list_curves"]
        curve_rows, scaled_rows = [], []
        for n in n_list:
            game_n = config.with_n(int(n))
            for c_hat in c_grid:
                w_n = design.designer_utility(float(c_hat), game_n)
                curve_rows.append([n, c_hat, w_n])
                scaled_rows.append([n, n * config.dist.cdf(float(c_hat)), w_n])
        if 3 in which:
            tables.append(("fig3_utility_convergence.csv", ["n", "c_hat", "W_n"], curve_rows))
        if 4 in which:
            header = ["n", "n_F_c_hat", "W_n"]
            tables.append(("fig4_utility_convergence_scaled.csv", header, scaled_rows))
        table = asymptotic.convergence_table(config, cfg.prizes, [int(n) for n in n_list])
        header = list(table[0].keys())
        tables.append(("convergence_table.csv", header, [[r[k] for k in header] for r in table]))

    if 5 in which:
        rows = []
        for q_a in params["q_a_fig5"]:
            for n in params["n_list_distance"]:
                result = asymptotic.solution_set_distance(config, int(n), float(q_a))
                if not result.feasible:
                    raise ConfigError(
                        "$.figures.q_a_fig5",
                        f"infeasible slice at q_a={q_a}, n={n}: no budget-feasible prizes",
                    )
                rows.append([q_a, n, result.distance])
        tables.append(("fig5_set_distances.csv", ["q_a", "n", "d_hausdorff"], rows))

    return tables


CONFIG_MODES = {
    "equilibrium": _equilibrium,
    "design": _design,
    "public": _public,
    "simulate": _simulate,
    "figures": _figures,
}
MODES = (*CONFIG_MODES, "commit", "reveal-verify", "coin")


def _run_config_mode(args) -> int:
    cfg = _load_config(args.config)
    if cfg.mode is not None and cfg.mode != args.command:
        message = f"config says {cfg.mode!r} but subcommand is {args.command!r}"
        raise ConfigError("$.mode", message)
    cfg.seed = cfg.seed if args.seed is None else args.seed
    cfg.trials = cfg.trials if args.trials is None else args.trials
    # the mode computes every table before any is written: a failed run leaves no CSV
    tables = CONFIG_MODES[args.command](cfg)
    for name, header, rows in tables:
        for row in rows:
            for key, x in zip(header, row):
                if isinstance(x, float) and math.isinf(x):
                    raise ValueError(f"{name} {key} reads {x}: the game's scale is out of float range")
    out = Path(args.out) if args.out else Path(cfg.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)
    for name, _, _ in tables:
        print(out / name)
    return 0


# -- credibility subcommands --------------------------------------------------


def _cmd_commit(args) -> int:
    try:
        payload = Path(args.payload).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read payload: {exc}") from exc
    if args.salt_hex is not None:
        try:
            salt = bytes.fromhex(args.salt_hex)
        except ValueError:
            raise ValueError("--salt-hex must be valid hex") from None
    else:
        salt = os.urandom(credibility.SALT_LEN)
    record = credibility.commit(payload, salt=salt, created_at=args.timestamp)
    out = Path(args.out)
    # the reveal file names the payload relative to its own directory
    payload_path = args.payload
    if not os.path.isabs(payload_path):
        payload_path = os.path.relpath(payload_path, out)
    credibility._check_line(payload_path, "payload path", "utf-8")  # before either file is written
    out.mkdir(parents=True, exist_ok=True)
    commitment_path = out / "commitment.txt"
    reveal_path = out / "reveal.txt"
    credibility.write_commitment_file(record, commitment_path)
    credibility.write_reveal_file(salt, payload_path, reveal_path)
    print(commitment_path)
    print(reveal_path)
    return 0


def _cmd_reveal_verify(args) -> int:
    commitment = credibility.read_commitment_file(args.commitment)
    reveal = credibility.read_reveal_file(args.reveal)
    ok = credibility.verify_reveal(commitment, reveal)
    print(f"verified: {'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_coin(args) -> int:
    commitment = credibility.read_commitment_file(args.commitment)
    reveal = credibility.read_reveal_file(args.reveal)
    beacon = bytes.fromhex(args.beacon)
    if not 0.0 <= args.mu_a <= 1.0:
        raise ValueError("--mu-a must lie in [0, 1]")
    if args.claimed is not None:
        claimed = args.claimed == "true"
        ok = credibility.verify_coin(commitment, reveal, beacon, args.mu_a, claimed)
        print(f"verified: {'true' if ok else 'false'}")
        return 0 if ok else 1
    if not credibility.verify_reveal(commitment, reveal):
        print("verified: false")
        return 1
    if len(reveal.payload) != credibility.SALT_LEN:
        raise ValueError("revealed payload is not a 32-byte coin seed")
    insert = credibility.coin_resolve(reveal.payload, beacon, args.mu_a)
    print(f"insert: {'true' if insert else 'false'}")
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bountylab",
        description="Crowdsearch bounty design: equilibria, optimal prizes, "
        "asymptotics, simulation, and the commit-reveal protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode in CONFIG_MODES:
        p = sub.add_parser(mode, help=f"run {mode} mode on a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=None, help="simulation seed (u64)")
        p.add_argument("--trials", type=int, default=None, help="simulation trial count")
        p.set_defaults(run=_run_config_mode)

    p = sub.add_parser("commit", help="commit to a payload file")
    p.add_argument("--payload", required=True)
    p.add_argument("--salt-hex", default=None, help="64 hex chars; fresh entropy if omitted")
    p.add_argument("--timestamp", default=None, help="RFC-3339 timestamp to record")
    p.add_argument("--out", default=".")
    p.set_defaults(run=_cmd_commit)

    p = sub.add_parser("reveal-verify", help="check a reveal against a commitment")
    p.add_argument("--commitment", required=True)
    p.add_argument("--reveal", required=True)
    p.set_defaults(run=_cmd_reveal_verify)

    p = sub.add_parser("coin", help="resolve or verify the insertion coin")
    p.add_argument("--commitment", required=True)
    p.add_argument("--reveal", required=True)
    p.add_argument("--beacon", required=True, help="public randomness, hex")
    p.add_argument("--mu-a", type=float, required=True, dest="mu_a")
    p.add_argument("--claimed", choices=["true", "false"], default=None)
    p.set_defaults(run=_cmd_coin)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

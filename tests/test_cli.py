import contextlib
import csv
import io
import json
import math
import os
import random
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bountylab import CostDistribution
from bountylab.asymptotic import MAX_SLICE_BUGS
from bountylab.cli import MAX_GRID_POINTS, RunConfig, _linspace, main

DATA = Path(__file__).parent / "data"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _base_config(**overrides):
    cfg = {
        "spec_version": 1,
        "game": {
            "n": 2,
            "budget": 0.5,
            "dist": {"kind": "uniform", "c_low": 0.0, "c_high": 1.0},
            "bugs": [{"mu": 0.5, "q": 0.5, "w": 2.0}],
        },
    }
    cfg.update(overrides)
    return cfg


# -- validation ----------------------------------------------------------------


def test_empty_bug_list_exits_2(tmp_path, capsys):
    cfg = _base_config()
    cfg["game"]["bugs"] = []
    code = main(["design", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "L >= 1" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = _base_config()
    cfg["game"]["agents"] = 3
    code = main(["design", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown field" in capsys.readouterr().err


def test_bad_spec_version_rejected(tmp_path, capsys):
    cfg = _base_config(spec_version=2)
    code = main(["design", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "spec_version" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "spec_version": 1,\n}\n', encoding="utf-8")
    code = main(["design", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_mode_mismatch_rejected(tmp_path, capsys):
    cfg = _base_config(mode="public")
    code = main(["design", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "mode" in capsys.readouterr().err


def test_out_of_range_mu_rejected(tmp_path, capsys):
    cfg = _base_config()
    cfg["game"]["bugs"][0]["mu"] = 1.5
    code = main(["design", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "mu" in capsys.readouterr().err


def test_public_mode_requires_positive_floor(tmp_path, capsys):
    cfg = _base_config()  # c_low = 0
    code = main(["public", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "c_low" in capsys.readouterr().err


POWER = {"kind": "power", "c_low": 0.0, "c_high": 1.0, "alpha": math.inf}
EXPONENTIAL = {"kind": "exponential", "c_low": 0.0, "c_high": None, "rate": math.inf}


@pytest.mark.parametrize(
    "mode, path, poison",
    [
        ("equilibrium", "$.prizes.v[0]", lambda c: c["prizes"].update(v=[math.inf])),
        ("equilibrium", "$.prizes.artificial[0].v_a", lambda c: c["prizes"]["artificial"][0].update(v_a=math.inf)),
        ("design", "$.game.bugs[0].w", lambda c: c["game"]["bugs"][0].update(w=math.inf)),
        ("design", "$.game.budget", lambda c: c["game"].update(budget=math.inf)),
        ("design", "$.game.dist.alpha", lambda c: c["game"].update(dist=POWER)),
        ("design", "$.game.dist.rate", lambda c: c["game"].update(dist=EXPONENTIAL)),
    ],
    ids=["v", "v_a", "w", "budget", "alpha", "rate"],
)
def test_non_finite_field_rejected(tmp_path, capsys, mode, path, poison):
    cfg = _base_config(prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]})
    poison(cfg)  # json.dumps writes math.inf as the non-standard token Infinity
    code = main([mode, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert path in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "mode, path, poison",
    [
        ("design", "$.figures", lambda c: c.update(figures=[])),
        ("equilibrium", "$.prizes.artificial", lambda c: c["prizes"].update(artificial=5)),
        ("figures", "$.figures.grid_points", lambda c: c.update(figures={"grid_points": "x"})),
        ("figures", "$.figures.q_a_fig1", lambda c: c.update(figures={"which": [1], "q_a_fig1": ["a"]})),
        ("figures", "$.figures.w_list", lambda c: c.update(figures={"which": [2], "w_list": ["2"]})),
        ("figures", "$.figures.q_a_fig5", lambda c: c.update(figures={"which": [5], "q_a_fig5": [math.nan]})),
    ],
    ids=["figures", "artificial", "grid_points", "q_a_fig1", "w_list", "q_a_fig5"],
)
def test_wrongly_typed_field_rejected(tmp_path, capsys, mode, path, poison):
    cfg = _base_config(prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]})
    poison(cfg)
    code = main([mode, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"config error at {path}: expected" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _set_dist(**dist):
    return lambda c: c["game"].update(dist=dist)


def _figure1_on_two_bugs(cfg):
    cfg["game"]["bugs"].append({"mu": 0.5, "q": 0.5, "w": 1.0})
    cfg["prizes"]["v"] = [0.0, 0.0]
    cfg["figures"] = {"which": [1]}


def _figure5_on_too_many_bugs(cfg):
    cfg["game"]["dist"] = {"kind": "uniform", "c_low": 1.0, "c_high": 2.0}
    cfg["game"]["bugs"] = [{"mu": 0.5, "q": 0.5, "w": 1.0}] * (MAX_SLICE_BUGS + 1)
    cfg["prizes"]["v"] = [0.0] * (MAX_SLICE_BUGS + 1)
    cfg["figures"] = {"which": [5]}


def _figure1_at_q_a(q_a):
    # so small a q_a makes the artificial coefficient Phi(c_tilde; q_a) overflow v_a or vanish
    return lambda c: c.update(figures={"which": [1], "grid_points": 3, "q_a_fig1": [q_a]})


def _figure1_at_q(q):
    # on uniform(1, 2) so small an organic q makes v_max = c_tilde / Phi(c_tilde; q) overflow
    def poison(cfg):
        cfg["game"]["dist"] = {"kind": "uniform", "c_low": 1.0, "c_high": 2.0}
        cfg["game"]["bugs"][0]["q"] = q
        cfg["figures"] = {"which": [1], "grid_points": 3}

    return poison


@pytest.mark.parametrize(
    "mode, path, poison",
    [
        ("figures", "$.figures.n_list_distance", lambda c: c.update(figures={"which": [5], "n_list_distance": [1]})),
        ("figures", "$.figures.n_list_curves", lambda c: c.update(figures={"n_list_curves": [2_000_000]})),
        ("figures", "$.figures.n_list_curves", lambda c: c.update(figures={"n_list_curves": [0]})),
        ("figures", "$.n_list", lambda c: c.update(n_list=[0])),
        ("figures", "$.figures.w_list", lambda c: c.update(figures={"w_list": [-1.0]})),
        ("figures", "$.figures.q_a_fig1", lambda c: c.update(figures={"q_a_fig1": [1.5]})),
        ("figures", "$.figures.q_a_fig5", lambda c: c.update(figures={"q_a_fig5": [0.0]})),
        ("figures", "$.figures.grid_points", lambda c: c.update(figures={"grid_points": -3})),
        ("figures", "$.figures.grid_points", lambda c: c.update(figures={"grid_points": MAX_GRID_POINTS + 1})),
        ("figures", "$.figures.n_list_curves", lambda c: c.update(figures={"which": [3], "n_list_curves": []})),
        ("figures", "$.n_list", lambda c: c.update(n_list=[], figures={"which": [3]})),
        ("figures", "$.figures.which", lambda c: c.update(figures={"which": []})),
        ("figures", "$.figures.n_list_distance", lambda c: c.update(figures={"which": [5], "n_list_distance": []})),
        ("figures", "$.figures.q_a_fig1", _figure1_at_q_a(1e-310)),
        ("figures", "$.figures.q_a_fig1", _figure1_at_q_a(5e-324)),
        ("figures", "$.game.bugs[0].q", _figure1_at_q(1e-308)),
        ("figures", "$.game.bugs[0].q", _figure1_at_q(1e-310)),
        ("design", "$.figures.grid_points", lambda c: c.update(figures={"grid_points": -3})),
        ("figures", "$.game.dist.c_low", lambda c: c.update(figures={"which": [5]})),
        ("figures", "$.game.dist.c_low", lambda c: c.update(figures={"which": [3]})),
        ("figures", "$.figures.which", lambda c: c.update(figures={"which": [6]})),
        ("figures", "$.game.bugs", _figure1_on_two_bugs),
        ("figures", "$.game.bugs", _figure5_on_too_many_bugs),
        ("design", "$.mode", lambda c: c.update(mode="bogus")),
        ("equilibrium", "$.prizes.v", lambda c: c["prizes"].update(v=[0.0, 1.0])),
        ("design", "$.game.dist.alpha", _set_dist(kind="uniform", c_low=0.0, c_high=1.0, alpha=2.0)),
        ("design", "$.game.dist.rate", _set_dist(kind="power", c_low=0.0, c_high=1.0, alpha=2.0, rate=1.0)),
        ("design", "$.game.dist.kind", _set_dist(kind="lognormal", c_low=0.0, c_high=1.0)),
        ("design", "$.game.dist.c_high", _set_dist(kind="uniform", c_low=0.0, c_high=None)),
        ("design", "$.game.dist.c_high", _set_dist(kind="uniform", c_low=0.0)),
        ("design", "$.game.dist.c_low", _set_dist(kind="uniform", c_high=1.0)),
        ("design", "$.game.dist.c_high", _set_dist(kind="exponential", c_low=0.0, c_high=2.0)),
        ("design", "$.game.dist.alpha", _set_dist(kind="power", c_low=0.0, c_high=1.0, alpha=None)),
        ("design", "$.game.bugs[0]", lambda c: c["game"].update(bugs=[5])),
        ("design", "$.game.budget", lambda c: c["game"].pop("budget")),
        ("design", "$.game", lambda c: c["game"].update(n=10**400)),
        ("equilibrium", "$.game", lambda c: c["game"].update(n=10**400)),
        ("simulate", "$.game", lambda c: c["game"].update(n=10**400)),
    ],
    ids=[
        "n_list_distance_below_2", "n_list_curves_above_max", "n_list_curves_zero", "n_list_zero",
        "w_list_negative", "q_a_fig1_above_1", "q_a_fig5_zero", "grid_points_negative",
        "grid_points_above_max", "n_list_curves_empty", "n_list_empty", "which_empty",
        "n_list_distance_empty", "q_a_fig1_overflow",
        "q_a_fig1_underflow", "q_fig1_overflow", "q_fig1_subnormal",
        "unused_figures_value", "fig5_c_low_zero", "fig3_c_low_zero", "which", "fig1_two_bugs",
        "fig5_too_many_bugs", "mode", "v_length", "alpha_on_uniform", "rate_on_power", "kind", "c_high_null",
        "c_high_missing", "c_low_missing", "c_high_on_exponential", "alpha_null", "bug_not_object",
        "budget_missing", "design_n_overflows_float", "equilibrium_n_overflows_float",
        "simulate_n_overflows_float",
    ],
)
def test_rejected_field_names_its_path(tmp_path, capsys, mode, path, poison):
    cfg = _base_config(prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]})
    poison(cfg)
    code = main([mode, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error at {path}: " in err
    # a message of its own, not a leaked TypeError or a KeyError's bare repr
    message = err.split(f"config error at {path}: ", 1)[1].strip()
    assert "NoneType" not in message
    assert not (message.startswith("'") and message.endswith("'"))
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "dist, expected",
    [
        ({"kind": "uniform", "c_low": 0, "c_high": 1}, CostDistribution.uniform(0.0, 1.0)),
        ({"kind": "power", "c_low": 0.0, "c_high": 1.0}, CostDistribution.power(0.0, 1.0, 1.0)),
        ({"kind": "power", "c_low": 0.5, "c_high": 2.0, "alpha": 3}, CostDistribution.power(0.5, 2.0, 3.0)),
        ({"kind": "exponential", "c_low": 1.0}, CostDistribution.exponential(1.0, 1.0)),
        (
            {"kind": "exponential", "c_low": 1.0, "c_high": None, "rate": 0.7},
            CostDistribution.exponential(1.0, 0.7),
        ),
    ],
    ids=["uniform", "power_default_alpha", "power", "exponential_default_rate", "exponential"],
)
def test_dist_fields_and_defaults(dist, expected):
    cfg = _base_config()
    cfg["game"]["dist"] = dist
    assert RunConfig(cfg).game.dist == expected


# -- golden run ------------------------------------------------------------------


def test_design_mode_matches_golden_bytes(tmp_path):
    code = main(["design", "--config", str(DATA / "private_example.json"), "--out", str(tmp_path)])
    assert code == 0
    got = (tmp_path / "design_report.csv").read_bytes()
    assert got == (DATA / "golden_design_report.csv").read_bytes()
    row = _read_csv(tmp_path / "design_report.csv")[0]
    assert float(row["c_tilde"]) == pytest.approx(2 / 9, abs=1e-9)
    assert float(row["c_0"]) == pytest.approx(4 / 33, abs=1e-9)
    assert row["beneficial"] == "true"
    assert float(row["utility_at_optimum"]) == pytest.approx(1 / 9, abs=1e-12)
    assert float(row["v_a"]) == pytest.approx(0.25, abs=1e-9)


def test_public_mode_matches_golden_bytes(tmp_path):
    code = main(["public", "--config", str(DATA / "public_example.json"), "--out", str(tmp_path)])
    assert code == 0
    for name in ("public_report.csv", "public_outcome.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / f"golden_{name}").read_bytes(), name


FIGURE_FILES = (
    "fig1_solution_sets.csv",
    "fig2_utility_curves.csv",
    "fig2_markers.csv",
    "fig3_utility_convergence.csv",
    "fig4_utility_convergence_scaled.csv",
    "convergence_table.csv",
    "fig5_set_distances.csv",
)


@pytest.mark.parametrize(
    "argv, config, names",
    [
        (["equilibrium"], "equilibrium_example.json", ("equilibrium.csv",)),
        (["simulate", "--seed", "7", "--trials", "4096"], "equilibrium_example.json", ("sim_report.csv",)),
        (["figures"], "figures_example.json", FIGURE_FILES),
    ],
    ids=["equilibrium", "simulate", "figures"],
)
def test_config_mode_matches_golden_bytes(tmp_path, capsys, argv, config, names):
    code = main(argv + ["--config", str(DATA / config), "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA / f"golden_{name}").read_bytes(), name


def test_design_mode_output_is_reproducible(tmp_path):
    config = str(DATA / "private_example.json")
    main(["design", "--config", config, "--out", str(tmp_path / "a")])
    main(["design", "--config", config, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "design_report.csv").read_bytes()
    b = (tmp_path / "b" / "design_report.csv").read_bytes()
    assert a == b


# -- other config modes ------------------------------------------------------------


def test_equilibrium_mode(tmp_path):
    cfg = _base_config(prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]})
    code = main(["equilibrium", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    row = _read_csv(tmp_path / "equilibrium.csv")[0]
    assert float(row["c_star"]) == pytest.approx(2 / 9, abs=1e-9)
    assert row["boundary"] == "interior"
    assert float(row["expected_payout"]) == pytest.approx(8 / 81, abs=1e-9)


def test_equilibrium_mode_requires_prizes(tmp_path, capsys):
    code = main(["equilibrium", "--config", _write_config(tmp_path, _base_config()), "--out", str(tmp_path)])
    assert code == 2
    assert "prize" in capsys.readouterr().err


def test_public_mode(tmp_path):
    cfg = {
        "spec_version": 1,
        "game": {
            "n": 2,
            "budget": 5.0,
            "dist": {"kind": "uniform", "c_low": 1.0, "c_high": 2.0},
            "bugs": [{"mu": 0.5, "q": 0.5, "w": 10.0}],
        },
        "prizes": {"v": [5.0], "artificial": []},
    }
    code = main(["public", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    report = _read_csv(tmp_path / "public_report.csv")[0]
    assert float(report["kappa_tilde"]) == pytest.approx(2 * math.log(2.5), abs=1e-9)
    assert float(report["kappa_a"]) == pytest.approx(4.9651142317442763, abs=1e-6)
    assert report["beneficial"] == "true"
    outcome = _read_csv(tmp_path / "public_outcome.csv")[0]
    assert float(outcome["kappa_star"]) == pytest.approx(0.9284255087576333, abs=1e-9)


def test_simulate_mode(tmp_path):
    cfg = _base_config(
        prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]},
        seed=11,
        trials=50_000,
    )
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = _read_csv(tmp_path / "sim_report.csv")
    names = [r["statistic"] for r in rows]
    assert "designer_utility" in names and "marginal_benefit" in names
    for row in rows:
        assert abs(float(row["z_score"])) <= 5.0


def test_simulate_mode_requires_seed(tmp_path, capsys):
    cfg = _base_config(prizes={"v": [1.0], "artificial": []}, trials=100)
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_at_the_largest_rival_count(tmp_path):
    # n - 1 = 2**63 - 1 is the largest rival count numpy's int64 draws hold
    cfg = _base_config(prizes={"v": [1.0], "artificial": []}, threshold=1e-19)
    cfg["game"]["n"] = 2**63
    argv = ["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)]
    assert main(argv + ["--seed", "1", "--trials", "1000"]) == 0
    rows = {r["statistic"]: float(r["z_score"]) for r in _read_csv(tmp_path / "sim_report.csv")}
    # the reference agent almost never searches, so only the crowd's rows carry data
    for name in ("detect_uncond_bug_1", "detect_cond_bug_1", "payout_total"):
        assert abs(rows[name]) <= 5.0, name


def test_simulate_flags_override_config(tmp_path):
    cfg = _base_config(prizes={"v": [1.0], "artificial": []})
    config = _write_config(tmp_path, cfg)
    code = main(
        ["simulate", "--config", config, "--out", str(tmp_path), "--seed", "3", "--trials", "1000"]
    )
    assert code == 0


def test_simulate_on_an_unbounded_support_runs_at_the_equilibrium(tmp_path):
    # c* = 50 on exponential(0, 1): budget 100 = n F(c*) c* on a q_a = 1 bug
    cfg = _base_config(
        prizes={"v": [0.0], "artificial": [{"v_a": 100.0, "q_a": 1.0}]}, seed=1, trials=1000
    )
    cfg["game"].update(budget=100.0, dist={"kind": "exponential", "c_low": 0.0, "c_high": None})
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = {r["statistic"]: r for r in _read_csv(tmp_path / "sim_report.csv")}
    assert float(rows["payout_total"]["closed_form"]) == pytest.approx(100.0, rel=1e-12)
    assert all(abs(float(r["z_score"])) < 5.0 for r in rows.values())


@pytest.mark.parametrize(
    "overrides, flags, message",
    [
        ({}, ["--seed", "-1", "--trials", "10"], "$.seed: seed must be"),
        ({}, ["--seed", "1", "--trials", "0"], "$.trials: trials must be"),
        ({"threshold": 5.0}, ["--seed", "1", "--trials", "10"], "$.threshold: threshold must lie"),
        (
            {"game": {**_base_config()["game"], "n": 2**63 + 5}},
            ["--seed", "1", "--trials", "10"],
            "$.game.n: n - 1 must be below 2**63",
        ),
    ],
    ids=["seed", "trials", "threshold", "n_beyond_int64"],
)
def test_simulate_error_names_its_field(tmp_path, capsys, overrides, flags, message):
    cfg = _base_config(prizes={"v": [1.0], "artificial": []}, **overrides)
    argv = ["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)]
    assert main(argv + flags) == 2
    assert f"config error at {message}" in capsys.readouterr().err


# -- figures --------------------------------------------------------------------


def test_figure1_and_2_datasets(tmp_path):
    cfg = _base_config(figures={"which": [1, 2], "grid_points": 41})
    cfg["game"]["budget"] = 2.0 / 3.0
    code = main(["figures", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0

    fig1 = _read_csv(tmp_path / "fig1_solution_sets.csv")
    curves = {r["curve"] for r in fig1}
    assert "budget" in curves and len(curves) == 4
    # every non-budget point satisfies the fixed-point hyperplane within fp error
    from bountylab import GameConfig, OrganicBug, win_prob_phi

    game = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 2.0),),
        dist=CostDistribution.uniform(0.0, 1.0),
        budget=2.0 / 3.0,
    )
    c_t = 2.0 / 9.0
    for r in fig1:
        if r["curve"] == "budget":
            assert float(r["v"]) + float(r["v_a"]) == pytest.approx(2 / 3, abs=1e-12)
            continue
        q_a = float(r["q_a"])
        psi = 0.5 * win_prob_phi(c_t, 0.5, 2, game.dist) * float(r["v"])
        psi += win_prob_phi(c_t, q_a, 2, game.dist) * float(r["v_a"])
        assert psi == pytest.approx(c_t, abs=1e-8)

    markers = {r["name"]: float(r["value"]) for r in _read_csv(tmp_path / "fig2_markers.csv")}
    assert markers["c_0"] == pytest.approx(4 / 25, abs=1e-9)
    assert markers["c_a"] == pytest.approx(0.5, abs=1e-9)

    fig2 = _read_csv(tmp_path / "fig2_utility_curves.csv")
    by_w = {}
    for r in fig2:
        by_w.setdefault(float(r["w"]), []).append((float(r["c_hat"]), float(r["W"])))
    assert set(by_w) == {2.0, 4.0, 6.0}
    argmax = {w: max(pts, key=lambda t: t[1])[0] for w, pts in by_w.items()}
    # w = 4 needs an artificial bug: its best threshold exceeds c_0
    assert argmax[4.0] > markers["c_0"]
    # w = 6 overshoots even the artificial-bug cap c_a
    assert argmax[6.0] > markers["c_a"] - 1e-9


def test_figure_3_4_5_datasets(tmp_path):
    cfg = {
        "spec_version": 1,
        "game": {
            "n": 2,
            "budget": 5.0,
            "dist": {"kind": "uniform", "c_low": 1.0, "c_high": 2.0},
            "bugs": [{"mu": 0.5, "q": 0.5, "w": 10.0}],
        },
        "prizes": {"v": [5.0], "artificial": []},
        "figures": {
            "which": [3, 4, 5],
            "grid_points": 21,
            "n_list_curves": [2, 10, 100],
            "n_list_distance": [5, 20, 100],
        },
    }
    code = main(["figures", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0

    table = _read_csv(tmp_path / "convergence_table.csv")
    assert [r["n"] for r in table] == ["2", "10", "100"]
    assert {"n", "c_n", "n_F_c_n", "kappa_star", "P_n_bug_1", "W_n"} <= set(table[0])

    fig5 = _read_csv(tmp_path / "fig5_set_distances.csv")
    for q_a in {r["q_a"] for r in fig5}:
        d = [float(r["d_hausdorff"]) for r in fig5 if r["q_a"] == q_a]
        assert all(b < a for a, b in zip(d, d[1:]))

    assert (tmp_path / "fig3_utility_convergence.csv").exists()
    assert (tmp_path / "fig4_utility_convergence_scaled.csv").exists()


def test_figure_5_two_bugs_is_exact_and_bounded(tmp_path):
    # two organic bugs used to take the sampled path, whose distance array
    # needs about 250 GB at the default step
    cfg = {
        "spec_version": 1,
        "game": {
            "n": 2,
            "budget": 6.0,
            "dist": {"kind": "uniform", "c_low": 1.0, "c_high": 2.0},
            "bugs": [{"mu": 0.5, "q": 0.5, "w": 10.0}, {"mu": 0.5, "q": 0.4, "w": 8.0}],
        },
        "figures": {"which": [5]},
    }
    code = main(["figures", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    fig5 = _read_csv(tmp_path / "fig5_set_distances.csv")
    assert len(fig5) == 12
    for q_a in {r["q_a"] for r in fig5}:
        d = [float(r["d_hausdorff"]) for r in fig5 if r["q_a"] == q_a]
        assert all(math.isfinite(x) for x in d)
        assert all(b < a for a, b in zip(d, d[1:]))


def test_figures_3_4_require_prizes(tmp_path, capsys):
    cfg = _base_config(figures={"which": [3]})
    code = main(["figures", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "prize" in capsys.readouterr().err


def test_failing_figures_run_writes_no_csv(tmp_path, capsys):
    # c_low = 0: figures 1-4 succeed, then the convergence table needs c_low > 0
    cfg = _base_config(prizes={"v": [0.0], "artificial": [{"v_a": 0.25, "q_a": 1.0}]})
    code = main(["figures", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "$.game.dist.c_low" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


# -- the edge of the float range ------------------------------------------------

_EXP_TWO_BUGS = {
    "budget": 1.0,
    "dist": {"kind": "exponential", "c_low": 0.0, "c_high": None},
    "bugs": [{"mu": 1.0, "q": 1.0, "w": 1.0}] * 2,
}
_HUGE_PAIR = {"v": [1.7e308, 1.7e308], "artificial": []}


@pytest.mark.parametrize(
    "mode, game, prizes, message",
    [
        # a lone searcher: Psi = 1.7e308 + 1.7e308 = inf at every threshold
        ("equilibrium", {"n": 1, **_EXP_TWO_BUGS}, _HUGE_PAIR, "largest float"),
        # c* = 1.7e308 is a float, but the expected payout 2 x 1.7e308 is not
        ("equilibrium", {"n": 2, **_EXP_TWO_BUGS}, _HUGE_PAIR, "expected_payout reads inf"),
        # budget / c_low overflows, so kappa_a has no float root
        (
            "public",
            {
                "n": 2,
                "budget": 5.0,
                "dist": {"kind": "uniform", "c_low": 5e-324, "c_high": 2.0},
                "bugs": [{"mu": 0.5, "q": 0.5, "w": 10.0}],
            },
            {"v": [5.0], "artificial": []},
            "largest float",
        ),
    ],
    ids=["lone_searcher", "payout", "subnormal_floor"],
)
def test_a_game_whose_scale_overflows_exits_2(tmp_path, capsys, mode, game, prizes, message):
    cfg = _base_config(game=game, prizes=prizes, seed=1, trials=100)
    code = main([mode, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


def test_a_simulated_game_whose_prizes_square_out_of_range_exits_0(tmp_path, capsys):
    # the payout variance is of order v^2 = 1e600, but the report forms it in
    # units of the largest prize, so every cell is a float
    cfg = _base_config(prizes={"v": [1e300], "artificial": []}, seed=1, trials=100)
    code = main(["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == f"{tmp_path / 'sim_report.csv'}\n"
    rows = _read_csv(tmp_path / "sim_report.csv")
    assert rows[-3]["statistic"] == "payout_total" and float(rows[-3]["estimate"]) > 1e299
    for row in rows:
        cells = [float(cell) for key, cell in row.items() if key != "statistic"]
        assert all(math.isfinite(x) for x in cells), row


@pytest.mark.parametrize(
    "v, v_a", [(1e300, 5e-324), (1.7e308, 1e300)], ids=["subnormal_plant", "huge_plant"]
)
def test_a_certain_outcome_off_by_its_rounding_exits_0(tmp_path, capsys, v, v_a):
    """w = v on the organic bug, so W's sample is -v_a in every trial: the
    planted bug is found for sure and the row has no sampling error. Its
    closed form w P - (v P + v_a) loses v_a to the rounding of v P, and the
    row compares within that rounding, so z reads a float, not inf."""
    cfg = json.loads((DATA / "equilibrium_example.json").read_text(encoding="utf-8"))
    cfg["game"]["bugs"][0]["w"] = v
    cfg["prizes"] = {"v": [v], "artificial": [{"v_a": v_a, "q_a": 1.0}]}
    argv = ["simulate", "--config", _write_config(tmp_path, cfg), "--seed", "3", "--trials", "500"]
    code = main([*argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == f"{tmp_path / 'sim_report.csv'}\n"
    rows = {row.pop("statistic"): row for row in _read_csv(tmp_path / "sim_report.csv")}
    for name, row in rows.items():
        assert all(math.isfinite(float(cell)) for cell in row.values()), (name, row)
    utility = rows["designer_utility"]
    assert float(utility["estimate"]) == -v_a and abs(float(utility["z_score"])) <= 1.0


# values at and next to both ends of the float range, and a few ordinary ones
_FLOAT_EXTREMES = [
    5e-324, sys.float_info.min, 1e-300, 1e-12, 0.0, -1.0, 0.5, 1.0, 3.0, 1e12, 1e300, 1.7e308, -1.7e308
]
_INT_EXTREMES = [0, 1, 2, 3, 2**31, 2**53, 2**62]
_EXAMPLE_RUNS = [
    ("equilibrium_example.json", "equilibrium"),
    ("equilibrium_example.json", "simulate"),
    ("figures_example.json", "figures"),
    ("private_example.json", "design"),
    ("public_example.json", "public"),
]


def _numeric_leaves(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, (*path, key))]


@st.composite
def _extreme_runs(draw):
    """An example config and its mode, with one to three numbers of its game,
    prizes or figures set to extremes of their type."""
    name, mode = draw(st.sampled_from(_EXAMPLE_RUNS))
    raw = json.loads((DATA / name).read_text(encoding="utf-8"))
    leaves = [path for path in _numeric_leaves(raw) if path[0] != "spec_version"]
    for *parents, key in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        node = raw
        for step in parents:
            node = node[step]
        node[key] = draw(st.sampled_from(_INT_EXTREMES if isinstance(node[key], int) else _FLOAT_EXTREMES))
    if mode == "simulate":
        # $.trials has no upper limit, and 2^63 trials is work asked for, not a
        # hang: the draws stay small so that every run takes milliseconds
        raw.update(seed=draw(st.integers(0, 2**64 - 1)), trials=draw(st.integers(1, 1000)))
    return mode, raw


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_extreme_runs())
def test_extreme_configs_exit_0_with_finite_cells_or_exit_2(run):
    mode, raw = run
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([mode, "--config", str(config), "--out", out])
        assert code in (0, 2)
        for path in Path(out).glob("*.csv"):
            for row in _read_csv(path):
                # sim_report.csv documents nan for a row with no observations
                no_data = path.name == "sim_report.csv" and row["estimate"] == "nan"
                for key, cell in row.items():
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(x) or (no_data and key != "closed_form"), (path, key, cell)


def _random_end(rng):
    """A float from ordinary magnitudes, any exponent, or the specials."""
    pick = rng.randrange(3)
    if pick == 0:
        return rng.uniform(-10.0, 10.0)
    if pick == 1:
        return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1080, 1023))
    return rng.choice([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0])


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(20241)
    underflows = 0
    for _ in range(20_000):
        lo = _random_end(rng)
        span = rng.randrange(4)
        if span == 0:  # a zero span
            hi = lo
        elif span == 1:  # a span of a few subnormal steps, so the step can underflow
            lo = rng.randint(-100, 100) * 5e-324
            hi = lo + rng.randint(1, 100) * 5e-324
        else:
            hi = _random_end(rng)
        if rng.random() < 0.5:
            lo, hi = hi, lo
        k = rng.choice([0, 1, 2, 3, 201, rng.randint(0, 60)])
        got, want = _linspace(lo, hi, k), np.linspace(lo, hi, k)
        if struct.pack(f"{k}d", *got) != want.tobytes():  # every bit, signed zeros included
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()], (lo.hex(), hi.hex(), k)
        underflows += k > 1 and hi != lo and (hi - lo) / (k - 1) == 0.0
    assert underflows > 500, underflows  # the draws reach numpy's subnormal branch


# -- credibility subcommands -------------------------------------------------------


def test_commit_reveal_coin_round_trip(tmp_path, capsys):
    payload = tmp_path / "seed.bin"
    payload.write_bytes(bytes.fromhex("ab" * 32))
    code = main(
        [
            "commit",
            "--payload",
            str(payload),
            "--salt-hex",
            "00" * 32,
            "--timestamp",
            "2026-01-01T00:00:00Z",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()

    code = main(
        ["reveal-verify", "--commitment", str(tmp_path / "commitment.txt"), "--reveal", str(tmp_path / "reveal.txt")]
    )
    assert code == 0
    assert "verified: true" in capsys.readouterr().out

    # tamper with the payload: verification must fail with exit 1
    payload.write_bytes(bytes.fromhex("ab" * 31 + "ac"))
    code = main(
        ["reveal-verify", "--commitment", str(tmp_path / "commitment.txt"), "--reveal", str(tmp_path / "reveal.txt")]
    )
    assert code == 1
    assert "verified: false" in capsys.readouterr().out
    payload.write_bytes(bytes.fromhex("ab" * 32))

    code = main(
        [
            "coin",
            "--commitment",
            str(tmp_path / "commitment.txt"),
            "--reveal",
            str(tmp_path / "reveal.txt"),
            "--beacon",
            "deadbeef",
            "--mu-a",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("insert: ")
    claimed = out.strip().split(": ")[1]

    code = main(
        [
            "coin",
            "--commitment",
            str(tmp_path / "commitment.txt"),
            "--reveal",
            str(tmp_path / "reveal.txt"),
            "--beacon",
            "deadbeef",
            "--mu-a",
            "0.5",
            "--claimed",
            claimed,
        ]
    )
    assert code == 0
    assert "verified: true" in capsys.readouterr().out

    flipped = "false" if claimed == "true" else "true"
    code = main(
        [
            "coin",
            "--commitment",
            str(tmp_path / "commitment.txt"),
            "--reveal",
            str(tmp_path / "reveal.txt"),
            "--beacon",
            "deadbeef",
            "--mu-a",
            "0.5",
            "--claimed",
            flipped,
        ]
    )
    assert code == 1


def test_commit_with_a_relative_payload_verifies(tmp_path, monkeypatch, capsys):
    # the README flow: the payload sits in the working directory, the files go to out/
    monkeypatch.chdir(tmp_path)
    Path("block.bin").write_bytes(bytes(range(32)))
    argv = ["commit", "--payload", "block.bin", "--salt-hex", "00" * 32, "--out", "out/"]
    assert main(argv) == 0
    assert Path("out/reveal.txt").read_text(encoding="utf-8").splitlines()[1] == str(Path("..", "block.bin"))
    capsys.readouterr()
    assert main(["reveal-verify", "--commitment", "out/commitment.txt", "--reveal", "out/reveal.txt"]) == 0
    assert capsys.readouterr().out == "verified: true\n"


_LINE_BREAK = "{} must not contain a line break"


@pytest.mark.parametrize(
    "timestamp, payload_name, message",
    [
        ("2026-01-01T00:00:00Z\nextra", "seed.bin", _LINE_BREAK.format("created_at")),
        ("2026-01-01T00:00:00Z\n", "seed.bin", _LINE_BREAK.format("created_at")),
        ("2026-01-01T00:00:00Z\rextra", "seed.bin", _LINE_BREAK.format("created_at")),
        ("2026-01-01T00:00:00Z\x0cextra", "seed.bin", _LINE_BREAK.format("created_at")),
        ("2026-01-01T00:00:00Z\u2028extra", "seed.bin", _LINE_BREAK.format("created_at")),
        ("2026-01-01T00:00:00Z", "a\nb.bin", _LINE_BREAK.format("payload path")),
        ("2026-01-01T00:00:00Z", "a\rb.bin", _LINE_BREAK.format("payload path")),
        ("2026-01-01T00:00:00Z\u00e9", "seed.bin", "created_at must encode as ASCII"),
        ("2026-01-01T00:00:00Z", os.fsdecode(b"\xff.bin"), "payload path must encode as UTF-8"),
    ],
    ids=["timestamp_lf", "timestamp_trailing_lf", "timestamp_cr", "timestamp_ff",
         "timestamp_line_separator", "payload_lf", "payload_cr", "timestamp_non_ascii",
         "payload_not_utf8"],
)
def test_commit_rejects_a_line_break_and_writes_nothing(tmp_path, capsys, timestamp, payload_name, message):
    (tmp_path / payload_name).write_bytes(bytes(32))
    argv = ["commit", "--payload", str(tmp_path / payload_name), "--salt-hex", "00" * 32,
            "--timestamp", timestamp, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_coin_bad_beacon_hex(tmp_path, capsys):
    code = main(
        ["coin", "--commitment", "x", "--reveal", "y", "--beacon", "zz", "--mu-a", "0.5"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["commit", "--payload", "{d}/seed.bin", "--salt-hex", "zz"], "--salt-hex must be valid hex"),
        (["commit", "--payload", "{d}/seed.bin", "--salt-hex", "00"], "salt must be exactly 32 bytes"),
        (["commit", "--payload", "{d}/none.bin"], "cannot read payload"),
        (["reveal-verify", "--commitment", "{d}/none.txt", "--reveal", "{d}/none.txt"], "No such file"),
        (["coin", "--commitment", "{d}/commitment.txt", "--reveal", "{d}/reveal.txt",
          "--beacon", "00", "--mu-a", "1.5"], "--mu-a must lie in [0, 1]"),
    ],
    ids=["salt_hex", "salt_length", "payload", "reveal_files", "mu_a"],
)
def test_credibility_argument_errors_exit_2(tmp_path, capsys, argv, message):
    (tmp_path / "seed.bin").write_bytes(bytes(32))
    setup = ["commit", "--payload", str(tmp_path / "seed.bin"), "--salt-hex", "00" * 32]
    assert main(setup + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    if argv[0] == "commit":
        argv = argv + ["--out", "{d}/x"]
    code = main([arg.format(d=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()

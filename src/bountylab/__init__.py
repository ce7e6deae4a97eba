"""Bounty-design laboratory for crowdsearch contests.

Computes the symmetric equilibrium of the second-stage search game, solves
the designer's prize and artificial-bug problem for invited (finite-n) and
open (large-crowd limit) programs, validates the closed forms by Monte Carlo
and enumeration oracles, and implements the commit-reveal protocol that makes
planted bugs publicly credible.

``import bountylab`` executes none of the layers. ``costs``, ``rootfind``,
``game``, ``design``, ``asymptotic``, ``simulation`` and ``credibility`` are
each registered in ``sys.modules`` and bound on the package through
``importlib.util.LazyLoader``, and a layer executes on the first access to
one of its attributes (a layer it imports executes with it). Each public
name, such as ``bountylab.simulate``, is looked up in its home layer on every
access (PEP 562 ``__getattr__``), so it reads whatever that layer holds now.
A CLI process therefore executes only the layers its mode uses.

Two consequences. An error inside a layer surfaces on its first use, not at
``import bountylab``; the layer then stays in ``sys.modules`` half executed.
And the lazy module of Python 3.11 takes no lock while it loads: a second
thread that touches a layer during its first load can see it half executed,
so touch each layer once before threads share it.
"""

import importlib.util
import sys

# every public name, by its home layer
_EXPORTS = {
    "costs": ("CostDistribution",),
    "game": (
        "ArtificialBugDesign",
        "EquilibriumOutcome",
        "GameConfig",
        "OrganicBug",
        "PrizeSchedule",
        "detect_prob",
        "expected_benefit_psi",
        "solve_equilibrium",
        "win_prob_phi",
        "win_prob_phi_oracle",
    ),
    "design": (
        "BenefitVerdict",
        "C0Breakdown",
        "DesignReport",
        "SolutionSet",
        "collapse_artificial",
        "designer_utility",
        "is_artificial_beneficial",
        "omega",
        "optimize",
        "solution_set",
        "solve_c0",
        "solve_c_a",
        "solve_c_tilde",
    ),
    "asymptotic": (
        "Kappa0Breakdown",
        "PublicBenefitVerdict",
        "PublicDesignReport",
        "PublicOutcome",
        "SetDistanceResult",
        "convergence_table",
        "detect_prob_infinity",
        "is_beneficial_public",
        "optimize_public",
        "psi_infinity",
        "solution_set_distance",
        "solve_kappa0",
        "solve_kappa_a",
        "solve_kappa_star",
        "solve_kappa_tilde",
        "utility_infinity",
    ),
    "simulation": ("DeviationGap", "SimConfig", "SimReport", "SimStat", "check_equilibrium", "simulate"),
    "credibility": (
        "CommitmentRecord",
        "RevealRecord",
        "coin_resolve",
        "commit",
        "read_commitment_file",
        "read_reveal_file",
        "verify_coin",
        "verify_reveal",
        "write_commitment_file",
        "write_reveal_file",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _lazy(layer: str):
    """The layer module, in ``sys.modules`` but not yet executed."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


costs = _lazy("costs")
rootfind = _lazy("rootfind")
game = _lazy("game")
design = _lazy("design")
asymptotic = _lazy("asymptotic")
simulation = _lazy("simulation")
credibility = _lazy("credibility")


def __getattr__(name: str):
    # not stored in the package globals: a name rebound on its layer (a
    # monkeypatch, a tracer's wrapper and its removal) must read the same here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Bounty-design laboratory for crowdsearch contests.

Computes the symmetric equilibrium of the second-stage search game, solves
the designer's prize and artificial-bug problem for invited (finite-n) and
open (large-crowd limit) programs, validates the closed forms by Monte Carlo
and enumeration oracles, and implements the commit-reveal protocol that makes
planted bugs publicly credible.

Every public class is a frozen record: it is built from its fields
(``__match_args__``) by position or keyword, validates them on construction,
compares and hashes field by field within its own class, and raises
AttributeError on assignment.

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

_setattr = object.__setattr__


class _Record:
    """Base of the public records. The fields are the names a subclass body
    annotates, in order, with the values assigned there as defaults. A call
    binds its arguments to the fields as a ``def`` of them would, then calls
    ``__post_init__``; ``repr``, ``==`` between records of one class, and
    ``hash`` read the fields; assignment and deletion raise AttributeError.
    Fields are stored as plain instance attributes, so reads, pickle and copy
    work as on any object."""

    __match_args__ = ()  # the field names
    _defaults = {}

    def __init_subclass__(cls):
        cls.__match_args__ += tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in cls.__match_args__ if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        # object.__setattr__ per field: touching self.__dict__ would turn the
        # object's inline attribute values into a dict, and on CPython 3.11
        # every later read of a field would take about twice as long
        fields = self.__match_args__
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if kwargs or len(args) != len(fields):
            if len(args) + len(kwargs) != len(fields):
                kwargs = self._bind(args, kwargs)
            try:
                for name in fields[len(args):]:
                    _setattr(self, name, kwargs[name])
            except KeyError:  # a keyword that names no field left
                self._bind(args, kwargs)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The keyword arguments with the defaults added, or the TypeError of
        a bad call."""
        fields, name = cls.__match_args__, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        rest = fields[len(args):]
        for key in kwargs:
            if key not in rest:
                problem = "got multiple values for argument" if key in fields else "got an unexpected keyword argument"
                raise TypeError(f"{name}() {problem} {key!r}")
        kwargs = {**cls._defaults, **kwargs}
        missing = [key for key in rest if key not in kwargs]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return kwargs

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
        "C0Breakdown",
        "DesignReport",
        "SolutionSet",
        "collapse_artificial",
        "designer_utility",
        "omega",
        "optimize",
        "solution_set",
        "solve_c0",
        "solve_c_a",
        "solve_c_tilde",
    ),
    "asymptotic": (
        "Kappa0Breakdown",
        "PublicDesignReport",
        "PublicOutcome",
        "SetDistanceResult",
        "convergence_table",
        "detect_prob_infinity",
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

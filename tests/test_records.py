"""The behaviour every public record shares: a frozen value with a field
repr, same-class equality, a hash, positional and keyword construction with
defaults, validation on construction, and pickle and copy round trips."""

import copy
import pickle

import pytest

import bountylab
from bountylab import (
    ArtificialBugDesign,
    C0Breakdown,
    CommitmentRecord,
    CostDistribution,
    DesignReport,
    DeviationGap,
    EquilibriumOutcome,
    GameConfig,
    Kappa0Breakdown,
    OrganicBug,
    PrizeSchedule,
    PublicDesignReport,
    PublicOutcome,
    RevealRecord,
    SetDistanceResult,
    SimConfig,
    SimReport,
    SimStat,
    SolutionSet,
)

DIST = CostDistribution("uniform", 1.0, 2.0)
BUG = OrganicBug(0.5, 0.25, 10.0)
ART = ArtificialBugDesign(0.5, 0.75)
PRIZES = PrizeSchedule((4.0,), (ART,))
STAT = SimStat("payout", 1.5, 0.25, 1.5)
DIST_REPR = "CostDistribution(kind='uniform', c_low=1.0, c_high=2.0, alpha=1.0, rate=1.0)"
BUG_REPR = "OrganicBug(mu=0.5, q=0.25, w=10.0)"
ART_REPR = "ArtificialBugDesign(v_a=0.5, q_a=0.75)"
PRIZES_REPR = f"PrizeSchedule(v=(4.0,), artificial=({ART_REPR},))"
STAT_REPR = "SimStat(name='payout', estimate=1.5, std_error=0.25, closed_form=1.5)"

# class: (required arguments in field order, their repr, the same arguments
# with the last one changed)
CASES = {
    ArtificialBugDesign: ((0.5, 0.75), ART_REPR, (0.5, 0.5)),
    C0Breakdown: (
        (1.25, (1.25, 1.5), 0),
        "C0Breakdown(c_0=1.25, per_bug=(1.25, 1.5), best_bug=0)",
        (1.25, (1.25, 1.5), 1),
    ),
    CommitmentRecord: (
        ("sha256-salted-v1", bytes(32), "2024-01-01T00:00:00Z"),
        f"CommitmentRecord(scheme='sha256-salted-v1', digest={bytes(32)!r}, created_at='2024-01-01T00:00:00Z')",
        ("sha256-salted-v1", bytes(32), "2025-01-01T00:00:00Z"),
    ),
    CostDistribution: (("uniform", 1.0, 2.0), DIST_REPR, ("uniform", 1.0, 3.0)),
    DesignReport: (
        (1.5, 1.75, 1.25, 1.5, True, False, 0.25, 0.5, PRIZES, 3.0, 4.5, (1.25,), 0),
        "DesignReport(c_tilde=1.5, c_a=1.75, c_0=1.25, c_hat_star=1.5, beneficial=True, marginal=False,"
        f" margin=0.25, gain=0.5, canonical_prizes={PRIZES_REPR}, utility_at_optimum=3.0, spend=4.5,"
        " per_bug_c=(1.25,), best_bug=0)",
        (1.5, 1.75, 1.25, 1.5, True, False, 0.25, 0.5, PRIZES, 3.0, 4.5, (1.25,), 1),
    ),
    DeviationGap: (
        (0.0, 1.5, 0.25, 1.5, "interior", 1.5),
        "DeviationGap(gap=0.0, estimate=1.5, std_error=0.25, c_star=1.5, boundary='interior', threshold=1.5)",
        (0.0, 1.5, 0.25, 1.5, "interior", 1.25),
    ),
    EquilibriumOutcome: (
        (1.5, "interior", 0.5, (0.25,), (0.125,), (0.5,), 1.5, 2.0),
        "EquilibriumOutcome(c_star=1.5, boundary='interior', participation=0.5,"
        " detect_organic_conditional=(0.25,), detect_organic_unconditional=(0.125,),"
        " detect_artificial=(0.5,), expected_payout=1.5, designer_utility=2.0)",
        (1.5, "interior", 0.5, (0.25,), (0.125,), (0.5,), 1.5, 2.5),
    ),
    GameConfig: (
        (2, (BUG,), DIST, 5.0),
        f"GameConfig(n=2, bugs=({BUG_REPR},), dist={DIST_REPR}, budget=5.0)",
        (2, (BUG,), DIST, 6.0),
    ),
    Kappa0Breakdown: (
        (1.25, (1.25, 1.5), 0),
        "Kappa0Breakdown(kappa_0=1.25, per_bug=(1.25, 1.5), best_bug=0)",
        (1.25, (1.25, 1.5), 1),
    ),
    OrganicBug: ((0.5, 0.25, 10.0), BUG_REPR, (0.5, 0.25, 12.0)),
    PrizeSchedule: (((4.0,),), "PrizeSchedule(v=(4.0,), artificial=())", ((5.0,),)),
    PublicDesignReport: (
        (1.5, 1.75, 1.25, 1.5, True, False, 0.25, 0.5, PRIZES, 3.0, (1.25,), 0, ("note",)),
        "PublicDesignReport(kappa_tilde=1.5, kappa_a=1.75, kappa_0=1.25, kappa_hat_star=1.5, beneficial=True,"
        f" marginal=False, margin=0.25, gain=0.5, prizes={PRIZES_REPR}, utility_at_optimum=3.0,"
        " per_bug_kappa=(1.25,), best_bug=0, assumption_notes=('note',))",
        (1.5, 1.75, 1.25, 1.5, True, False, 0.25, 0.5, PRIZES, 3.0, (1.25,), 0, ()),
    ),
    PublicOutcome: (
        (1.5, (0.25,), 2.0, False),
        "PublicOutcome(kappa_star=1.5, detect_inf=(0.25,), utility_inf=2.0, trivial=False)",
        (1.5, (0.25,), 2.0, True),
    ),
    RevealRecord: (
        (bytes(32), b"payload"),
        f"RevealRecord(salt={bytes(32)!r}, payload=b'payload')",
        (bytes(32), b"other"),
    ),
    SetDistanceResult: (
        (0.125, True, 8, 0.5),
        "SetDistanceResult(distance=0.125, feasible=True, n=8, q_a=0.5)",
        (0.125, True, 8, 1.0),
    ),
    SimConfig: ((100, 7, 1.5), "SimConfig(trials=100, seed=7, threshold=1.5)", (100, 7, 1.25)),
    SimReport: (
        (100, 7, 1.5, (STAT,), (STAT,), (), (STAT,), (), STAT, STAT, STAT),
        f"SimReport(trials=100, seed=7, threshold=1.5, detect_unconditional=({STAT_REPR},),"
        f" detect_conditional=({STAT_REPR},), detect_artificial=(), win_organic=({STAT_REPR},),"
        f" win_artificial=(), payout={STAT_REPR}, utility={STAT_REPR}, marginal_benefit={STAT_REPR})",
        (100, 7, 1.5, (STAT,), (STAT,), (), (STAT,), (), STAT, STAT, SimStat("m", 0.0, 0.0, 0.0)),
    ),
    SimStat: (("payout", 1.5, 0.25, 1.5), STAT_REPR, ("payout", 1.5, 0.25, 1.25)),
    SolutionSet: (
        ((0.5, 0.25), 1.5, 5.0, 0.5, True, ((3.0, 0.0), (0.0, 5.0))),
        "SolutionSet(coeffs=(0.5, 0.25), target=1.5, budget=5.0, q_a=0.5, feasible=True,"
        " vertices=((3.0, 0.0), (0.0, 5.0)))",
        ((0.5, 0.25), 1.5, 5.0, 0.5, True, ()),
    ),
}
FIELDS = {
    ArtificialBugDesign: ("v_a", "q_a"),
    C0Breakdown: ("c_0", "per_bug", "best_bug"),
    CommitmentRecord: ("scheme", "digest", "created_at"),
    CostDistribution: ("kind", "c_low", "c_high", "alpha", "rate"),
    DesignReport: (
        "c_tilde", "c_a", "c_0", "c_hat_star", "beneficial", "marginal", "margin", "gain",
        "canonical_prizes", "utility_at_optimum", "spend", "per_bug_c", "best_bug",
    ),
    DeviationGap: ("gap", "estimate", "std_error", "c_star", "boundary", "threshold"),
    EquilibriumOutcome: (
        "c_star", "boundary", "participation", "detect_organic_conditional",
        "detect_organic_unconditional", "detect_artificial", "expected_payout", "designer_utility",
    ),
    GameConfig: ("n", "bugs", "dist", "budget"),
    Kappa0Breakdown: ("kappa_0", "per_bug", "best_bug"),
    OrganicBug: ("mu", "q", "w"),
    PrizeSchedule: ("v", "artificial"),
    PublicDesignReport: (
        "kappa_tilde", "kappa_a", "kappa_0", "kappa_hat_star", "beneficial", "marginal", "margin", "gain",
        "prizes", "utility_at_optimum", "per_bug_kappa", "best_bug", "assumption_notes",
    ),
    PublicOutcome: ("kappa_star", "detect_inf", "utility_inf", "trivial"),
    RevealRecord: ("salt", "payload"),
    SetDistanceResult: ("distance", "feasible", "n", "q_a"),
    SimConfig: ("trials", "seed", "threshold"),
    SimReport: (
        "trials", "seed", "threshold", "detect_unconditional", "detect_conditional", "detect_artificial",
        "win_organic", "win_artificial", "payout", "utility", "marginal_benefit",
    ),
    SimStat: ("name", "estimate", "std_error", "closed_form"),
    SolutionSet: ("coeffs", "target", "budget", "q_a", "feasible", "vertices"),
}
# fields with a default, and the default
DEFAULTS = {CostDistribution: {"alpha": 1.0, "rate": 1.0}, PrizeSchedule: {"artificial": ()}}

RECORDS = sorted(CASES, key=lambda cls: cls.__name__)


def test_every_public_record_is_covered():
    public = {getattr(bountylab, name) for name in bountylab.__all__}
    assert set(CASES) == set(FIELDS) == {obj for obj in public if isinstance(obj, type)}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_and_match_args(cls):
    args, text, _ = CASES[cls]
    record = cls(*args)
    assert repr(record) == text
    assert cls.__match_args__ == FIELDS[cls]
    assert tuple(getattr(record, name) for name in FIELDS[cls]) == (*args, *DEFAULTS.get(cls, {}).values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    args, _, other_args = CASES[cls]
    record, same, other = cls(*args), cls(*args), cls(*other_args)
    assert record is not same
    assert (record == same, record != same) == (True, False)
    assert (record == other, record != other) == (False, True)
    assert hash(record) == hash(same)
    assert {record: "value"}[same] == "value"
    assert record not in {other: "value"}
    twin = type("Twin", (cls,), {})(*args)
    assert (record == twin, twin == record, record != twin) == (False, False, True)
    values = tuple(getattr(record, name) for name in FIELDS[cls])
    assert (record == values, record != values) == (False, True)
    with pytest.raises(TypeError):
        record < same


def test_records_of_two_classes_with_the_same_values_differ():
    args = CASES[C0Breakdown][0]
    assert C0Breakdown(*args) != Kappa0Breakdown(*args)
    assert not C0Breakdown(*args) == Kappa0Breakdown(*args)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    record = cls(*CASES[cls][0])
    before = repr(record)
    for name in (*FIELDS[cls], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_keyword(cls):
    args = CASES[cls][0]
    names = FIELDS[cls]
    record = cls(*args)
    assert cls(**dict(zip(names, args))) == record
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == record
    assert cls(*args, **DEFAULTS.get(cls, {})) == record
    with pytest.raises(TypeError, match=names[len(args) - 1]):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError, match="bogus"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=names[0]):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, *([None] * (len(names) - len(args) + 1)))


def test_defaults():
    dist = CostDistribution("power", 1.0, 2.0)
    assert (dist.alpha, dist.rate) == (1.0, 1.0)
    assert CostDistribution("power", 1.0, 2.0, 3.0) == CostDistribution("power", 1.0, 2.0, alpha=3.0, rate=1.0)
    assert CostDistribution("exponential", 1.0, float("inf"), rate=2.0).alpha == 1.0
    assert PrizeSchedule(v=(1.0,)).artificial == ()
    assert PrizeSchedule((1.0,), artificial=(ART,)) == PrizeSchedule(v=(1.0,), artificial=(ART,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: CostDistribution("triangle", 1.0, 2.0),
        lambda: CostDistribution(kind="uniform", c_low=2.0, c_high=1.0),
        lambda: CostDistribution("power", 1.0, 2.0, alpha=0.0),
        lambda: OrganicBug(0.0, 0.5, 1.0),
        lambda: OrganicBug(mu=0.5, q=0.5, w=-1.0),
        lambda: ArtificialBugDesign(-1.0, 0.5),
        lambda: ArtificialBugDesign(v_a=1.0, q_a=1.5),
        lambda: PrizeSchedule((-1.0,)),
        lambda: PrizeSchedule(v=(float("inf"),), artificial=()),
        lambda: GameConfig(0, (BUG,), DIST, 5.0),
        lambda: GameConfig(n=2, bugs=(), dist=DIST, budget=5.0),
        lambda: GameConfig(2, (BUG,), DIST, budget=0.0),
        lambda: SimConfig(0, 1, 1.0),
        lambda: SimConfig(trials=1, seed=-1, threshold=1.0),
        lambda: CommitmentRecord("md5", bytes(32), "now"),
        lambda: CommitmentRecord(scheme="sha256-salted-v1", digest=bytes(31), created_at="now"),
        lambda: RevealRecord(bytes(31), b""),
        lambda: RevealRecord(salt=bytes(33), payload=b""),
    ],
)
def test_construction_validates(build):
    with pytest.raises(ValueError):
        build()


def test_construction_normalises():
    for prizes in (PrizeSchedule([1, 2], [ART]), PrizeSchedule(v=[1, 2], artificial=[ART])):
        assert prizes.v == (1.0, 2.0)
        assert [type(x) for x in prizes.v] == [float, float]
        assert prizes.artificial == (ART,)
        assert repr(prizes) == f"PrizeSchedule(v=(1.0, 2.0), artificial=({ART_REPR},))"
    assert PrizeSchedule(v=(x for x in (3,))).v == (3.0,)
    for config in (GameConfig(2, [BUG], DIST, 5.0), GameConfig(n=2, bugs=[BUG], dist=DIST, budget=5.0)):
        assert config.bugs == (BUG,)
        assert config == GameConfig(2, (BUG,), DIST, 5.0)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trips(cls):
    record = cls(*CASES[cls][0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert (type(back), back, repr(back)) == (cls, record, repr(record))
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert (type(clone), clone, repr(clone)) == (cls, record, repr(record))
        assert hash(clone) == hash(record)
        with pytest.raises(AttributeError):
            setattr(clone, FIELDS[cls][0], None)


def test_match_by_position_and_keyword():
    match BUG:
        case OrganicBug(mu, q, w=value):
            assert (mu, q, value) == (0.5, 0.25, 10.0)
        case _:
            pytest.fail("no match")
    match PRIZES:
        case PrizeSchedule(v, (ArtificialBugDesign(v_a, _),)):
            assert (v, v_a) == ((4.0,), 0.5)
        case _:
            pytest.fail("no match")

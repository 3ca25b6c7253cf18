"""Value semantics shared by every record class: construction, equality,
hashing, immutability, pickling, pattern matching and repr."""

import pickle

import pytest

from ssbc.adjust import AdjustmentReport
from ssbc.coverage import CalibrationContext, CoverageRegime, Record
from ssbc.feasibility import FeasibilityReport, Rung, RungTable
from ssbc.mc import MethodReport, SimConfig, SimReport
from ssbc.mondrian import MondrianSpec

CTX = CalibrationContext(50, 0.1, 0.1)
INF = CoverageRegime("infinite")
SKIPPED = MethodReport("dkwm", True, note="alpha_target - eps is not positive")

# Per class: its fields in order, and values for every field.
RECORDS = {
    CoverageRegime: (("kind", "m"), ("window", 100)),
    CalibrationContext: (("n", "alpha_target", "delta"), (50, 0.1, 0.1)),
    AdjustmentReport: (
        ("feasible", "method", "context", "regime", "alpha_adj", "u_star", "achieved_tail",
         "achieved_violation", "epsilon", "skipped_rungs", "note"),
        (True, "ssbc", CTX, INF, 2 / 51, 2, 0.95, 0.05, None, (3,), "n"),
    ),
    Rung: (("u", "alpha_prime", "attainable_delta"), (1, 0.25, 0.5)),
    RungTable: (("n", "alpha_target", "regime", "rungs"), (3, 0.5, INF, (Rung(1, 0.25, 0.5),))),
    FeasibilityReport: (
        ("n", "delta", "alpha_star_inf", "delta_max_grid", "implementable", "m", "alpha_star_m",
         "alpha_star_m_laplace"),
        (50, 0.1, 0.045, 0.37, True, 100, 0.05, 0.053),
    ),
    MondrianSpec: (("k", "k_j", "n_j", "m", "alpha_target", "delta"), (40, 12, 30, 12, 0.2, 0.15)),
    SimConfig: (
        ("n", "m", "alpha_target", "delta", "runs", "seed", "score_model", "methods"),
        (20, 30, 0.1, 0.1, 50, 1, "uniform", ("ssbc",)),
    ),
    MethodReport: (
        ("method", "skipped", "alpha_used", "u_star", "empirical_violation_rate",
         "theory_violation_rate", "violations", "coverage_histogram", "note"),
        ("none", False, 0.1, None, 0.5, 0.25, 2, (1, 1, 0, 2), None),
    ),
    SimReport: (
        ("n", "m", "alpha_target", "delta", "score_model", "runs_completed", "seed_echo",
         "methods"),
        (5, 3, 0.4, 0.4, "abs_cauchy", 4, 1, (SKIPPED,)),
    ),
}

# Per class with defaults: the required arguments and the defaults.
DEFAULTS = {
    CoverageRegime: (("infinite",), {"m": None}),
    AdjustmentReport: ((False, "ssbc", CTX, INF), {
        "alpha_adj": None, "u_star": None, "achieved_tail": None, "achieved_violation": None,
        "epsilon": None, "skipped_rungs": (), "note": None}),
    FeasibilityReport: ((50, 0.1, 0.045, 0.37, True),
                        {"m": None, "alpha_star_m": None, "alpha_star_m_laplace": None}),
    SimConfig: ((20, 30, 0.1, 0.1, 50, 1),
                {"score_model": "abs_cauchy", "methods": ("none", "ssbc")}),
    MethodReport: (("none", True), {
        "alpha_used": None, "u_star": None, "empirical_violation_rate": None,
        "theory_violation_rate": None, "violations": None, "coverage_histogram": None,
        "note": None}),
}

# Per class: one field set to another valid value.
CHANGED = {
    CoverageRegime: {"m": 101},
    CalibrationContext: {"delta": 0.2},
    AdjustmentReport: {"note": None},
    Rung: {"u": 2},
    RungTable: {"rungs": ()},
    FeasibilityReport: {"m": None},
    MondrianSpec: {"m": 13},
    SimConfig: {"seed": 2},
    MethodReport: {"violations": 3},
    SimReport: {"runs_completed": 5},
}

CLASSES = list(RECORDS)


def build(cls):
    return cls(*RECORDS[cls][1])


def test_every_record_class_is_covered():
    assert set(CLASSES) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls):
        fields, values = RECORDS[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
        assert by_position == by_keyword == mixed
        assert tuple(getattr(by_position, name) for name in fields) == values

    def test_defaults(self, cls):
        fields, values = RECORDS[cls]
        required, defaults = DEFAULTS.get(cls, (values, {}))
        assert fields[len(required):] == tuple(defaults)
        record = cls(*required)
        for name, default in defaults.items():
            assert getattr(record, name) == default, name

    def test_bad_arguments_are_type_errors(self, cls):
        fields, values = RECORDS[cls]
        with pytest.raises(TypeError):
            cls()  # missing
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)  # unknown
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})  # repeated
        with pytest.raises(TypeError):
            cls(*values, values[-1])  # surplus

    def test_equality_and_hash_by_value(self, cls):
        fields, values = RECORDS[cls]
        one, two = build(cls), build(cls)
        assert one is not two
        assert one == two and not (one != two)
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
        changed = cls(**{**dict(zip(fields, values)), **CHANGED[cls]})
        assert changed != one and not (changed == one)
        assert one != values and one != dict(zip(fields, values))
        for other in CLASSES:
            if other is not cls:
                assert one.__eq__(build(other)) is NotImplemented
                assert one != build(other)

    def test_immutable(self, cls):
        record = build(cls)
        name = RECORDS[cls][0][0]
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert record == build(cls)

    def test_pickle_round_trip(self, cls):
        record = build(cls)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls and copy == record and hash(copy) == hash(record)
            with pytest.raises(AttributeError):
                setattr(copy, RECORDS[cls][0][0], 1)

    def test_match_args(self, cls):
        fields, values = RECORDS[cls]
        assert cls.__match_args__ == fields
        match build(cls):
            case cls(first):
                assert first == values[0]
            case _:
                raise AssertionError("no match")

    def test_repr_names_every_field_in_order(self, cls):
        fields, values = RECORDS[cls]
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(build(cls)) == f"{cls.__name__}({body})"


def test_validation_still_runs():
    with pytest.raises(ValueError):
        CoverageRegime("window")
    with pytest.raises(ValueError):
        SimConfig(20, 30, 0.1, 0.1, 50, 1, methods=("ssbc", "ssbc"))


def test_reprs_match_the_former_dataclass_reprs():
    # Literal reprs printed by the dataclass versions of these records.
    assert repr(CoverageRegime.infinite()) == "CoverageRegime(kind='infinite', m=None)"
    assert repr(MondrianSpec(40, 12, 30, 12, 0.2, 0.15)) == (
        "MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.15)"
    )
    assert repr(SimConfig(20, 30, 0.1, 0.1, 50, 1)) == (
        "SimConfig(n=20, m=30, alpha_target=0.1, delta=0.1, runs=50, seed=1, "
        "score_model='abs_cauchy', methods=('none', 'ssbc'))"
    )
    from ssbc.adjust import ssbc_adjust
    from ssbc.feasibility import feasibility_report, rung_table

    # The tail is the double nearest the exact Pr(Bin(25, 1/2) <= 16).
    assert repr(ssbc_adjust(CalibrationContext(25, 0.5, 0.1), CoverageRegime.infinite())) == (
        "AdjustmentReport(feasible=True, method='ssbc', context=CalibrationContext(n=25, "
        "alpha_target=0.5, delta=0.1), regime=CoverageRegime(kind='infinite', m=None), "
        "alpha_adj=0.34615384615384615, u_star=9, achieved_tail=0.9461239278316498, "
        "achieved_violation=0.05387607216835022, epsilon=None, skipped_rungs=(), note=None)"
    )
    assert repr(rung_table(2, 0.5, CoverageRegime.infinite())) == (
        "RungTable(n=2, alpha_target=0.5, regime=CoverageRegime(kind='infinite', m=None), "
        "rungs=(Rung(u=1, alpha_prime=0.3333333333333333, attainable_delta=0.25), "
        "Rung(u=2, alpha_prime=0.6666666666666666, attainable_delta=0.75)))"
    )
    # The closed forms are within an ulp of the exact 0.0450074139785640492,
    # 0.371527882126961839 and 0.0532783011404966103.
    assert repr(feasibility_report(50, 0.1, 100)) == (
        "FeasibilityReport(n=50, delta=0.1, alpha_star_inf=0.045007413978564045, "
        "delta_max_grid=0.3715278821269618, implementable=True, m=100, "
        "alpha_star_m=0.05, alpha_star_m_laplace=0.05327830114049661)"
    )

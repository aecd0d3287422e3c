"""The package's 18 immutable value classes, pinned field by field.

For each class: its constructor's parameters and defaults, equality
(same class and equal fields), the hash of the fields as a tuple
(``CurveSpec`` holds a dict and so has none), the exact ``repr`` text,
``__bool__`` where a report has one, that assigning or deleting any
attribute raises ``AttributeError``, and that copy and pickle keep every
attribute.  The convexity certificate ``PointSeq._sigma`` is cached
beside the fields and left out of equality, hash and repr.  The repr
texts are those the classes printed when they were frozen dataclasses,
less the removed ``GeneralPositionReport.sign``; demo 02 prints a
``CrossingWitness``.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F
from functools import cached_property

import pytest

from convexsplit import crossing, exactgeom
from convexsplit.crossing import (ConvexDecomposition, CrossingReport,
                                  CrossingWitness, PolyPath)
from convexsplit.curves import CurveDecomposition, CurveSpec, EpsSample
from convexsplit.exactgeom import (GeneralPositionReport, Hyperplane, PointSeq,
                                   is_general_position)
from convexsplit.kseq import AbstractFlipReport, GreedyPartition
from convexsplit.ordertype import FlipReport, HomogeneityReport, SignSeq
from convexsplit.ramsey import (ExtractionStage, ExtractionTrace,
                                SuperHomogeneityReport)


def seq():
    return PointSeq(2, ((F(0), F(0)), (F(1), F(1)), (F(2), F(4))), (0, 1, 2))


def path():
    return PolyPath(seq())


def partition():
    return GreedyPartition(((0, 2),), (1,), (None,))


def sample():
    return EpsSample(F(1, 2), (F(1, 8), F(3, 8), F(5, 8)), path(), 0)


def stage():
    return ExtractionStage(2, 3, ((0, 2),), (0, 2), (0, 1, 2))


def sign_seq():
    return SignSeq((0, 1), (1, -1))


FRESH_DICT = object()   # a new {} for every instance


# Class -> (a factory of one instance, its constructor's parameters, which
# are its fields in order, their defaults, the instance's repr).
CASES = {
    PointSeq: (
        seq,
        ("dim", "points", "labels"), {},
        "PointSeq(dim=2, points=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(4, 1))), "
        "labels=(0, 1, 2))"),
    Hyperplane: (
        lambda: Hyperplane((F(1), F(-2)), F(1, 2)),
        ("normal", "offset"), {},
        "Hyperplane(normal=(Fraction(1, 1), Fraction(-2, 1)), "
        "offset=Fraction(1, 2))"),
    GeneralPositionReport: (
        lambda: GeneralPositionReport(False, (0, 1)),
        ("ok", "witness"), {"witness": None},
        "GeneralPositionReport(ok=False, witness=(0, 1))"),
    PolyPath: (
        path,
        ("seq",), {},
        "PolyPath(seq=PointSeq(dim=2, points=((Fraction(0, 1), "
        "Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), "
        "Fraction(4, 1))), labels=(0, 1, 2)))"),
    CrossingWitness: (
        lambda: CrossingWitness("perturbed", (0, 1), (1, -1)),
        ("kind", "subset", "sides"), {"sides": None},
        "CrossingWitness(kind='perturbed', subset=(0, 1), sides=(1, -1))"),
    CrossingReport: (
        lambda: CrossingReport(2, CrossingWitness("direct", (0, 2))),
        ("max_crossings", "witness"), {},
        "CrossingReport(max_crossings=2, witness=CrossingWitness("
        "kind='direct', subset=(0, 2), sides=None))"),
    ConvexDecomposition: (
        lambda: ConvexDecomposition(((0, 2),), partition()),
        ("pieces", "partition"), {},
        "ConvexDecomposition(pieces=((0, 2),), partition=GreedyPartition("
        "blocks=((0, 2),), signs=(1,), witnesses=(None,)))"),
    CurveSpec: (
        lambda: CurveSpec("line", 1, (F(0), F(1)), abs),
        ("name", "dim", "domain", "evaluator", "params"),
        {"params": FRESH_DICT},
        "CurveSpec(name='line', dim=1, domain=(Fraction(0, 1), "
        "Fraction(1, 1)), evaluator=<built-in function abs>, params={})"),
    EpsSample: (
        sample,
        ("eps", "params", "path", "retries"), {},
        "EpsSample(eps=Fraction(1, 2), params=(Fraction(1, 8), "
        "Fraction(3, 8), Fraction(5, 8)), path=PolyPath(seq=PointSeq(dim=2, "
        "points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), "
        "Fraction(1, 1)), (Fraction(2, 1), Fraction(4, 1))), "
        "labels=(0, 1, 2))), retries=0)"),
    CurveDecomposition: (
        lambda: CurveDecomposition(
            sample(), ConvexDecomposition(((0, 2),), partition()), (),
            ((F(0), F(1)),)),
        ("sample", "decomposition", "cuts", "intervals",
         "certified_max_crossings"), {"certified_max_crossings": None},
        "CurveDecomposition(sample=EpsSample(eps=Fraction(1, 2), "
        "params=(Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)), "
        "path=PolyPath(seq=PointSeq(dim=2, points=((Fraction(0, 1), "
        "Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), "
        "Fraction(4, 1))), labels=(0, 1, 2))), retries=0), "
        "decomposition=ConvexDecomposition(pieces=((0, 2),), "
        "partition=GreedyPartition(blocks=((0, 2),), signs=(1,), "
        "witnesses=(None,))), cuts=(), intervals=((Fraction(0, 1), "
        "Fraction(1, 1)),), certified_max_crossings=None)"),
    GreedyPartition: (
        partition,
        ("blocks", "signs", "witnesses"), {},
        "GreedyPartition(blocks=((0, 2),), signs=(1,), witnesses=(None,))"),
    AbstractFlipReport: (
        lambda: AbstractFlipReport(False, ("a", "b"), (1, -1, 1)),
        ("flip", "witness", "witness_signs"),
        {"witness": None, "witness_signs": None},
        "AbstractFlipReport(flip=False, witness=('a', 'b'), "
        "witness_signs=(1, -1, 1))"),
    SignSeq: (
        sign_seq,
        ("subset", "entries"), {},
        "SignSeq(subset=(0, 1), entries=(1, -1))"),
    HomogeneityReport: (
        lambda: HomogeneityReport(False, witness=((0, 1, 2), (1, 2, 3))),
        ("homogeneous", "sign", "witness"), {"sign": None, "witness": None},
        "HomogeneityReport(homogeneous=False, sign=None, "
        "witness=((0, 1, 2), (1, 2, 3)))"),
    FlipReport: (
        lambda: FlipReport(False, sign_seq()),
        ("flip", "witness"), {"witness": None},
        "FlipReport(flip=False, witness=SignSeq(subset=(0, 1), "
        "entries=(1, -1)))"),
    SuperHomogeneityReport: (
        lambda: SuperHomogeneityReport(True, signs=(1, -1)),
        ("homogeneous", "signs", "failing_k", "witness"),
        {"signs": None, "failing_k": None, "witness": None},
        "SuperHomogeneityReport(homogeneous=True, signs=(1, -1), "
        "failing_k=None, witness=None)"),
    ExtractionStage: (
        stage,
        ("k", "input_len", "pieces", "chosen", "kept_labels"), {},
        "ExtractionStage(k=2, input_len=3, pieces=((0, 2),), chosen=(0, 2), "
        "kept_labels=(0, 1, 2))"),
    ExtractionTrace: (
        lambda: ExtractionTrace((stage(),), seq()),
        ("stages", "final"), {},
        "ExtractionTrace(stages=(ExtractionStage(k=2, input_len=3, "
        "pieces=((0, 2),), chosen=(0, 2), kept_labels=(0, 1, 2)),), "
        "final=PointSeq(dim=2, points=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), "
        "Fraction(4, 1))), labels=(0, 1, 2)))"),
}

CLASSES = list(CASES)
UNHASHABLE = {CurveSpec}


def test_all_eighteen_classes_are_pinned():
    assert len(CASES) == 18


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_parameters_and_defaults(cls):
    _, names, defaults, _ = CASES[cls]
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == names
    for p in params:
        if p.name not in defaults:
            assert p.default is inspect.Parameter.empty
        elif defaults[p.name] is FRESH_DICT:
            assert p.default is not inspect.Parameter.empty
        else:
            assert p.default == defaults[p.name]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_text(cls):
    assert repr(CASES[cls][0]()) == CASES[cls][3]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_make_equal_values(cls):
    a, b = CASES[cls][0](), CASES[cls][0]()
    assert a is not b
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_the_compared_fields_as_a_tuple(cls):
    value = CASES[cls][0]()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        key = tuple(getattr(value, f) for f in CASES[cls][1])
        assert hash(value) == hash(key) == hash(CASES[cls][0]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    value = CASES[cls][0]()
    for name in CASES[cls][1] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == CASES[cls][3]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_keep_every_attribute(cls):
    value = CASES[cls][0]()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
        assert repr(twin) == CASES[cls][3]
        assert vars(twin).keys() == vars(value).keys()


def reversed_seq():
    """seq() in the other order: its certificate is -1."""
    return PointSeq(2, seq().points[::-1], (2, 1, 0))


def test_copied_path_keeps_its_sign(monkeypatch):
    checked = PolyPath(reversed_seq())
    assert vars(checked.seq)["_sigma"] == -1

    def refuse(_):
        raise AssertionError("certificate computed again")

    monkeypatch.setattr(exactgeom, "_alternating", refuse)
    for twin in (copy.copy(checked), copy.deepcopy(checked),
                 pickle.loads(pickle.dumps(checked))):
        assert twin.seq._sigma == -1


def test_a_changed_field_breaks_equality():
    assert sign_seq() != SignSeq((0, 1), (1, 1))
    assert CrossingWitness("perturbed", (0, 1)) != \
        CrossingWitness("perturbed", (0, 1), (1, -1))
    assert FlipReport(True) != AbstractFlipReport(True)


def test_general_position_sign_decides_nothing():
    # The report carries no sign: sequences of opposite certificates get
    # equal reports, and a cached certificate, even a wrong one, changes
    # neither a sequence's equality nor its hash.
    plus, minus = seq(), reversed_seq()
    assert GeneralPositionReport._fields == ("ok", "witness")
    assert is_general_position(plus) == is_general_position(minus) == \
        GeneralPositionReport(True)
    assert plus._sigma == 1 and minus._sigma == -1
    fresh, forged = seq(), seq()
    forged.__dict__["_sigma"] = -1
    assert plus == fresh == forged
    assert hash(plus) == hash(fresh) == hash(forged)
    assert "_sigma" not in vars(fresh)


def test_path_sign_decides_nothing_and_is_not_shown():
    checked = path()
    certified = PolyPath._certified(seq())
    assert vars(checked.seq)["_sigma"] == 1
    assert "_sigma" not in vars(certified.seq)
    assert checked == certified and hash(checked) == hash(certified)
    assert repr(checked) == repr(certified) == CASES[PolyPath][3]
    assert "_sigma" not in repr(checked)


def test_certified_path_skips_the_general_position_check(monkeypatch):
    def refuse(_):
        raise AssertionError("general position re-checked")

    monkeypatch.setattr(crossing, "is_general_position", refuse)
    monkeypatch.setattr(exactgeom, "_alternating", refuse)
    assert list(inspect.signature(PolyPath._certified).parameters) == \
        ["seq"]
    dependent = PointSeq(1, ((F(0),), (F(0),)), (0, 1))
    plain = PolyPath._certified(dependent)
    assert plain.seq is dependent and vars(plain) == {"seq": dependent}
    assert "_sigma" not in vars(dependent)
    with pytest.raises(AssertionError):
        PolyPath(seq())


def test_path_constructor_runs_post_init(monkeypatch):
    calls = []
    real = PolyPath.__post_init__

    def counted(self):
        calls.append(self.seq)
        real(self)

    monkeypatch.setattr(PolyPath, "__post_init__", counted)
    built = path()
    assert calls == [built.seq] and vars(built.seq)["_sigma"] == 1


def test_reports_are_truthy_by_their_verdict():
    for cls, field in ((GeneralPositionReport, "ok"),
                       (HomogeneityReport, "homogeneous"),
                       (FlipReport, "flip"),
                       (AbstractFlipReport, "flip"),
                       (SuperHomogeneityReport, "homogeneous")):
        assert bool(cls(True)) is True and bool(cls(False)) is False
        assert getattr(cls(True), field) is True


def test_curve_spec_params_are_a_fresh_dict_each():
    a, b = (CurveSpec("line", 1, (F(0), F(1)), abs) for _ in range(2))
    assert a.params == {} and a.params is not b.params
    given = {"dim": 1}
    assert CurveSpec("line", 1, (F(0), F(1)), abs, given).params is given


def test_cached_members_are_computed_once():
    for cls, name in ((PointSeq, "_hom"), (PointSeq, "_sign_cache"),
                      (Hyperplane, "_int_coeffs")):
        assert isinstance(vars(cls)[name], cached_property)
    s = seq()
    assert s._hom is s._hom and s._sign_cache is s._sign_cache
    assert s._hom == ((1, 0, 0), (1, 1, 1), (1, 2, 4))
    h = CASES[Hyperplane][0]()
    assert h._int_coeffs is h._int_coeffs
    assert h._int_coeffs == (-1, 2, -4)


def test_validation_runs_before_the_value_exists():
    with pytest.raises(ValueError, match="labels must match"):
        PointSeq(1, ((F(0),),), ())
    with pytest.raises(ValueError, match="normal must be nonzero"):
        Hyperplane((F(0), F(0)), F(1))
    with pytest.raises(ValueError, match="nondegenerate interval"):
        CurveSpec("line", 1, (F(1), F(1)), abs)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        PolyPath(PointSeq(1, ((F(0),),), (0,)))

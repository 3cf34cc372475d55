"""The library's record types: equal when built from equal arguments,
immutable, and copied and pickled as equal records.  The hot records
(read per state or per map point) are ``__slots__`` classes, the others
``typing.NamedTuple``s; both kinds keep this contract."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from shiftdim.amenability import EquivariantMap, PartitionB
from shiftdim.certificates import Certificate, Clause
from shiftdim.cover import PastSet, SpecialMatchReport
from shiftdim.groupoid import BoundReport, DadCover
from shiftdim.pipeline import PipelineParams, Record, Stage, Tie
from shiftdim.rokhlin import RokhlinCover, RokhlinTower
from shiftdim.simplex import SimplexPoint
from shiftdim.special import SpecialReport
from shiftdim.systems import FiniteSymbolicSystem
from shiftdim.towers import TowerPair
from shiftdim.words import Alphabet, GrowthReport, LanguageTable, Top


def _build(params, built):
    return ()


def _rebuild(graph, params):
    return None, {}


_TOWER = (frozenset({0}), 1, (frozenset({0}),))

# name -> the record built from fixed arguments, and the attributes it
# computes beyond its constructor's arguments
RECORDS = {
    "Alphabet": (lambda: Alphabet(("0", "1")), ("_decode_table", "_sep_len")),
    "GrowthReport": (lambda: GrowthReport(Fraction(1, 2), 3, False), ()),
    "LanguageTable": (lambda: LanguageTable(2, Top.of_texts(("00", "01", "10"), 2), (2, 3)), ()),
    "FiniteSymbolicSystem": (
        lambda: FiniteSymbolicSystem(("a", "b"), ((1,), (0, 1)), "meta"),
        ("pred", "_special"),
    ),
    "SimplexPoint": (lambda: SimplexPoint((0, 2), (1, 2)), ("den", "_by_atom")),
    "Clause": (lambda: Clause("c", False, "w"), ()),
    "Certificate": (lambda: Certificate.build("k", {"a": 1}, [Clause("c", True)]), ()),
    "PastSet": (lambda: PastSet(1, 2, frozenset({"0"}), True), ()),
    "SpecialMatchReport": (lambda: SpecialMatchReport((1,), 1, True, ("01",), True), ()),
    "PartitionB": (lambda: PartitionB((0, 1), (-1, 0, 1), 1, 2, (frozenset({0}),)), ()),
    "EquivariantMap": (
        lambda: EquivariantMap((SimplexPoint((0,), (1,)),), (-1, 0, 1), 3, 0, Fraction(0), (0,)),
        (),
    ),
    "RokhlinTower": (lambda: RokhlinTower(*_TOWER), ()),
    "RokhlinCover": (lambda: RokhlinCover(1, (RokhlinTower(*_TOWER),)), ()),
    "TowerPair": (lambda: TowerPair(frozenset({0}), range(3), "base", 0), ()),
    "DadCover": (lambda: DadCover((frozenset({0}),), (0,), frozenset()), ()),
    "BoundReport": (lambda: BoundReport(1, 0, 3, 7, 7, 7, 6), ()),
    "SpecialReport": (
        lambda: SpecialReport(4, (1, 1), 1, 1, True, Fraction(1), 2, False), ()
    ),
    "PipelineParams": (lambda: PipelineParams("variant = full", horizon=8), ()),
    "Stage": (lambda: Stage(("spec",), ("horizon",), ("lang",), _build), ()),
    "Record": (lambda: Record("k", _rebuild, ties=(Tie("a", "b", "c", len),)), ()),
    "Tie": (lambda: Tie("a", "b", "c", len), ()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_equal_by_value_and_immutable(name):
    make, computed = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    try:
        hashed = hash(a)
    except TypeError:  # a record holding a dict
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == hashed
    fields = [*inspect.signature(type(a)).parameters, *computed]
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == b
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == b

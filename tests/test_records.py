"""The records of ``sga``: tuple-backed ``NamedTuple``s for the plain
records, hand-written immutable classes for the four that keep a hash or
derived values (``AdmWord``, ``Ray``, ``AxModule``, ``Rep``).

For one instance of every record type, built by the library on ex1: a
field cannot be assigned, a pickle round trip gives an equal object with
an equal hash, a tuple-backed record hashes like its field tuple, and the
``repr`` has the form ``Name(field=value, ...)``.
"""

import pickle

import pytest

from sga.admissible import AdmSets, AdmWord, doublebar_ray, enumerate_adm
from sga.homgraph import (ComponentReport, FullComponent, HArrow, HEdge, HLoop,
                          HomGraph, PlusComponent, Winding, build_H, build_HQ,
                          classify_components)
from sga.invariants import ComponentLabel, KissCensus, enumerate_components, kiss_census
from sga.quiver import (Arrow, Fringing, GabrielPresentation, TildeArrow,
                        ValidationReport, auto_fringe, gabriel_presentation, validate)
from sga.homalg import Rep
from sga.repmod import AxModule, build_module, module_V
from sga.words import Letter, Ray

TUPLE_BACKED = (Arrow, ValidationReport, TildeArrow, GabrielPresentation, Fringing,
                Letter, AdmSets, HEdge, HLoop, Winding, HArrow, HomGraph,
                PlusComponent, FullComponent, ComponentReport, KissCensus,
                ComponentLabel)
HAND_WRITTEN = (AdmWord, Ray, AxModule, Rep)


@pytest.fixture(scope="module")
def samples(ex1):
    """One library-built instance of every record type, by type."""
    fr = auto_fringe(ex1)
    sets = enumerate_adm(ex1, 6)
    x = next(w for w in sets.strings if w.wtype == "up")   # a winding with a loop
    h = build_H(ex1, x)
    g = build_HQ(ex1, x, x)
    report = classify_components(g)
    labels, _, _ = enumerate_components(ex1, fr, 4)
    gp = gabriel_presentation(ex1)
    X = module_V(1, 5)
    found = [ex1.arrows[0], validate(ex1), gp.arrows[0], gp, fr, x.letters[0], sets,
             h.edges[0], h.loops[0], h, g.arrows[0], g, report.plus[0],
             report.full[0], report, kiss_census(ex1, fr, x, x), labels[0],
             x, doublebar_ray(ex1, x, 1, 1), X, build_module(ex1, x, X)]
    return {type(r): r for r in found}


def _fields(cls) -> tuple[str, ...]:
    return cls._fields if cls in TUPLE_BACKED else tuple(cls.__annotations__)


def _hashable(r) -> bool:
    try:
        hash(r)
    except TypeError:      # a record holding dicts, as a dataclass holding them
        return False
    return True


ALL = [pytest.param(cls, id=cls.__name__) for cls in TUPLE_BACKED + HAND_WRITTEN]


def test_every_record_is_sampled(samples):
    assert set(samples) == set(TUPLE_BACKED + HAND_WRITTEN)


@pytest.mark.parametrize("cls", ALL)
def test_fields_cannot_be_assigned(samples, cls):
    r = samples[cls]
    for name in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            delattr(r, name)


@pytest.mark.parametrize("cls", ALL)
def test_pickle_round_trip(samples, cls):
    r = samples[cls]
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back is not r and back == r
    assert [getattr(back, f) for f in _fields(cls)] == [getattr(r, f) for f in _fields(cls)]
    if _hashable(r):
        assert hash(back) == hash(r)


@pytest.mark.parametrize("cls", [pytest.param(c, id=c.__name__) for c in TUPLE_BACKED])
def test_tuple_backed_hash_is_the_field_tuple_hash(samples, cls):
    r = samples[cls]
    assert isinstance(r, tuple) and tuple(r) == tuple(getattr(r, f) for f in cls._fields)
    if _hashable(r):
        assert hash(r) == hash(tuple(getattr(r, f) for f in cls._fields))


@pytest.mark.parametrize("cls", ALL)
def test_repr_names_every_field(samples, cls):
    r = samples[cls]
    body = ", ".join(f"{f}={getattr(r, f)!r}" for f in _fields(cls))
    assert repr(r) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", [pytest.param(c, id=c.__name__) for c in HAND_WRITTEN])
def test_hand_written_records_equal_by_content_only(samples, cls):
    """A rebuilt record is equal with the same hash; a tuple of its fields
    is not equal to it, as for a dataclass."""
    r = samples[cls]
    values = [getattr(r, f) for f in _fields(cls)]
    twin = cls(*values)
    assert twin == r and twin is not r and hash(twin) == hash(r)
    assert r != tuple(values) and tuple(values) != r

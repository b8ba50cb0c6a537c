"""The checked value types are named tuples: each constructor checks its
arguments once and stores the values it checked, the instances are
immutable, and they compare and hash as the plain tuple of their fields."""

import math
import re

import pytest

from geodisc.ball import BallExtremal, ComplexLine
from geodisc.discgeom import MobiusMap, Quadratic
from geodisc.errors import DomainError
from geodisc.geodesics import IDENTITY_MAP, AnalyticDisc, Lens, OmegaEta, RationalMap
from geodisc.metrics import GeodesicCertificate, LempertReport, UniversalMember, UniversalSet
from geodisc.varieties import Alpha, DomainDab, NormalForm, TriClass, TridiscAutomorphism

nan, inf = math.nan, math.inf
M = MobiusMap(0.5)
MAPS = (M, MobiusMap(0.1j, 1j), MobiusMap(-0.3))


def _first(z):
    return z[0]


def _unit_gradient(z):
    return (1.0 + 0.0j, 0.0j)


MEMBER = UniversalMember("z1", _first, _unit_gradient)

# type -> (arguments, the fields they store, the defaults omitted arguments
# take, and the rejections (arguments, message) each raising DomainError)
CONTRACT = {
    MobiusMap: ((0.5, 1j), (0.5 + 0j, 1j), {"rotation": 1.0 + 0.0j}, [
        ((1.0,), "point (1+0j) is not in the open unit disc"),
        ((complex(nan, 0.0),), "non-finite point (nan+0j)"),
        ((0.1, 2.0), "rotation 2.0 is not unimodular"),
        ((0.1, complex(nan, 0.0)), "rotation (nan+0j) is not unimodular"),
    ]),
    Quadratic: ((1, 0.5j, 2.0), (1 + 0j, 0.5j, 2 + 0j), {}, [
        ((inf, 0, 1), "non-finite coefficient (inf+0j)"),
        ((1, complex(0.0, nan), 1), "non-finite coefficient nanj"),
    ]),
    Lens: ((0.8, 0.9), (0.8, 0.9), {}, [
        ((0.0, 1.0), "lens parameters (0.0, 1.0) must be positive and finite"),
        ((0.8, inf), "lens parameters (0.8, inf) must be positive and finite"),
        ((nan, 1.0), "lens parameters (nan, 1.0) must be positive and finite"),
        (("0.8", 1.0), "lens parameters (0.8, 1.0) must be positive and finite"),
        ((0.8j, 1.0), "lens parameters (0.8j, 1.0) must be positive and finite"),
    ]),
    Alpha: ((1, 2.0, 3j), (1 + 0j, 2 + 0j, 3j), {}, [
        ((0, 0, 0), "alpha must not be the zero triple"),
        ((1, nan, inf), "non-finite coefficient (nan+0j)"),
    ]),
    TriClass: ((True, 2), (True, 2), {"axis": None}, []),
    NormalForm: ((0.5, 2.0, (1j, 1, -1)), (0.5, 2.0, (1j, 1, -1)), {}, []),
    TridiscAutomorphism: (([2, 0, 1], list(MAPS)), ((2, 0, 1), MAPS), {}, [
        (((0, 0, 1), MAPS), "perm (0, 0, 1) is not a permutation of (0,1,2)"),
        ((None, MAPS), "perm None is not a permutation of (0,1,2)"),
        (((0, 1, 2), MAPS[:2]), "are not three MobiusMap slots"),
        (((0, 1, 2), (M, M, 0.5)), "are not three MobiusMap slots"),
        (((0, 1, 2), None), "maps None are not three MobiusMap slots"),
    ]),
    DomainDab: ((0.8, 0.9), (0.8, 0.9), {}, [
        ((-1.0, 1.0), "parameters a, b = -1.0, 1.0 must be positive and finite"),
        ((0.8, nan), "parameters a, b = 0.8, nan must be positive and finite"),
        (("0.8", 1.0), "parameters a, b = 0.8, 1.0 must be positive and finite"),
    ]),
    ComplexLine: (((0.1, 0.2), (0, 2)), ((0.1 + 0j, 0.2 + 0j), (0j, 1 + 0j)), {}, [
        (((0.1,), (1, 0)), "dimension mismatch"),
        (((nan, 0), (1, 0)), "non-finite coordinates"),
        (((0, 0), (0, 0)), "direction must be nonzero"),
        (((), (1,)), "expected a complex vector"),
    ]),
    BallExtremal: (((0.1 + 0j, 0j), (0j, 1 + 0j)), ((0.1 + 0j, 0j), (0j, 1 + 0j)), {}, []),
    LempertReport: ((0.8, 0.8, 3, 0, 1, 0.0, 1e-15, (1,)), (0.8, 0.8, 3, 0, 1, 0.0, 1e-15, (1,)), {"failed": ()}, []),
    UniversalMember: (("z1", _first, _unit_gradient), ("z1", _first, _unit_gradient), {}, []),
    UniversalSet: (((MEMBER,),), ((MEMBER,),), {}, [
        (((),), "universal set must be nonempty"),
    ]),
    OmegaEta: ((1j, -1j, "plus"), (1j, -1j, "plus"), {}, []),
    RationalMap: (((1j, 0j), (0j, 1 + 0j)), ((1j, 0j), (0j, 1 + 0j)), {}, []),
}
TYPES = list(CONTRACT)


@pytest.mark.parametrize("cls", TYPES, ids=[c.__name__ for c in TYPES])
def test_value_type_contract(cls):
    args, fields, defaults, rejections = CONTRACT[cls]
    x = cls(*args)
    assert x == fields and tuple(x) == fields
    assert [type(v) for v in x] == [type(v) for v in fields]
    kwargs = dict(zip(cls._fields, args))
    assert cls(**kwargs) == x
    # an omitted argument takes today's default
    short = cls(**{k: v for k, v in kwargs.items() if k not in defaults})
    assert {k: getattr(short, k) for k in defaults} == defaults
    assert hash(x) == hash(fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        x.extra = 0
    assert "A named tuple: it compares equal to the plain tuple of its fields." in " ".join(cls.__doc__.split())
    for bad, message in rejections:
        with pytest.raises(DomainError, match=re.escape(message)):
            cls(*bad)


def test_checked_fields_hold_the_checked_values():
    # each of these constructed and then failed with a TypeError when used
    assert MobiusMap("0.5") == (0.5 + 0j, 1 + 0j)
    assert MobiusMap("0.5")(0.1) == MobiusMap(0.5)(0.1)
    assert Alpha("1", 0, 0).coeffs() == (1 + 0j, 0j, 0j)
    assert type(Alpha("1", 0, 0).a1) is complex
    assert Quadratic("1", 0, 1)(0.5) == 1.25 + 0j


def test_values_with_equal_fields_compare_equal_across_types():
    assert Lens(0.8, 0.8) == DomainDab(0.8, 0.8) == (0.8, 0.8)
    assert hash(Lens(0.8, 0.8)) == hash(DomainDab(0.8, 0.8))


DISC = AnalyticDisc((IDENTITY_MAP,), "PhiGamma", {"a": 0.8})


# these hold a mapping, so they do not hash
@pytest.mark.parametrize("cls, args, defaults", [
    (AnalyticDisc, ((IDENTITY_MAP,), "PhiGamma", {"a": 0.8}), {"params": {}}),
    (GeodesicCertificate, (DISC, 0.5j, 1e-16, 0.8, 0.8, -0.6j, "plus", (("minus", 0.6j),)), {"alternates": ()}),
], ids=["AnalyticDisc", "GeodesicCertificate"])
def test_value_types_holding_a_mapping(cls, args, defaults):
    x = cls(*args)
    assert x == args and tuple(x) == args
    assert cls(**dict(zip(cls._fields, args))) == x
    assert {k: getattr(cls(*args[:-1]), k) for k in defaults} == defaults
    with pytest.raises(AttributeError):
        x.extra = 0
    assert "A named tuple: it compares equal to the plain tuple of its fields." in " ".join(cls.__doc__.split())

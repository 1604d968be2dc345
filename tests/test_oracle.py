"""`hilbert_oracle` against two references kept in `oracles.py`: the exact
rank over all of V**d at small degrees, and the rank modulo a prime at q
specialized to a random residue where the exact reference cannot go.  Also
the pivot rule of the oracle's echelon."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from braidalg import builtin_sl
from braidalg.builtin import adjoint_sl2, classical_space
from braidalg.frt import frt_relations
from braidalg.linalg import Echelon
from braidalg.ncalg import (NCPoly, RelationSet, _UnitPivotEchelon,
                            hilbert_oracle, relations_from_image)
from braidalg.scalar import ONE, Q, ZERO, parse_poly, parse_scalar

from oracles import hilbert_reference, modular_hilbert


@lru_cache(maxsize=None)
def _space(spec: str):
    if spec == "adjoint":
        return adjoint_sl2()[1]
    if spec == "plane":
        return classical_space(2)
    return builtin_sl(int(spec[3:]))[1]


def _relations(spec: str, poly: str | None) -> RelationSet:
    """The relations of f(braiding) for poly f, or the FRT t-relations when
    poly is None."""
    space = _space(spec)
    if poly is None:
        return frt_relations(space).relations
    return relations_from_image(space, parse_poly(poly))


_AGREEMENT = [
    ("sl:2", "x - q", 5), ("sl:2", "x + q^-1", 5),
    ("sl:3", "x - q", 5), ("sl:3", "x + q^-1", 5),
    ("sl:4", "x - q", 5), ("sl:4", "x + q^-1", 5),
    ("sl:2", None, 4), ("sl:3", None, 3),
    ("adjoint", "x - q^2", 5), ("adjoint", None, 3),
    ("plane", "x - 1", 5),
]


@pytest.mark.parametrize("spec, poly, max_degree", _AGREEMENT)
def test_oracle_agrees_with_the_definition(spec, poly, max_degree):
    rels = _relations(spec, poly)
    dims = hilbert_oracle(rels, max_degree)
    assert len(dims) == max_degree + 1
    assert dims == hilbert_reference(rels, max_degree)
    assert dims == modular_hilbert(rels, max_degree, seed=max_degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_without_relations_is_the_tensor_algebra(n):
    rels = RelationSet(n, [])
    expect = [n ** d for d in range(5)]
    assert hilbert_oracle(rels, 4) == hilbert_reference(rels, 4) == expect


@pytest.mark.parametrize("spec", ["sl:2", "sl:3", "adjoint"])
def test_oracle_with_all_of_v_tensor_v_stops_at_degree_one(spec):
    """f = 1 is invertible, so f(braiding) has image V (x) V."""
    rels = _relations(spec, "1")
    n = rels.alphabet
    assert len(rels) == n * n
    expect = [1, n, 0, 0, 0]
    assert hilbert_oracle(rels, 4) == hilbert_reference(rels, 4) == expect


@pytest.mark.parametrize("max_degree, expect", [(-1, []), (0, [1]), (1, [1, 3])])
def test_oracle_below_degree_two(max_degree, expect):
    rels = _relations("sl:3", "x - q")
    assert hilbert_oracle(rels, max_degree) == expect
    assert hilbert_reference(rels, max_degree) == expect


def test_sl3_frt_oracle_at_degree_four_is_flat():
    """Beyond the exact reference: the sl:3 t-algebra has the dimensions of
    the polynomial ring in its 9 generators."""
    rels = _relations("sl:3", None)
    expect = [math.comb(8 + d, d) for d in range(5)]
    assert hilbert_oracle(rels, 4) == expect
    assert modular_hilbert(rels, 4, seed=1) == expect


def test_adjoint_frt_oracle_at_degree_four_agrees_with_modular_rank():
    rels = _relations("adjoint", None)
    assert hilbert_oracle(rels, 4) == modular_hilbert(rels, 4, seed=4)


# --- pivot rule ---------------------------------------------------------------

_POOL = [parse_scalar(s) for s in
         ("1", "-1", "q", "-q^-2", "q^3", "2", "-3*q", "q + 1", "q - q^-1",
          "1/(q + 1)", "(q^2 - 1)/(2*q)", "1/2")]
_vectors = st.lists(st.dictionaries(st.integers(0, 7), st.sampled_from(_POOL),
                                    min_size=1, max_size=4), max_size=8)
_mixes = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                            st.sampled_from(_POOL)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(vectors=_vectors, mixes=_mixes)
def test_unit_pivot_echelon_spans_what_the_default_spans(vectors, mixes):
    for i, j, c in mixes:
        if i < len(vectors) and j < len(vectors):
            mixed = dict(vectors[i])
            for k, v in vectors[j].items():
                mixed[k] = mixed.get(k, ZERO) + c * v
            vectors.append({k: v for k, v in mixed.items() if not v.is_zero()})
    default, unit = Echelon(), _UnitPivotEchelon()
    for vec in vectors:
        assert default.insert(vec) == unit.insert(vec)
    assert default.rank == unit.rank
    assert all(unit.contains(row) for row in default.basis())
    assert all(default.contains(row) for row in unit.basis())
    for p, row in unit.pivot_rows.items():
        assert row[p] == ONE
        assert not (set(row) - {p}) & set(unit.pivot_rows)


def test_unit_pivot_choice():
    choose = _UnitPivotEchelon().choose_pivot
    q1, two = parse_scalar("q + 1"), parse_scalar("2")
    assert choose({0: q1, 1: two, 2: -Q ** -3, 3: Q}) == 2
    assert choose({0: q1, 1: two * Q}) == 0      # 2q is no unit: lowest
    assert choose({4: q1, 5: ONE}) == 5
    assert Echelon().choose_pivot({0: q1, 1: two, 2: ONE}) == 0


def test_relation_set_keeps_lowest_index_pivots():
    """A printed relation is monic in its lowest-index word even when that
    coefficient is not a unit."""
    rels = RelationSet(2, [NCPoly({(0, 1): parse_scalar("q + 1"),
                                   (1, 0): ONE})])
    assert type(rels.span) is Echelon
    assert set(rels.span.pivot_rows) == {1}
    assert rels.relations[0].coeffs == {(0, 1): ONE,
                                        (1, 0): parse_scalar("1/(q + 1)")}
    for spec, poly in [("sl:3", "x + q^-1"), ("adjoint", "x - q^2"),
                       ("sl:2", None)]:
        span = _relations(spec, poly).span
        assert all(p == min(row) for p, row in span.pivot_rows.items())

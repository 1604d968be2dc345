"""`hilbert_oracle` against two references kept in `oracles.py`: the exact
rank over all of V**d at small degrees, and the rank modulo a prime at q
specialized to a random residue where the exact reference cannot go.  The
ranks of `relations_from_image` and `frt_relations` against the same rank
modulo a prime, taken from the braiding's entries alone.  Also the pivot
rule of the oracle's echelon."""

import math
import random
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

from oracles import (P, _modular_rank, _residue, hilbert_reference,
                     modular_hilbert)


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


# --- relation ranks modulo a prime -------------------------------------------
#
# q is sent to a seeded residue q0 modulo P; the rank there is at most the
# rank over Q(q), and equal to it unless q0 is a root of one of finitely many
# non-zero polynomials.  Matrices are lists of sparse columns {row: int}.


def _q0(seed: int) -> int:
    return random.Random(seed).randrange(2, P - 1)


def _braiding_mod_p(space, q0: int) -> list[dict]:
    return [{i: r for i, v in col.items() if (r := _residue(v, q0))}
            for col in space.braiding.columns]


def _image_rank_mod_p(space, f, q0: int) -> int:
    """The rank of f(B) modulo P, by Horner's rule from the top
    coefficient."""
    b = _braiding_mod_p(space, q0)
    out: list[dict] = [{} for _ in b]
    for c in reversed(f):
        r = _residue(c, q0)
        nxt = []
        for j, col in enumerate(out):
            acc = {j: r}                     # B . col + r e_j
            for k, v in col.items():
                for i, w in b[k].items():
                    acc[i] = (acc.get(i, 0) + w * v) % P
            nxt.append({i: v for i, v in acc.items() if v})
        out = nxt
    return _modular_rank(out)


def _frt_rank_mod_p(space, q0: int) -> int:
    """The rank of kron(B^T, I) - kron(I, B) modulo P; `frt_relations`
    conjugates it by the middle swap, which keeps the rank."""
    b = _braiding_mod_p(space, q0)
    m = len(b)
    rows: list[dict] = [{} for _ in b]
    for j, col in enumerate(b):
        for i, v in col.items():
            rows[i][j] = v
    columns = []
    for j1 in range(m):
        for j2 in range(m):
            # column (j1, j2): (B^T)[i1, j1] = B[j1, i1] at (i1, j2), minus
            # B[i2, j2] at (j1, i2)
            vec = {i1 * m + j2: v for i1, v in rows[j1].items()}
            for i2, v in b[j2].items():
                vec[j1 * m + i2] = (vec.get(j1 * m + i2, 0) - v) % P
            columns.append({i: v for i, v in vec.items() if v})
    return _modular_rank(columns)


@pytest.mark.parametrize("spec, poly", [
    ("sl:2", "x - q"), ("sl:2", "x + q^-1"), ("sl:3", "x - q"),
    ("sl:3", "x + q^-1"), ("sl:4", "x - q"), ("sl:4", "x + q^-1"),
    ("adjoint", "x - q^2")])
def test_image_rank_agrees_with_rank_mod_p(spec, poly):
    f = parse_poly(poly)
    assert len(relations_from_image(_space(spec), f)) == \
        _image_rank_mod_p(_space(spec), f, _q0(1))


@pytest.mark.parametrize("spec", ["sl:2", "sl:3", "adjoint"])
def test_frt_rank_agrees_with_rank_mod_p(spec):
    pres = frt_relations(_space(spec))
    assert pres.rank == len(pres.relations) == \
        _frt_rank_mod_p(_space(spec), _q0(2))


_ROOTS = ["q", "-q^-1", "1", "-1", "q^2", "-q^-2", "2", "1/2", "(q + 1)/2"]


@pytest.mark.parametrize("seed", range(10))
def test_seeded_quadratic_image_rank_agrees_with_rank_mod_p(seed):
    rng = random.Random(seed)
    spec = rng.choice(["sl:2", "sl:3", "adjoint"])
    f = parse_poly(f"({rng.choice(['x - q', 'x + q^-1'])})"
                   f"*(x - ({rng.choice(_ROOTS)}))")
    assert len(relations_from_image(_space(spec), f)) == \
        _image_rank_mod_p(_space(spec), f, _q0(seed))


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

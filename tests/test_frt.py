import itertools
import math
import random

import pytest

from braidalg.builtin import adjoint_sl2, builtin_sl, classical_space
from braidalg.frt import (FRTPresentation, PairingTable, _draw_below,
                          _entry_index, _nonzero_pairings, _word_operators,
                          check_duality, frt_coideal_check, frt_hilbert,
                          frt_relations, pairing, t_names)
from braidalg.linalg import BraidedSpace, Echelon, SymMatrix, solve_commutant
from braidalg.ncalg import NCPoly, RelationSet, relations_from_image
from braidalg.scalar import ONE, Q, ZERO, Scalar, parse_poly
from braidalg.uqg import (Gen, GeneratorCoalgebra, Representation,
                          check_preserves_R)
from oracles import (dense_identity, dense_kron, dense_product, dense_rows,
                     dense_scale, dense_sum, dense_zeros,
                     frt_relations_reference)


def test_n1_space_has_no_relations():
    space = BraidedSpace.from_braiding(SymMatrix([[Q]]))
    pres = frt_relations(space)
    assert pres.rank == 0
    assert frt_coideal_check(pres).passed  # vacuous
    assert frt_hilbert(pres, 4) == [1, 1, 1, 1, 1]


def test_t_names_from_n_10_on_are_bracketed():
    names = t_names(10)
    assert names[:2] == ["t[1,1]", "t[1,2]"] and names[-1] == "t[10,10]"
    assert len(set(names)) == 100
    assert not any(ch.isspace() for name in names for ch in name)
    assert RelationSet(100, [], names=names).names == names


def test_sl2_relation_count_and_content(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert pres.rank == 6
    assert len(pres.relations) == 6
    # the row-commutation relation, hand-derived: t11 t12 - q t12 t11
    by_lead = {min(r.coeffs): r for r in pres.relations.relations}
    row_rel = by_lead[(0, 1)]
    assert row_rel.coeffs == {(0, 1): ONE, (1, 0): -Q}
    col_rel = by_lead[(0, 2)]
    assert col_rel.coeffs == {(0, 2): ONE, (2, 0): -Q}
    assert (1, 2) in by_lead  # t12 t21 = t21 t12
    assert by_lead[(1, 2)].coeffs == {(1, 2): ONE, (2, 1): -ONE}


def test_sl2_degree2_dimension(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert 16 - pres.rank == 10


def test_sl3_relation_count(sl3):
    _, space = sl3
    pres = frt_relations(space)
    # the commutator functionals of the braiding have rank 81 - dim of its
    # centralizer = 81 - (6^2 + 3^2) = 36, the flat quantum-matrix value
    assert pres.rank == 36
    assert 81 - pres.rank == 45


def test_sl3_hilbert_flat(sl3):
    _, space = sl3
    pres = frt_relations(space)
    # commutative 9-variable counts; only the 36-relation presentation is flat
    assert frt_hilbert(pres, 3) == [1, 9, 45, 165]


def test_rank_invariant_under_rescaling(sl2):
    _, space = sl2
    base_rank = frt_relations(space).rank
    rng = random.Random(2)
    for _ in range(3):
        c = Scalar.q_power(rng.randint(-3, 3)) * rng.choice([1, 2, -1])
        rescaled = BraidedSpace(space.rtt * c)
        assert frt_relations(rescaled).rank == base_rank


def test_coideal_check_passes(sl2):
    _, space = sl2
    pres = frt_relations(space)
    report = frt_coideal_check(pres)
    assert report.passed
    assert len(report.items) == 12  # counit + coproduct membership per relation


def test_coideal_mutation_fails(sl2):
    _, space = sl2
    pres = frt_relations(space)
    # a generic degree-2 element replacing one relation
    mutated_poly = NCPoly({(0, 3): ONE, (2, 2): Q, (1, 0): ONE})
    mutated = RelationSet(4, pres.relations.relations[:-1] + [mutated_poly],
                          names=t_names(2))
    bad_pres = FRTPresentation(2, mutated, len(mutated), pres.convention)
    assert not frt_coideal_check(bad_pres).passed


def test_counit_annihilates_relations(sl2):
    _, space = sl2
    pres = frt_relations(space)
    for rel in pres.relations.relations:
        total = ZERO
        for w, c in rel.coeffs.items():
            total = total + pres.coalgebra.counit_word(w) * c
        assert total.is_zero()


def test_coproduct_counit_law_on_letters(sl2):
    _, space = sl2
    pres = frt_relations(space)
    coalg = pres.coalgebra
    for letter in range(4):
        left = [r for (l,), (r,), _ in coalg.delta[letter]
                if not coalg.counit[l].is_zero()]
        right = [l for (l,), (r,), _ in coalg.delta[letter]
                 if not coalg.counit[r].is_zero()]
        assert left == [letter]
        assert right == [letter]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_coalgebra_tables(n):
    coalg = GeneratorCoalgebra.matrix(n)
    assert coalg.symbols == tuple(range(n * n))
    for a, b in itertools.product(range(n), repeat=2):
        assert coalg.counit[a * n + b] == (ONE if a == b else ZERO)
        assert coalg.delta[a * n + b] == [((a * n + k,), (k * n + b,), ONE)
                                          for k in range(n)]


@pytest.mark.parametrize("n, max_length", [(2, 4), (3, 3)])
def test_matrix_coalgebra_delta_word(n, max_length):
    """delta(t_{a1 b1} ... t_{ak bk}) = sum over k-tuples of middle indices
    m of t_{a1 m1} ... t_{ak mk} (x) t_{m1 b1} ... t_{mk bk}: n**k distinct
    pairs of words, each with coefficient 1."""
    coalg = GeneratorCoalgebra.matrix(n)
    for length in range(max_length + 1):
        for word in itertools.product(range(n * n), repeat=length):
            terms = coalg.delta_word(word)
            ends = [divmod(letter, n) for letter in word]
            expected = {
                (tuple(a * n + m for (a, _), m in zip(ends, mid)),
                 tuple(m * n + b for (_, b), m in zip(ends, mid)))
                for mid in itertools.product(range(n), repeat=length)}
            assert len(terms) == n ** length
            assert {(l, r) for l, r, _ in terms} == expected
            assert all(c == ONE for _, _, c in terms)


def test_corrupted_matrix_coalgebra_is_refused():
    good = GeneratorCoalgebra.matrix(2)
    counit = dict(good.counit)
    counit[1] = ONE  # eps(t12) = 1
    with pytest.raises(ValueError, match="invalid coalgebra tables"):
        GeneratorCoalgebra(good.symbols, good.delta, counit)
    delta = dict(good.delta)
    delta[1] = delta[1][:1]  # delta(t12) = t11 (x) t12 only
    with pytest.raises(ValueError, match="invalid coalgebra tables"):
        GeneratorCoalgebra(good.symbols, delta, good.counit)


def test_presentation_coalgebra_is_the_matrix_coalgebra(sl3):
    _, space = sl3
    pres = frt_relations(space)
    assert pres.coalgebra is pres.coalgebra
    matrix = GeneratorCoalgebra.matrix(3)
    assert pres.coalgebra.symbols == matrix.symbols
    assert pres.coalgebra.delta == matrix.delta
    assert pres.coalgebra.counit == matrix.counit


def test_frt_hilbert_flat(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert frt_hilbert(pres, 3) == [1, 4, 10, 20]


def test_pairing_values(sl2):
    rep, space = sl2
    K, E, F = Gen("K", 0), Gen("E", 0), Gen("F", 0)
    # diagonal entries of K are q^-1, q; E sits at the (2,1) slot
    assert pairing(rep, (K,), (0,)) == Q ** -1
    assert pairing(rep, (K,), (3,)) == Q
    assert pairing(rep, (K,), (1,)).is_zero()
    assert pairing(rep, (E,), (2,)) == ONE
    assert all(pairing(rep, (E,), (l,)).is_zero() for l in (0, 1, 3))
    assert pairing(rep, (F,), (1,)) == ONE
    # empty word pairs as the counit row
    for letter, expect in ((0, ONE), (1, ZERO), (2, ZERO), (3, ONE)):
        assert pairing(rep, (), (letter,)) == expect


def _perturbed_e1(rep, space):
    """(rep with entry (0, 0) of E1 set to q, space)."""
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = Q
    assign[Gen("E", 0)] = SymMatrix(entries)
    return Representation(rep.presentation, assign, name="perturbed"), space


def test_pairing_table_is_bilinear_cache(sl2):
    # on a perturbed sl:2 some relations pair to non-zero; the word
    # operators must pair exactly as the linear extension of `pairing`
    mutated, space = _perturbed_e1(*sl2)
    rels = frt_relations(space).relations.relations
    positions = [[(_entry_index(w, 2), c) for w, c in rel.coeffs.items()]
                 for rel in rels]

    def reference(words):
        out = []
        for u in words:
            for idx, rel in enumerate(rels):
                value = ZERO
                for w, c in rel.coeffs.items():
                    value = value + c * pairing(mutated, u, w)
                if not value.is_zero():
                    out.append((u, idx, value))
        return out

    ops = list(_word_operators(mutated, 2))
    expected = reference([u for u, _ in ops])
    assert expected
    assert list(_nonzero_pairings(ops, positions)) == expected


def test_duality_sl2(sl2):
    rep, space = sl2
    report = check_duality(rep, space, max_degree=3)
    assert report.passed
    assert any("direct" in note for note in report.notes)


def test_duality_mutation_fails(sl2):
    rep, space = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated")
    report = check_duality(mutated, space, max_degree=2)
    assert not report.passed
    annihilation = [i for i in report.items if "annihilation" in i.name]
    assert annihilation and not annihilation[0].passed


def test_annihilation_iff_preserves(sl2):
    # both directions, on the builtin and on a mutated representation
    rep, space = sl2
    assert check_preserves_R(rep, space).passed
    assert check_duality(rep, space, max_degree=3).passed
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("F", 0)].entries]
    entries[1][1] = Q
    assign[Gen("F", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated-F")
    assert not check_preserves_R(mutated, space).passed
    report = check_duality(mutated, space, max_degree=2)
    annihilation = [i for i in report.items if "annihilation" in i.name]
    assert not annihilation[0].passed


def test_duality_sl3(sl3):
    rep, space = sl3
    report = check_duality(rep, space, max_degree=2, samples=40)
    assert report.passed


def _orientation_report(sl2, monkeypatch, column):
    """check_duality on sl:2 with `PairingTable.column` replaced: its
    sampled items by kind, and its orientation note."""
    rep, space = sl2
    monkeypatch.setattr(PairingTable, "column", column)
    report = check_duality(rep, space, max_degree=3, samples=300)
    items = {i.name.split(" on ")[0]: i.passed for i in report.items
             if " samples" in i.name}
    notes = [n for n in report.notes if n.startswith("multiplicativity")]
    return items, notes


def test_duality_reports_the_opposite_orientation(sl2, monkeypatch):
    # composing a word first symbol first makes X_uv = X_v X_u
    def column(self, u, k, col):
        vec = {col: ONE}
        for s in u:
            vec = self.rep.actions.act((s,), vec, k)
        return vec

    items, notes = _orientation_report(sl2, monkeypatch, column)
    assert items["<uv, a> = sum <u, a1><v, a2>"] is False
    assert notes == ["multiplicativity orientation: "
                     "opposite multiplication order"]


def test_duality_reports_neither_orientation(sl2, monkeypatch):
    # a word acting as its first symbol alone breaks both orders
    def column(self, u, k, col):
        return self.rep.actions.act(u[:1], {col: ONE}, k)

    items, notes = _orientation_report(sl2, monkeypatch, column)
    assert list(items.values()) == [False, False]
    assert notes == ["multiplicativity orientation: neither orientation holds"]


def _sampled_words(rep, space, max_degree, samples, seed):
    """The seeded samples of check_duality's two compatibility loops, drawn
    in its order: the (u, v, a) of `<uv, a>`, then the (u, a, b) of
    `<u, ab>`.  Each t-word is drawn as the entry (k, row, col) of V^(x)k
    that it pairs with and read back as its letters: letter m is
    row_digit_m * n + col_digit_m, digits base n, leading digit first."""
    gens = list(rep.presentation.generators)
    n = space.dim
    getrandbits = random.Random(seed).getrandbits

    def below(m):
        while (r := getrandbits((m - 1).bit_length())) >= m:
            pass
        return r

    def random_u(max_len):
        return tuple(gens[below(len(gens))]
                     for _ in range(below(max_len + 1)))

    def random_t(max_len):
        k = below(max_len + 1)
        row, col = below(n ** k), below(n ** k)
        places = [n ** (k - 1 - m) for m in range(k)]
        return tuple(row // p % n * n + col // p % n for p in places)

    triples = [(random_u(max_degree - 1), random_u(max_degree - 1),
                random_t(max_degree)) for _ in range(samples)]
    splits = []
    for _ in range(samples):
        u = random_u(max_degree)
        a = random_t(max_degree)
        splits.append((u, a, random_t(max_degree - len(a))))
    return triples, splits


def test_duality_skips_the_columns_of_zero_pairings(sl2, monkeypatch):
    # a coproduct term whose first pairing is zero adds nothing, so its
    # other pairing is never built: in <uv, a> the walk over column J of
    # X_v reads column K of X_u only for the non-zero entries K, and in
    # <u, ab> <u2, b> is read only where <u1, a> is non-zero; the
    # reference reads every column of every term
    rep, space = sl2
    built = []
    column = PairingTable.column

    def spy(self, u, k, col):
        if (u, k, col) not in self._columns:
            built.append((u, k, col))
        return column(self, u, k, col)

    monkeypatch.setattr(PairingTable, "column", spy)
    report = check_duality(rep, space, max_degree=3, samples=200, seed=0)
    monkeypatch.undo()
    assert report.passed
    assert "multiplicativity orientation: direct (plain multiplication " \
        "order)" in report.notes

    pres = frt_relations(space)
    triples, splits = _sampled_words(rep, space, 3, 200, 0)
    table = PairingTable(rep, space.dim)
    for u, v, a in triples:
        table.pair(u + v, a)
        for left, right, _ in pres.coalgebra.delta_word(a):
            table.pair(u, left)
            table.pair(v, right)
    for u, a, b in splits:
        table.pair(u, a + b)
        for left, right, _ in rep.presentation.coalgebra.delta_word(u):
            table.pair(left, a)
            table.pair(right, b)
    # the same samples, so every column built is one the reference built
    assert len(set(built)) == len(built)
    assert set(built) < set(table._columns)


def test_duality_reads_one_column_of_the_right_factor_first(sl3, monkeypatch):
    # every <v, a2> of a sample reads the same column J of X_v; the walk
    # over its non-zero entries builds the columns of the term loop that
    # looks <v, a2> up first, and fewer than one looking up <u, a1> first
    rep, space = sl3
    built = []
    column = PairingTable.column

    def spy(self, u, k, col):
        if (u, k, col) not in self._columns:
            built.append((u, k, col))
        return column(self, u, k, col)

    monkeypatch.setattr(PairingTable, "column", spy)
    assert check_duality(rep, space, max_degree=3, samples=200,
                         seed=2).passed
    monkeypatch.undo()

    pres = frt_relations(space)
    triples, _ = _sampled_words(rep, space, 3, 200, 2)

    def product_loop(right_first):
        table = PairingTable(rep, space.dim)
        for u, v, a in triples:
            rhs = ZERO
            for left, right, c in pres.coalgebra.delta_word(a):
                first, second = ((v, right), (u, left)) if right_first \
                    else ((u, left), (v, right))
                if not (value := table.pair(*first)).is_zero():
                    rhs = rhs + value * table.pair(*second) * c
            assert table.pair(u + v, a) == rhs
        return set(table._columns)

    right_first, left_first = product_loop(True), product_loop(False)
    # the check's <uv, a> loop runs first, on a fresh table
    assert set(built[:len(right_first)]) == right_first
    assert len(right_first) < len(left_first)


def test_frt_relations_insert_the_cheapest_rows_first(spanned_by_inputs,
                                                      monkeypatch):
    # the adjoint commutator rows in the order given cost a plain Echelon
    # more canonicalisations than all of frt_relations
    import braidalg.scalar
    _, space = adjoint_sl2()
    calls = []
    canonical = braidalg.scalar._canonical

    def spy(num, den):
        calls.append(1)
        return canonical(num, den)

    monkeypatch.setattr(braidalg.scalar, "_canonical", spy)
    pres = frt_relations(space)
    sorted_calls = len(calls)
    calls.clear()
    in_order = Echelon()
    for vec in spanned_by_inputs[0]:
        in_order.insert(vec)
    monkeypatch.undo()
    assert in_order.pivot_rows == pres.relations.span.pivot_rows
    assert pres.rank == 46
    assert sorted_calls < len(calls)


def test_duality_expands_no_t_word_coproduct(sl3, monkeypatch):
    # the <uv, a> sum reads columns of the word actions directly, so the
    # matrix coalgebra's delta_word is never called; the <u, ab> sum still
    # expands the U_q coproduct of u
    rep, space = sl3
    owners = []
    delta_word = GeneratorCoalgebra.delta_word

    def spy(self, word):
        owners.append(self)
        return delta_word(self, word)

    monkeypatch.setattr(GeneratorCoalgebra, "delta_word", spy)
    assert check_duality(rep, space, max_degree=3, samples=200, seed=2).passed
    assert owners
    assert all(owner is rep.presentation.coalgebra for owner in owners)


def test_duality_takes_each_entry_index_once(sl3, monkeypatch):
    # a sampled t-word is drawn as its (row, col), so the samples take no
    # entry index; frt_relations reads the n^4 degree-2 t-words once each
    import braidalg.frt
    rep, space = sl3
    calls = []
    entry_index = braidalg.frt._entry_index

    def spy(t_word, n):
        calls.append(t_word)
        return entry_index(t_word, n)

    monkeypatch.setattr(braidalg.frt, "_entry_index", spy)
    samples = 200
    assert check_duality(rep, space, max_degree=3, samples=samples,
                         seed=2).passed
    assert len(calls) == space.dim ** 4


def test_draw_below_spends_one_call_on_a_power_of_two():
    # k = (m - 1).bit_length() bits cover range(m) exactly when m is a
    # power of two, so no draw is rejected; for m = 1 it asks for no bits
    rng = random.Random(5)
    for m in range(1, 65):
        widths = []

        def getrandbits(k):
            widths.append(k)
            return rng.getrandbits(k)

        state = rng.getstate()
        assert 0 <= _draw_below(getrandbits, m) < m
        assert set(widths) == {(m - 1).bit_length()}
        drawn = [k for k in widths if k]  # getrandbits(0) spends no state
        if m == 1:
            assert drawn == [] and rng.getstate() == state
        elif m & (m - 1) == 0:
            assert len(drawn) == 1


_SEED_CASES = {
    "sl:2": lambda: builtin_sl(2),
    "sl:3": lambda: builtin_sl(3),
    "adjoint sl:2": adjoint_sl2,
    "perturbed-E1 sl:2": lambda: _perturbed_e1(*builtin_sl(2)),
}


@pytest.mark.parametrize("name", list(_SEED_CASES))
def test_duality_report_is_the_same_for_every_seed(name):
    # both sampled items hold by construction for any assignment of the
    # generator matrices, so the orientation note is "direct", and the
    # annihilation item reads no sample: the seed changes no report
    rep, space = _SEED_CASES[name]()
    for degree in (1, 2, 3):
        renders = {check_duality(rep, space, max_degree=degree,
                                 seed=seed).render() for seed in range(6)}
        assert len(renders) == 1, degree


def test_duality_expands_each_sampled_coproduct_once(sl3, monkeypatch):
    rep, space = sl3
    expanded = []
    delta_word = GeneratorCoalgebra.delta_word

    def spy(self, word):
        expanded.append(tuple(word))
        return delta_word(self, word)

    monkeypatch.setattr(GeneratorCoalgebra, "delta_word", spy)
    assert check_duality(rep, space, max_degree=3, samples=200, seed=2).passed
    _, splits = _sampled_words(rep, space, 3, 200, 2)
    distinct = {u for u, _, _ in splits}
    assert len(distinct) < len(splits)
    assert len(expanded) == len(set(expanded))
    assert set(expanded) == distinct


def test_duality_fails_a_product_entry_over_an_empty_column(sl2,
                                                            monkeypatch):
    # column J of X_v is empty, so the walk for <uv, a> sums nothing; an
    # entry X_uv[I, J] made non-zero must still fail the item
    rep, space = sl2
    n = space.dim
    # the samples of _orientation_report's check
    triples, _ = _sampled_words(rep, space, 3, 300, 0)
    table = PairingTable(rep, n)
    walked = set()
    for u, v, a in triples:
        col = _dense_entry(a, n)[1]
        walked.add((v, len(a), col))
        walked.update((u, len(a), mid) for mid in table.column(v, len(a), col))
    # a sample whose X_uv column no walk reads, so only its own lhs sees it
    target, row = next(((u + v, len(a), col), row) for u, v, a in triples
                       for row, col in [_dense_entry(a, n)]
                       if not table.column(v, len(a), col)
                       and (u + v, len(a), col) not in walked)
    assert row not in table.column(*target)
    column = PairingTable.column

    def corrupted(self, u, k, col):
        vec = column(self, u, k, col)
        return {**vec, row: ONE} if (u, k, col) == target else vec

    items, _ = _orientation_report(sl2, monkeypatch, corrupted)
    assert items["<uv, a> = sum <u, a1><v, a2>"] is False


def test_duality_refuses_another_dimension_before_any_work(sl2, sl3,
                                                           monkeypatch):
    import braidalg.frt
    calls = []
    monkeypatch.setattr(braidalg.frt, "frt_relations",
                        lambda space: calls.append(space))
    with pytest.raises(ValueError, match="dimension must equal n"):
        check_duality(sl3[0], sl2[1], max_degree=2)
    assert calls == []


def _dense_entry(t_word, n):
    """(row, col) of V^(x)k that a t-word of length k pairs with: t_ij
    contributes the digit i to the row and j to the column, base n."""
    row = col = 0
    for letter in t_word:
        row, col = row * n + letter // n, col * n + letter % n
    return row, col


_DUALITY_CASES = {
    "sl:2": (lambda: builtin_sl(2), 3),
    "sl:3": (lambda: builtin_sl(3), 2),
    "adjoint sl:2": (adjoint_sl2, 3),
}


@pytest.mark.parametrize("name", list(_DUALITY_CASES))
def test_skipping_sums_match_dense_word_actions(name):
    # both sampled sums of check_duality, with the second pairing of a term
    # looked up only when the first is non-zero, against the entries of
    # dense products of the generator actions on V^(x)k; the <uv, a> sum
    # also as the walk sum_K X_u[I, K] X_v[K, J] over column J of X_v
    factory, degree = _DUALITY_CASES[name]
    rep, space = factory()
    n = rep.dim
    pres = frt_relations(space)
    table = PairingTable(rep, n)
    dense: dict = {}

    def word(u, k):
        if (u, k) not in dense:
            dense[u, k] = (dense_identity(n ** k) if not u else dense_product(
                dense_rows(rep.actions.extended(u[0], k)), word(u[1:], k)))
        return dense[u, k]

    def skipping_sum(terms, first_pair, second_pair):
        value, skipped = ZERO, 0
        for left, right, c in terms:
            first = first_pair(left)
            if first.is_zero():
                skipped += 1
            else:
                value = value + first * second_pair(right) * c
        return value, skipped

    triples, splits = _sampled_words(rep, space, degree, 30, 5)
    skipped = 0
    for u, v, a in triples:
        rhs, s = skipping_sum(pres.coalgebra.delta_word(a),
                              lambda t: table.pair(u, t),
                              lambda t: table.pair(v, t))
        row, col = _dense_entry(a, n)
        walk = ZERO
        for mid, second in table.column(v, len(a), col).items():
            walk = walk + table.column(u, len(a), mid).get(row, ZERO) * second
        assert rhs == walk == dense_product(word(u, len(a)),
                                            word(v, len(a)))[row][col]
        skipped += s
    for u, a, b in splits:
        terms = list(rep.presentation.coalgebra.delta_word(u))
        rhs, s = skipping_sum(terms, lambda w: table.pair(w, a),
                              lambda w: table.pair(w, b))
        row, col = _dense_entry(a + b, n)
        assert rhs == word(u, len(a) + len(b))[row][col]
        # the same entry of sum c X_u1 (x) X_u2 on V^(x)|a| (x) V^(x)|b|
        split = dense_zeros(n ** (len(a) + len(b)), n ** (len(a) + len(b)))
        for left, right, c in terms:
            split = dense_sum(split, dense_scale(
                dense_kron(word(left, len(a)), word(right, len(b))), c))
        assert rhs == split[row][col]
        skipped += s
    assert skipped


def test_pairing_rejects_unknown_letter(sl2):
    rep, _ = sl2
    with pytest.raises(ValueError):
        pairing(rep, (Gen("E", 0),), (7,))


def test_group_like_multiplicativity(sl2):
    # <K, ab> = <K, a><K, b> exactly, as the coproduct of K is K (x) K
    rep, space = sl2
    table = PairingTable(rep, 2)
    K = Gen("K", 0)
    pres = frt_relations(space)
    rng = random.Random(4)
    for _ in range(30):
        a = tuple(rng.randrange(4) for _ in range(rng.randint(0, 2)))
        b = tuple(rng.randrange(4) for _ in range(rng.randint(0, 2)))
        lhs = table.pair((K,), a + b)
        rhs = table.pair((K,), a) * table.pair((K,), b)
        assert lhs == rhs


def test_duality_refuses_degree_and_sample_bounds_below_one(sl2):
    rep, space = sl2
    for degree in (0, -1):
        with pytest.raises(ValueError, match="max_degree >= 1"):
            check_duality(rep, space, max_degree=degree)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples >= 1"):
            check_duality(rep, space, max_degree=2, samples=samples)
    report = check_duality(rep, space, max_degree=1, samples=1)
    assert report.passed and "1 samples" in report.items[1].name


def test_duality_refuses_empty_relation_set(sl2):
    # a 1-dimensional space has no t-relations, so annihilation would be
    # checked against nothing
    rep, _ = sl2
    zero, one = SymMatrix([[ZERO]]), SymMatrix([[ONE]])
    trivial = Representation(rep.presentation, {
        Gen("E", 0): zero, Gen("F", 0): zero, Gen("K", 0): one,
        Gen("Ki", 0): one}, name="trivial")
    space = BraidedSpace.from_braiding(SymMatrix([[Q]]))
    with pytest.raises(ValueError, match="empty relation set"):
        check_duality(trivial, space, max_degree=3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutant_dimension_from_eigenspaces(n):
    # The braiding is Hecke and semisimple, so its commutant in
    # End(V (x) V) has dimension a^2 + b^2 for its eigenspace dimensions
    # a, b, read off the images of B + q^-1 and B - q without
    # frt_relations or solve_commutant.
    _, space = builtin_sl(n)
    sym = len(relations_from_image(space, parse_poly("x + q^-1")).relations)
    ext = len(relations_from_image(space, parse_poly("x - q")).relations)
    assert (sym, ext) == (math.comb(n + 1, 2), math.comb(n, 2))
    expected = sym ** 2 + ext ** 2
    assert expected == {2: 10, 3: 45, 4: 136}[n]
    assert len(solve_commutant([space.braiding])) == expected
    assert expected == n ** 4 - frt_relations(space).rank


def _annihilates(op, relations, n):
    """Every relation pairs to zero with the operator on V (x) V, each
    t-word reading the entry of its (i-vector, j-vector) index."""
    entries = op.entries
    for rel in relations:
        value = ZERO
        for w, c in rel.coeffs.items():
            row, col = _entry_index(w, n)
            value = value + entries[row][col] * c
        if not value.is_zero():
            return False
    return True


@pytest.mark.parametrize("name", ["sl:2", "sl:3", "adjoint_sl2",
                                  "classical:2"])
def test_relation_annihilator_is_the_braiding_commutant(name):
    # the operators on V (x) V that pair to zero with every relation are
    # exactly those that commute with the braiding
    space = {"sl:2": lambda: builtin_sl(2)[1],
             "sl:3": lambda: builtin_sl(3)[1],
             "adjoint_sl2": lambda: adjoint_sl2()[1],
             "classical:2": lambda: classical_space(2)}[name]()
    n, b = space.dim, space.braiding
    pres = frt_relations(space)
    relations = pres.relations.relations
    commutant = solve_commutant([b])
    assert len(commutant) == n ** 4 - pres.rank
    assert len(commutant) == {"sl:2": 10, "sl:3": 45, "adjoint_sl2": 35,
                              "classical:2": 10}[name]
    assert all(_annihilates(m, relations, n) for m in commutant)
    rng = random.Random(7)
    outcomes = set()
    for _ in range(8):
        x = SymMatrix.zeros(n * n)
        for m in commutant:
            x = x + m * rng.randint(-2, 2)
        if rng.random() < 0.5:
            i, j = rng.randrange(n * n), rng.randrange(n * n)
            x = x + SymMatrix.unit(n * n, i, j) * rng.choice([1, -1, 2])
        commutes = b * x == x * b
        assert _annihilates(x, relations, n) == commutes
        outcomes.add(commutes)
    assert outcomes == {True, False}


def test_duality_refuses_mismatched_dimensions(sl2, sl3):
    rep, _ = sl2
    _, space = sl3
    with pytest.raises(ValueError,
                       match="representation dimension must equal n"):
        check_duality(rep, space, max_degree=2)


def _exhaustive_annihilation(rep, space, max_degree):
    """The annihilation item of check_duality, recomputed word by word with
    `pairing` over every generator word up to the degree bound."""
    rels = frt_relations(space).relations.relations
    gens = list(rep.presentation.generators)
    words = [u for length in range(max_degree + 1)
             for u in itertools.product(gens, repeat=length)]
    bad, witness = 0, ""
    for u in words:
        for idx, rel in enumerate(rels):
            value = ZERO
            for w, c in rel.coeffs.items():
                value = value + pairing(rep, u, w) * c
            if not value.is_zero():
                bad += 1
                if not witness:
                    uname = " ".join(str(g) for g in u) if u else "1"
                    witness = f"<{uname}, relation {idx + 1}> = {value}"
    name = (f"annihilation <u, r> = 0 for {len(words)} words x "
            f"{len(rels)} relations")
    detail = "" if bad == 0 else f"{bad} non-zero pairings; first: {witness}"
    return name, bad == 0, detail


def test_span_certificate_agrees_with_exhaustive_check(sl2, sl3):
    rng = random.Random(11)
    outcomes = set()
    for (rep, space), degree, trials in ((sl2, 3, 14), (sl3, 2, 6)):
        movable = [g for g in rep.presentation.generators if g.kind != "Ki"]
        for _ in range(trials):
            gen = rng.choice(movable)
            i, j = rng.randrange(rep.dim), rng.randrange(rep.dim)
            assign = dict(rep.assign)
            entries = [list(row) for row in assign[gen].entries]
            entries[i][j] = rng.choice([ONE, Q, -ONE])
            assign[gen] = SymMatrix(entries)
            if gen.kind == "K":
                del assign[Gen("Ki", gen.index)]  # rebuilt by inversion
            try:
                mutated = Representation(rep.presentation, assign,
                                         name="perturbed")
            except ValueError:  # a K matrix made singular
                continue
            report = check_duality(mutated, space, max_degree=degree,
                                   samples=1)
            item = report.items[0]
            assert (item.name, item.passed, item.detail) == \
                _exhaustive_annihilation(mutated, space, degree), (gen, i, j)
            # annihilation holds exactly when every generator commutes
            # with the braiding on V (x) V
            preserves = check_preserves_R(mutated, space).items
            assert item.passed == all(
                p.passed for p in preserves if "degree 2" in p.name)
            outcomes.add(item.passed)
    assert outcomes == {True, False}
    # a failing sl:3 check at degree 3, so that the recount walks words of
    # length 3 and reuses prefixes of length 2
    rep, space = sl3
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("F", 1)].entries]
    entries[2][2] = -ONE
    assign[Gen("F", 1)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="perturbed")
    item = check_duality(mutated, space, max_degree=3, samples=1).items[0]
    assert not item.passed
    assert (item.name, item.passed, item.detail) == \
        _exhaustive_annihilation(mutated, space, 3)


def _diagonal_space():
    # v_i (x) v_j -> q^c_ij v_j (x) v_i satisfies the braid equation for any
    # exponents c_ij; these make a braiding that is not Hecke
    c = [[1, 0, 2], [-1, 3, 1], [2, -2, 0]]
    return BraidedSpace(SymMatrix.from_diagonal(
        [Scalar.q_power(c[j][i]) for i in range(3) for j in range(3)]))


_ORACLE_SPACES = {
    "n=1": lambda: BraidedSpace.from_braiding(SymMatrix([[Q]])),
    "sl:2": lambda: builtin_sl(2)[1],
    "sl:3": lambda: builtin_sl(3)[1],
    "sl:4": lambda: builtin_sl(4)[1],
    "adjoint sl:2": lambda: adjoint_sl2()[1],
    "classical:3": lambda: classical_space(3),
    "rescaled rtt": lambda: BraidedSpace(builtin_sl(2)[1].rtt * Q ** 2),
    "diagonal": _diagonal_space,
}


@pytest.mark.parametrize("name", list(_ORACLE_SPACES))
def test_frt_relations_match_the_twist_conjugated_construction(name):
    space = _ORACLE_SPACES[name]()
    pres = frt_relations(space)
    ref = frt_relations_reference(space)
    assert pres.rank == len(ref)
    assert pres.relations.render() == ref.render()

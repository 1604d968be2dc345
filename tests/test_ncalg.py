import math
import random

import pytest

from braidalg.ncalg import (DegreeBoundError, NCPoly, RelationSet,
                            complete_rewrite, hilbert, hilbert_oracle,
                            relations_from_image)
from braidalg.builtin import sp4_symmetric_relations
from braidalg.scalar import ONE, Q, ZERO, parse_poly, parse_scalar


def test_word_order_default_orientation():
    # decreasing degree-lexicographic: degree dominates, then x1x2 > x2x1
    p = NCPoly({(1, 1): ONE, (1, 0): Q, (0, 1): ONE, (0, 0, 0): ONE})
    assert p.render(["x1", "x2"]) == "x1 x1 x1 + x1 x2 + q*x2 x1 + x2 x2"


def test_relations_from_image_sym(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    assert len(rels) == 1
    assert rels.relations[0].coeffs == {(0, 1): ONE, (1, 0): -Q}


def test_relations_from_image_ext(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x + q^-1"))
    expect = [
        {(0, 0): ONE},
        {(0, 1): ONE, (1, 0): Q ** -1},
        {(1, 1): ONE},
    ]
    assert [r.coeffs for r in rels.relations] == expect


def test_relations_from_zero_poly(sl2):
    _, space = sl2
    assert len(relations_from_image(space, [])) == 0
    assert len(relations_from_image(space, [ZERO])) == 0


def test_relation_set_requires_quadratic_homogeneous():
    with pytest.raises(ValueError):
        RelationSet(2, [NCPoly({(0,): ONE})])
    with pytest.raises(ValueError):
        RelationSet(2, [NCPoly({(0, 1): ONE, (0,): ONE})])


def test_relation_set_refuses_names_that_do_not_read_back():
    rel = NCPoly({(0, 1): ONE, (1, 0): -Q})
    for names in (["a", "a"], ["a b", "c"], ["a", ""], ["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="distinct non-empty"):
            RelationSet(2, [rel], names=names)
        with pytest.raises(ValueError, match="distinct non-empty"):
            RelationSet.spanned_by(2, [], names=names)
    assert RelationSet(2, [rel], names=["a", "b"]).render() == ["a b = q*b a"]


def test_relation_set_refuses_out_of_range_input():
    with pytest.raises(ValueError, match=r"outside 0\.\.3: \[5\]"):
        RelationSet.spanned_by(2, [{5: ONE}])
    with pytest.raises(ValueError, match=r"outside 0\.\.3: \[-1\]"):
        RelationSet.spanned_by(2, [{0: ONE}, {-1: ONE}])
    # the vectors are checked in the given order, before the cheapest
    # (here the second) is inserted first
    with pytest.raises(ValueError, match=r"outside 0\.\.3: \[7\]"):
        RelationSet.spanned_by(2, [{0: Q - ONE, 7: ONE}, {-1: ONE}])
    with pytest.raises(ValueError, match=r"outside the alphabet: \[3\]"):
        RelationSet(2, [NCPoly({(0, 3): ONE})])
    assert RelationSet.spanned_by(2, [{0: ONE, 3: Q}]).render() == \
        ["x1 x1 = -q*x2 x2"]
    assert RelationSet(2, [NCPoly({(1, 1): ONE})]).render() == ["x2 x2 = 0"]


def test_complete_rewrite_sym_sl2_is_quadratic_confluent(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 6)
    assert rs.log.rules_added == {}
    assert rs.normal_form(NCPoly.monomial((0, 1))).coeffs == {(1, 0): Q}


def test_normal_form_kills_relations(sl2):
    _, space = sl2
    for poly in ("x - q", "x + q^-1"):
        rels = relations_from_image(space, parse_poly(poly))
        rs = complete_rewrite(rels, 4)
        for rel in rels.relations:
            assert rs.normal_form(rel).is_zero()


def test_normal_form_is_projection(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 4)
    rng = random.Random(11)
    for _ in range(40):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            coeffs[word] = Q ** rng.randint(-2, 2)
        p = NCPoly(coeffs)
        once = rs.normal_form(p)
        assert rs.normal_form(once) == once


def test_normal_form_multiplicative_on_confluent_system(sl2):
    # nf(nf(a) nf(b)) = nf(ab): exactly confluence, on random monomials
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x + q^-1"))
    rs = complete_rewrite(rels, 6)
    rng = random.Random(5)
    for _ in range(60):
        la = rng.randint(0, 3)
        lb = rng.randint(0, min(3, 6 - la))
        a = NCPoly.monomial(tuple(rng.randrange(2) for _ in range(la)))
        b = NCPoly.monomial(tuple(rng.randrange(2) for _ in range(lb)))
        assert rs.normal_form(rs.normal_form(a) * rs.normal_form(b)) == \
            rs.normal_form(a * b)


def test_normal_form_degree_bound():
    rs = complete_rewrite(RelationSet(2, []), 3)
    with pytest.raises(DegreeBoundError):
        rs.normal_form(NCPoly.monomial((0, 1, 0, 1)))
    with pytest.raises(DegreeBoundError):
        rs.irreducible_words(4)


def test_hilbert_free_algebra():
    rs = complete_rewrite(RelationSet(2, []), 3)
    assert hilbert(rs, 3) == [1, 2, 4, 8]


def test_hilbert_flatness_sym_and_ext(sl2, sl3, sl4):
    for rep, space in (sl2, sl3, sl4):
        n = space.dim
        rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 5)
        assert hilbert(rs, 5) == [math.comb(n + d - 1, d) for d in range(6)]
        rsl = complete_rewrite(relations_from_image(space, parse_poly("x + q^-1")), 5)
        dims = hilbert(rsl, 5)
        assert dims == [math.comb(n, d) for d in range(6)]
        assert sum(dims[:n + 1]) == 2 ** n


def test_hilbert_oracle_matches_word_count(sl2, sl3):
    for rep, space in (sl2, sl3):
        for poly in ("x - q", "x + q^-1"):
            rels = relations_from_image(space, parse_poly(poly))
            rs = complete_rewrite(rels, 4)
            assert hilbert(rs, 4) == hilbert_oracle(rels, 4)


def test_hilbert_beyond_bound_falls_back_to_oracle(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 2)
    assert not rs.certified(3)
    assert hilbert(rs, 4) == [1, 2, 3, 4, 5]


def test_sp4_completion_and_dimensions():
    rels = sp4_symmetric_relations()
    assert len(rels) == 6
    rs = complete_rewrite(rels, 5)
    assert hilbert(rs, 4) == [1, 4, 10, 20, 35]
    assert hilbert_oracle(rels, 3) == [1, 4, 10, 20]
    # the printed exchange relation holds in the quotient
    lhs = rs.normal_form(NCPoly.monomial((1, 2)))
    rhs = rs.normal_form(
        NCPoly.monomial((2, 1), Q ** 2) +
        NCPoly.monomial((0, 3), Q - Q ** -1))
    assert lhs == rhs


def test_sp4_rendering_matches_printed_relations():
    rendered = sp4_symmetric_relations().render()
    assert "x1 x2 = q*x2 x1" in rendered
    assert "x1 x4 = q^2*x4 x1" in rendered


def test_render_and_names():
    rels = sp4_symmetric_relations()
    assert rels.names == ["x1", "x2", "x3", "x4"]
    p = NCPoly({(0, 1): parse_scalar("q - q^-1"), (): -ONE})
    assert p.render(rels.names) == "(q - q^-1)*x1 x2 - 1"


def test_completion_adds_rules_when_needed():
    # y x = x y + x^2 oriented with leading word x1x1: the quadratic rule is
    # not confluent and completion must add one rule per degree
    rel = NCPoly({(1, 0): ONE, (0, 1): -ONE, (0, 0): -ONE})
    rs = complete_rewrite(RelationSet(2, [rel]), 6)
    assert rs.log.rules_added == {3: 1, 4: 1, 5: 1, 6: 1}
    assert hilbert(rs, 5) == [1, 2, 3, 4, 5, 6][:6]
    assert hilbert_oracle(rs.relations, 5) == hilbert(rs, 5)
    rng = random.Random(1)
    for _ in range(60):
        a = NCPoly.monomial(tuple(rng.randrange(2)
                                  for _ in range(rng.randint(0, 3))))
        b = NCPoly.monomial(tuple(rng.randrange(2)
                                  for _ in range(rng.randint(0, 3))))
        assert rs.normal_form(rs.normal_form(a) * rs.normal_form(b)) == \
            rs.normal_form(a * b)


def test_trivial_quotient_detection(sl2):
    _, space = sl2
    rels = relations_from_image(space, parse_poly("x - q^5"))
    assert len(rels) == 4  # f(braiding) invertible: all of degree 2
    rs = complete_rewrite(rels, 3)
    assert hilbert(rs, 3) == [1, 2, 0, 0]


def test_render_keeps_signs_of_multi_term_coefficients():
    texts = ["-q + q^-1", "q - q^-1", "-q", "-1", "2", "q^2 + 1",
             "-1/(q + 1)", "(q + 2)/(q + 1)"]
    for c in map(parse_scalar, texts):
        for d in map(parse_scalar, texts):
            rendered = NCPoly({(0,): c, (): d}).render(["x"])
            assert parse_poly(rendered) == [d, c], rendered
    rels = sp4_symmetric_relations()
    residual = NCPoly({(1, 0): -Q ** 2 + Q})
    assert residual.render(rels.names) == "(-q^2 + q)*x2 x1"


def test_hilbert_beyond_bound_calls_the_oracle_once(sl3, monkeypatch):
    from braidalg import ncalg
    _, space = sl3
    rs = complete_rewrite(relations_from_image(space, parse_poly("x + q^-1")), 2)
    calls = []

    def counted(relations, max_degree):
        calls.append(max_degree)
        return hilbert_oracle(relations, max_degree)

    monkeypatch.setattr(ncalg, "hilbert_oracle", counted)
    assert hilbert(rs, 6) == [1, 3, 3, 1, 0, 0, 0]
    assert calls == [6]

"""Free nilpotent group arithmetic against the Magnus series oracle."""

import math
import random

import pytest

from nilstab.group import (
    MAX_INPUT_DIGITS,
    GroupElement,
    NotAGroupElement,
    _basic_powers,
    _basic_series,
    _peel,
    center_test,
    comm,
    element_from_json,
    element_to_json,
    element_to_text,
    h1_rank,
    h2_rank,
    inv,
    lcs_degree,
    leading_lie_part,
    magnus_embed,
    magnus_peel,
    mul,
    parse_element,
    read_int,
    truncate,
)
from nilstab.lie import LieElement
from nilstab.series import (
    TruncatedSeries,
    add_scaled,
    left_mul_by,
    left_mul_on,
    poly_group_commutator,
    poly_mul,
    poly_substitute,
    poly_unit_inverse,
    poly_unit_pow,
    unit_commutator,
    unit_mul,
)
from nilstab.verify import random_group_element
from nilstab.words import (
    LyndonBasisElement,
    graded_basis,
    is_lyndon,
    lyndon_factor_positions,
    standard_factorization,
    witt_rank,
)


def gens(r, c):
    return [GroupElement.generator(r, c, i) for i in range(1, r + 1)]


def heisenberg(x, y, z):
    """Element a^x b^y [ab]^z of the rank-2 class-2 group."""
    return GroupElement.from_exponents(
        2, 2, {(1,): x, (2,): y, (1, 2): z}
    )


def test_embed_identity_and_generator():
    e = GroupElement.identity(2, 2)
    assert magnus_embed(e).coefficients == {(): 1}
    a, _ = gens(2, 2)
    assert magnus_embed(a).coefficients == {(): 1, (1,): 1}


def test_embed_commutator_degree_two():
    a, b = gens(2, 2)
    assert magnus_embed(comm(a, b)).coefficients == {(): 1, (1, 2): 1, (2, 1): -1}


def test_peel_identity_and_commutator():
    assert magnus_peel(TruncatedSeries.one(2, 2)).is_identity()
    s = TruncatedSeries(2, 2, {(): 1, (1, 2): 1, (2, 1): -1})
    g = magnus_peel(s)
    assert g.exponents == {LyndonBasisElement((1, 2)): 1}


def test_peel_rejects_non_group_series():
    with pytest.raises(NotAGroupElement):
        magnus_peel(TruncatedSeries(2, 2, {(): 1, (1, 2): 1}))
    with pytest.raises(NotAGroupElement):
        magnus_peel(TruncatedSeries(2, 2, {(): 2}))


def test_heisenberg_products():
    assert mul(heisenberg(1, 0, 0), heisenberg(0, 1, 0)) == heisenberg(1, 1, 0)
    assert mul(heisenberg(0, 1, 0), heisenberg(1, 0, 0)) == heisenberg(1, 1, -1)
    g = heisenberg(3, -2, 5)
    assert mul(g, GroupElement.identity(2, 2)) == g


def test_round_trip_random():
    rng = random.Random(21)
    for r, c in [(2, 2), (2, 4), (3, 3), (4, 2)]:
        for _ in range(10):
            g = random_group_element(rng, r, c)
            fresh = GroupElement.from_exponents(r, c, g.exponents)
            assert magnus_peel(magnus_embed(fresh)) == g


def test_group_axioms_random_with_oracle():
    rng = random.Random(22)
    for r, c in [(2, 3), (3, 2), (3, 4)]:
        identity = GroupElement.identity(r, c)
        for _ in range(10):
            g = random_group_element(rng, r, c)
            h = random_group_element(rng, r, c)
            k = random_group_element(rng, r, c)
            assert mul(mul(g, h), k) == mul(g, mul(h, k))
            assert mul(g, identity) == g
            assert mul(inv(g), g) == identity
            # independent series recomputation of the product
            lhs = magnus_embed(
                GroupElement.from_exponents(r, c, mul(g, h).exponents)
            ).coefficients
            rhs = poly_mul(
                magnus_embed(GroupElement.from_exponents(r, c, g.exponents)).coefficients,
                magnus_embed(GroupElement.from_exponents(r, c, h.exponents)).coefficients,
                c,
            )
            assert lhs == rhs


def test_inverse_examples():
    a, _ = gens(2, 2)
    assert inv(GroupElement.identity(2, 2)).is_identity()
    assert inv(a).exponents == {LyndonBasisElement((1,)): -1}
    rng = random.Random(23)
    for _ in range(5):
        g = random_group_element(rng, 3, 3)
        assert mul(g, inv(g)).is_identity()


def test_commutator_examples():
    a, b = gens(2, 2)
    assert comm(a, a).is_identity()
    assert comm(a, b).exponents == {LyndonBasisElement((1, 2)): 1}
    central = comm(a, b)
    assert comm(central, mul(a, b)).is_identity()


def test_truncate():
    a, b = gens(2, 2)
    g = heisenberg(2, 3, -1)
    assert truncate(g, 2) == g
    dropped = truncate(comm(a, b), 1)
    assert dropped.is_identity() and dropped.class_bound == 1
    rng = random.Random(24)
    for _ in range(10):
        g = random_group_element(rng, 3, 4)
        h = random_group_element(rng, 3, 4)
        for cp in (1, 2, 3):
            assert truncate(mul(g, h), cp) == mul(truncate(g, cp), truncate(h, cp))
    with pytest.raises(ValueError):
        truncate(g, 5)


def _random_poly(rng, r, max_deg, terms, min_deg=0):
    poly = {}
    for _ in range(terms):
        word = tuple(rng.randint(1, r) for _ in range(rng.randint(min_deg, max_deg)))
        poly[word] = poly.get(word, 0) + rng.randint(-3, 3)
    return {w: c for w, c in poly.items() if c}


def test_poly_substitute_matches_word_by_word_products():
    rng = random.Random(61)
    for _ in range(40):
        r, c = rng.choice(((2, 3), (3, 4), (2, 5)))
        poly = _random_poly(rng, r, c, 8)
        images = [_random_poly(rng, r, c, 3) for _ in range(r)]
        expected: dict = {}
        for word, coeff in poly.items():
            product = {(): 1}
            for x in word:
                product = poly_mul(product, images[x - 1], c)
            add_scaled(expected, coeff, product)
        assert poly_substitute([poly], images, c) == [expected]
    letters = [{(i,): 1} for i in (1, 2)]
    assert poly_substitute([{(1, 2): 5, (2,): -1}], letters, 1) == [{(2,): -1}]


def test_poly_substitute_of_several_matches_each_alone():
    # one suffix table serves every polynomial; sharing it changes no image
    rng = random.Random(62)
    for _ in range(40):
        r, c = rng.choice(((2, 3), (3, 4), (2, 5)))
        polys = [_random_poly(rng, r, c, 8) for _ in range(rng.randint(1, 5))]
        polys += [{}, polys[0]]
        images = [_random_poly(rng, r, c, 3) for _ in range(r)]
        alone = [poly_substitute([poly], images, c)[0] for poly in polys]
        assert poly_substitute(polys, images, c) == alone
    assert poly_substitute([], [{(1,): 1}], 3) == []


def test_poly_substitute_on_a_support_is_the_full_substitution_there(on_p):
    # letter images may be empty or a single term; the support is P(r, c), and
    # the letters go in and the images come out by position there
    rng = random.Random(64)
    for _ in range(60):
        r, c = rng.choice(((1, 4), (2, 3), (3, 4), (2, 5), (2, 6), (3, 6)))
        polys = [_random_poly(rng, r, c, 8) for _ in range(rng.randint(1, 3))] + [{}]
        images = [_random_poly(rng, r, c, rng.choice((0, 1, 1, 3, 8)), min_deg=1) for _ in range(r)]
        full = poly_substitute(polys, images, c)
        letters = [on_p(image, r, c) for image in images]
        assert poly_substitute(polys, letters, c, lyndon_factor_positions(r, c)) == [
            on_p(image, r, c) for image in full
        ]


def test_poly_unit_pow_matches_repeated_products():
    # random unit series, mostly not group-like, against plain products
    rng = random.Random(63)
    big = 10**12
    for _ in range(12):
        r, c = rng.randint(1, 3), rng.randint(1, 5)
        a = {**_random_poly(rng, r, c, 6), (): 1}
        product = {(): 1}
        for e in range(6):
            assert poly_unit_pow(a, e, c) == product
            product = poly_mul(product, a, c)
            pos, neg = poly_unit_pow(a, e, c), poly_unit_pow(a, -e, c)
            assert poly_mul(pos, neg, c) == {(): 1} == poly_mul(neg, pos, c)
        for _ in range(3):
            e1 = rng.choice((big, -big)) + rng.randint(-3, 3)
            e2 = rng.choice((big, -big)) + rng.randint(-3, 3)
            both = poly_mul(poly_unit_pow(a, e1, c), poly_unit_pow(a, e2, c), c)
            assert poly_unit_pow(a, e1 + e2, c) == both
        inverse = poly_unit_inverse(a, c)
        assert poly_mul(inverse, a, c) == {(): 1} == poly_mul(a, inverse, c)
    with pytest.raises(ValueError, match="constant term 1"):
        poly_unit_pow({(): 2, (1,): 1}, 3, 4)


def test_unit_mul_matches_the_pair_loop():
    # the fast unit products skip terms that cannot pair; the oracle multiplies all
    rng = random.Random(64)
    for _ in range(300):
        r, c = rng.randint(1, 3), rng.randint(1, 6)
        # least degrees 1..c; an empty or one-term nonconstant part now and then
        a, b = (
            {**_random_poly(rng, r, c, rng.choice((0, 1, 2, 5, 12)), rng.randint(1, c)), (): 1}
            for _ in range(2)
        )
        assert unit_mul(a, b, c) == poly_mul(a, b, c)
        assert unit_mul(b, a, c) == poly_mul(b, a, c)
    assert unit_mul({(): 1}, {(): 1}, 3) == {(): 1}
    assert unit_mul({(): 1, (1,): 1}, {(): 1, (1,): -1}, 2) == {(): 1, (1, 1): -1}
    t = {(): 1, (1,): 2}
    add_scaled(t, 0, {(2,): 5})
    add_scaled(t, -2, {(1,): 1, (2,): 1})
    assert t == {(): 1, (2,): -2}


def test_unit_commutator_matches_the_oracle_commutator():
    # random unit series, mostly not group-like; least degrees 1..c, and an
    # empty or one-term nonconstant part now and then
    rng = random.Random(67)
    for _ in range(300):
        r, c = rng.randint(1, 3), rng.randint(1, 6)
        a, b = (
            {**_random_poly(rng, r, c, rng.choice((0, 1, 2, 5, 12)), rng.randint(1, c)), (): 1}
            for _ in range(2)
        )
        assert unit_commutator(a, b, c) == poly_group_commutator(a, b, c)
    assert unit_commutator({(): 1, (1,): 1}, {(): 1, (1,): 1}, 4) == {(): 1}


@pytest.mark.parametrize("r, c", [(2, 5), (3, 4), (3, 6), (4, 4), (2, 8), (4, 5)])
def test_basic_series_matches_the_oracle_recursion(r, c):
    # B_w = [B_u, B_v] for the standard factorization, each through the oracle
    oracle: dict = {}

    def basic(word):
        if word not in oracle:
            if len(word) == 1:
                oracle[word] = {(): 1, word: 1}
            else:
                u, v = standard_factorization(word)
                oracle[word] = poly_group_commutator(basic(u), basic(v), c)
        return oracle[word]

    for b in graded_basis(r, c):
        assert _basic_series(r, c, b.word) == basic(b.word)


@pytest.mark.parametrize("r, c", [(2, 5), (3, 4), (3, 6), (4, 4), (2, 8), (4, 5)])
def test_basic_powers_match_full_series_powers_on_p(r, c, on_p):
    # the powers of N = B - 1, one left product on P each, against full-series
    # products of N cut to P
    for b in graded_basis(r, c):
        n = {w: x for w, x in _basic_series(r, c, b.word).items() if w}
        power, expected = n, []
        for _ in range(c // b.degree):
            expected.append(on_p(power, r, c))
            power = poly_mul(power, n, c)
        assert not power
        assert _basic_powers(r, c, b.word) == tuple(expected)


@pytest.mark.parametrize("r, c", [(1, 4), (2, 3), (3, 4), (2, 5), (3, 6), (4, 4)])
def test_left_mul_by_matches_left_mul_on(r, c, on_p):
    # p, cut to P, may have a constant term; t is exact on P, and out starts
    # nonempty
    rng = random.Random(f"left-mul/{r}/{c}")
    table = lyndon_factor_positions(r, c)
    support = range(len(table.words))
    for _ in range(20):
        p = _random_poly(rng, r, c, rng.choice((0, 1, 3, 10, 30)))
        if rng.random() < 0.5:
            p[()] = rng.choice((1, -2, 10**12))
        p = on_p(p, r, c)
        t = {w: rng.randint(-3, 3) or 1 for w in rng.sample(support, rng.randint(0, len(support)))}
        out = {w: rng.randint(1, 3) for w in rng.sample(support, min(3, len(support)))}
        assert left_mul_by(p, t, table.prefix_splits, dict(out)) == left_mul_on(
            p, t, table.splits, dict(out)
        )


def _oracle_comm(g, h):
    r, c = g.rank, g.class_bound
    series = poly_group_commutator(
        magnus_embed(GroupElement.from_exponents(r, c, g.exponents)).coefficients,
        magnus_embed(GroupElement.from_exponents(r, c, h.exponents)).coefficients,
        c,
    )
    return magnus_peel(TruncatedSeries(r, c, series))


@pytest.mark.parametrize("r, c", [(2, 5), (3, 4), (3, 6), (4, 4)])
def test_comm_matches_the_series_commutator(r, c):
    # generators, low-degree products, random elements, g = h, the identity,
    # and top-degree elements of support 1 (central, so the difference is empty)
    rng = random.Random(f"comm/{r}/{c}")
    top = [b for b in graded_basis(r, c) if b.degree == c]
    pool = [GroupElement.identity(r, c), *gens(r, c)]
    pool += [GroupElement(r, c, {rng.choice(top): rng.choice((-2, 1, 3))}) for _ in range(2)]
    pool += [mul(rng.choice(pool[1:]), random_group_element(rng, r, c)) for _ in range(3)]
    pool += [random_group_element(rng, r, c, support=4) for _ in range(2)]
    for g in pool:
        for h in rng.sample(pool, 5) + [g]:
            assert comm(g, h) == _oracle_comm(g, h)


def test_comm_does_not_use_the_oracle_commutator(monkeypatch):
    # comm must not lean on the oracle it is checked by, even while it builds
    # the basic series afresh
    r, c = 3, 5
    rng = random.Random(65)
    pairs = [
        (random_group_element(rng, r, c, support=5), random_group_element(rng, r, c))
        for _ in range(6)
    ]
    pairs += [(a, b) for a in gens(r, c) for b in gens(r, c)]
    expected = [_oracle_comm(g, h) for g, h in pairs]

    def refuse(*args):
        raise AssertionError("an oracle series function was called")

    monkeypatch.setattr("nilstab.series.poly_group_commutator", refuse)
    monkeypatch.setattr("nilstab.series.poly_unit_inverse", refuse)
    for cache in (_basic_series, _basic_powers):
        cache.cache_clear()
    for (g, h), want in zip(pairs, expected):
        fresh = [GroupElement.from_exponents(r, c, x.exponents) for x in (g, h)]
        assert comm(*fresh) == want


def _oracle_op(kind, g, h=None):
    """mul, inv or comm through full series of fresh embeddings and the full peel."""
    r, c = g.rank, g.class_bound
    a, b = (_fresh_embed(x) for x in (g, h or g))
    if kind == "mul":
        series = poly_mul(a, b, c)
    elif kind == "inv":
        series = poly_unit_inverse(a, c)
    else:
        series = poly_group_commutator(a, b, c)
    return magnus_peel(TruncatedSeries(r, c, series))


def _fresh_embed(g):
    return magnus_embed(GroupElement.from_exponents(g.rank, g.class_bound, g.exponents)).coefficients


@pytest.mark.parametrize("r, c", [(2, 5), (4, 4), (3, 6)])
def test_group_operations_build_no_full_series(r, c, monkeypatch):
    # mul, inv and comm multiply basic powers on P(r, c) and peel there: once the
    # basic caches are warm they neither embed an operand nor take a full unit product
    rng = random.Random(f"on-support/{r}/{c}")
    tail = [b for b in graded_basis(r, c) if 2 * b.degree > c]
    one = GroupElement.identity(r, c)
    a, b = gens(r, c)[:2]
    # a tail run whose exponents sum to 0, and a tail element with its inverse
    tail_zero = GroupElement(r, c, {tail[0]: 5, tail[-1]: -2, tail[len(tail) // 2]: -3})
    tail_only = GroupElement(r, c, {x: rng.choice((-2, -1, 1, 2)) for x in rng.sample(tail, 4)})
    tail_inverse = GroupElement(r, c, {x: -e for x, e in tail_only.exponents.items()})
    dense = random_group_element(rng, r, c, support=10).exponents
    big = GroupElement(r, c, {x: e * rng.choice((10**12, -(10**12))) for x, e in dense.items()})
    x, y = (random_group_element(rng, r, c) for _ in range(2))
    operands = [one, *gens(r, c), tail_zero, tail_only, tail_inverse, big, x, y]
    pairs = [
        (one, one), (one, big), (big, one), (a, b), (b, a), (a, a),
        (tail_zero, tail_only), (tail_only, tail_inverse), (tail_zero, a), (b, tail_zero),
        (tail_only, big), (big, tail_zero), (big, big), (x, y), (y, big), (x, tail_only),
    ]
    expected = {
        "mul": [_oracle_op("mul", g, h) for g, h in pairs],
        "comm": [_oracle_op("comm", g, h) for g, h in pairs],
        "inv": [_oracle_op("inv", g) for g in operands],
    }

    def refuse(*args):
        raise AssertionError("full series built")

    monkeypatch.setattr("nilstab.group.magnus_embed", refuse)
    monkeypatch.setattr("nilstab.group.unit_mul", refuse)
    assert [mul(g, h) for g, h in pairs] == expected["mul"]
    assert [comm(g, h) for g, h in pairs] == expected["comm"]
    assert [inv(g) for g in operands] == expected["inv"]
    assert mul(tail_only, tail_inverse).is_identity() and comm(tail_zero, tail_only).is_identity()


def test_lcs_degree():
    a, b = gens(2, 3)
    assert lcs_degree(a) == 1
    assert lcs_degree(comm(a, b)) == 2
    assert lcs_degree(comm(a, comm(a, b))) == 3
    assert lcs_degree(GroupElement.identity(2, 3)) == math.inf
    lead = leading_lie_part(comm(a, b))
    assert lead == LieElement(2, 3, {LyndonBasisElement((1, 2)): 1})


def test_center():
    a, b = gens(2, 2)
    assert center_test(GroupElement.identity(2, 2))
    assert center_test(comm(a, b))
    assert not center_test(a)


def test_center_is_top_degree_slice():
    # exhaustive over basis elements at desk scale (rank >= 2)
    for r, c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for b in graded_basis(r, c):
            g = GroupElement(r, c, {b: 1})
            assert center_test(g) == (b.degree == c)
            assert truncate(g, c - 1).is_identity() == (b.degree == c)


def test_nilpotency_class_is_exact():
    for r, c in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        a = GroupElement.generator(r, c, 1)
        b = GroupElement.generator(r, c, 2)
        deep = a
        for _ in range(c - 1):
            deep = comm(deep, b)
        assert not deep.is_identity()
        assert comm(deep, a).is_identity()
        assert comm(deep, b).is_identity()


def test_homology_ranks():
    assert h1_rank(3, 4) == 3
    assert h2_rank(2, 2) == 2
    assert h2_rank(2, 1) == 1
    for r in range(1, 5):
        for c in range(1, 5):
            assert h1_rank(r, c) == r
            assert h2_rank(r, c) == witt_rank(r, c + 1)


def test_abelianization_kernel_is_commutator_related():
    # the class-1 quotient forgets exactly the higher-degree support
    rng = random.Random(25)
    for _ in range(10):
        g = random_group_element(rng, 3, 3)
        image = truncate(g, 1)
        assert image.exponents == {
            b: e for b, e in g.exponents.items() if b.degree == 1
        }


def test_mismatch_rejected():
    g = GroupElement.generator(2, 2, 1)
    h = GroupElement.generator(2, 3, 1)
    with pytest.raises(ValueError):
        mul(g, h)


def test_text_codec():
    assert element_to_text(GroupElement.identity(2, 2)) == "1"
    g = heisenberg(1, 1, -1)
    assert element_to_text(g) == "a * b * [ab]^-1"
    assert parse_element("a*b*[ab]^-1", 2, 2) == g
    assert parse_element("  a * b\t* [ab]^-1 ", 2, 2) == g
    assert parse_element("1", 2, 2).is_identity()
    rng = random.Random(26)
    for r, c in [(2, 2), (3, 3), (4, 4)]:
        for _ in range(10):
            g = random_group_element(rng, r, c)
            assert parse_element(element_to_text(g), r, c) == g


@pytest.mark.parametrize("r, c", [(2, 2), (3, 4), (3, 6), (4, 4)])
def test_parse_element_is_the_product_of_its_factors(r, c):
    # shuffled factors, repeats and zero exponents: the parse is the left-to-right
    # product of the factors, each parsed alone
    rng = random.Random(f"parse-product/{r}/{c}")
    cases = [["b", "a"]] if (r, c) == (2, 2) else []
    for _ in range(6):
        factors = element_to_text(random_group_element(rng, r, c, support=6)).split(" * ")
        factors += rng.sample(factors, min(2, len(factors)))
        factors.append(f"{rng.choice(factors).partition('^')[0]}^0")
        rng.shuffle(factors)
        cases.append(factors)
    for factors in cases:
        product = GroupElement.identity(r, c)
        for factor in factors:
            product = mul(product, parse_element(factor, r, c))
        assert parse_element(" * ".join(factors), r, c) == product
    assert parse_element("b * a", 2, 2) == heisenberg(1, 1, -1)


def test_embedded_element_equals_and_hashes_like_a_fresh_copy():
    # equality and hash are over (rank, class, exponents); the cached series is not compared
    g = random_group_element(random.Random(76), 3, 3)
    magnus_embed(g)
    fresh = GroupElement.from_exponents(3, 3, g.exponents)
    assert g._series and not fresh._series
    assert g == fresh and hash(g) == hash(fresh)
    assert len({g, fresh}) == 1
    assert g != GroupElement.identity(3, 3) and g != g.exponents


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_element("a * * b", 2, 2)
    with pytest.raises(ValueError):
        parse_element("c", 2, 2)  # letter beyond the rank
    with pytest.raises(ValueError):
        parse_element("[ba]", 2, 2)  # not a Lyndon word
    with pytest.raises(ValueError):
        parse_element("a^x", 2, 2)
    with pytest.raises(ValueError):
        parse_element("[abab]", 2, 3)  # longer than the class bound


def test_peel_is_sound_on_arbitrary_series():
    # peel either rejects a series or returns the exact collected preimage; at
    # (2,5) and (3,4) the linear step t - e(B - 1) covers degrees 3..5 and 3..4
    rng = random.Random(28)
    from itertools import product

    for r, c in [(2, 3), (2, 5), (3, 4)]:
        words = [w for n in range(1, c + 1) for w in product(range(1, r + 1), repeat=n)]
        accepted = 0
        for trial in range(200):
            if trial % 2:
                coeffs = {(): 1}
            else:  # a group element's series, perturbed in up to two words
                coeffs = dict(magnus_embed(random_group_element(rng, r, c)).coefficients)
            perturbed = rng.sample(words, rng.randint(trial % 2, 2 + 3 * (trial % 2)))
            for w in perturbed:
                coeffs[w] = coeffs.get(w, 0) + rng.randint(-2, 2)
            coeffs = {w: x for w, x in coeffs.items() if x}
            series = TruncatedSeries(r, c, coeffs)
            try:
                g = magnus_peel(series)
            except NotAGroupElement:
                assert perturbed  # an unperturbed image is always accepted
                continue
            accepted += 1
            fresh = GroupElement.from_exponents(r, c, g.exponents)
            assert magnus_embed(fresh).coefficients == coeffs
        assert accepted  # some random series do land in the image


@pytest.mark.parametrize("r, c", [(3, 1), (2, 3), (3, 4), (4, 4), (2, 5), (3, 5), (2, 6), (2, 7)])
def test_peel_on_support_matches_the_full_peel(r, c, on_p):
    # the series of dense elements, read on P(r, c) only, give the same exponents
    rng = random.Random(f"support-peel/{r}/{c}")
    for _ in range(8):
        g = mul(random_group_element(rng, r, c), random_group_element(rng, r, c, support=12))
        full = magnus_embed(GroupElement.from_exponents(r, c, g.exponents)).coefficients
        on_support = on_p(full, r, c)
        peeled = magnus_peel(TruncatedSeries(r, c, full))
        assert _peel(r, c, on_support) == peeled.exponents == g.exponents


def test_peel_on_support_rejects_a_perturbed_non_lyndon_word(on_p):
    # the Lyndon coefficients still give exponents, but the residual on P is not 1
    rng = random.Random(66)
    for r, c in [(2, 4), (3, 4), (2, 6), (4, 3)]:
        words, position = lyndon_factor_positions(r, c)[:2]
        non_lyndon = [w for w in words if w and not is_lyndon(w)]
        assert non_lyndon
        for _ in range(20):
            series = on_p(magnus_embed(random_group_element(rng, r, c)).coefficients, r, c)
            word = position[rng.choice(non_lyndon)]
            series[word] = series.get(word, 0) + rng.choice((-2, -1, 1, 2))
            series = {w: x for w, x in series.items() if x}
            with pytest.raises(NotAGroupElement):
                _peel(r, c, series)


@pytest.mark.parametrize("r, c", [(1, 1), (2, 3), (3, 4)])
def test_peel_refuses_a_series_keyed_by_word(r, c, on_p):
    # the peel reads P by position; a word-keyed series has no constant term
    # there, so a missed conversion fails loudly instead of peeling to junk
    rng = random.Random(f"word-keyed/{r}/{c}")
    for g in (GroupElement.identity(r, c), *gens(r, c), random_group_element(rng, r, c)):
        series = magnus_embed(g).coefficients
        assert _peel(r, c, on_p(series, r, c)) == g.exponents
        with pytest.raises(NotAGroupElement, match="constant term"):
            _peel(r, c, series)


@pytest.mark.parametrize("r, c", [(4, 1), (3, 2), (3, 3), (3, 4), (2, 5), (3, 5), (2, 6), (2, 7)])
def test_embed_is_the_ordered_product_of_basic_powers(r, c):
    # the factors of degree > c/2 enter the embed as a linear tail and leave the
    # peel by subtraction; the oracle multiplies out every factor's full power
    rng = random.Random(f"tail/{r}/{c}")
    for _ in range(6):
        g = random_group_element(rng, r, c, support=12)
        exps = {b: e * rng.choice([1, 7, -10**9]) for b, e in g.exponents.items()}
        product = {(): 1}
        for b in sorted(exps, key=LyndonBasisElement.sort_key):
            product = poly_mul(product, poly_unit_pow(_basic_series(r, c, b.word), exps[b], c), c)
        assert magnus_embed(GroupElement(r, c, exps)).coefficients == product
        assert magnus_peel(TruncatedSeries(r, c, product)).exponents == exps


def test_truncated_series_refusals():
    with pytest.raises(ValueError, match="zero coefficient"):
        TruncatedSeries(2, 3, {(): 1, (1,): 0})
    with pytest.raises(ValueError, match="beyond class bound"):
        TruncatedSeries(2, 3, {(): 1, (1, 2, 2, 2): 1})
    for letter in (0, 3):
        with pytest.raises(ValueError, match="letter out of range"):
            TruncatedSeries(2, 3, {(): 1, (1, letter): 1})
    assert TruncatedSeries(2, 3, {(): 1, (1, 2, 2): -1}).coefficients == {(): 1, (1, 2, 2): -1}


@pytest.mark.parametrize(
    "value, word, message",
    [
        (1.0, (1, 2), "{what}s must be integers"),
        (True, (1, 2), "{what}s must be integers"),
        (0, (1, 2), "zero {what} stored"),
        (1, (1, 2, 2, 2), "degree beyond class bound"),
        (1, (1, 3), "letter out of range"),
        (1, (0, 1), "letter out of range"),
    ],
)
def test_every_term_container_refuses_a_fault_alike(value, word, message):
    # one validator, words.check_terms, with the value named by the container
    makers = [
        ("exponent", lambda: GroupElement(2, 3, {LyndonBasisElement(word): value})),
        ("coefficient", lambda: LieElement(2, 3, {LyndonBasisElement(word): value})),
        ("coefficient", lambda: TruncatedSeries(2, 3, {(): 1, word: value})),
    ]
    for what, make in makers:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message.format(what=what)


def test_generator_index_is_a_letter_in_range():
    for i in (0, 3):
        for make in (GroupElement.generator, LieElement.generator):
            with pytest.raises(ValueError, match="letter out of range"):
                make(2, 2, i)


def test_read_int_takes_a_sign_and_ascii_digits():
    assert [read_int(t) for t in ("7", " -12 ", "+3", "007", "-0", "\t5\n")] == [7, -12, 3, 7, 0, 5]
    for text in ("", " ", "+", "-", "1_0", "1 0", "- 1", "++1", "0x10", "1.0", "1e3"):
        assert read_int(text) is None, text
    for text in ("٣", "３", "²", "1٣"):  # non-ASCII digits
        assert read_int(text) is None, text
    assert read_int("9" * MAX_INPUT_DIGITS) == 10**MAX_INPUT_DIGITS - 1
    with pytest.raises(ValueError, match=f"more than {MAX_INPUT_DIGITS} digits"):
        read_int("-" + "9" * (MAX_INPUT_DIGITS + 1))


def test_group_element_letters_must_be_in_range():
    for word in [(0, 1), (-1,), (1, 3)]:
        with pytest.raises(ValueError, match="letter out of range"):
            GroupElement.from_exponents(2, 2, {word: 1})


def test_group_element_exponents_must_be_ints():
    for e in (1.5, 2.0, True, False, 0.0):
        with pytest.raises(ValueError, match="must be integers"):
            GroupElement.from_exponents(2, 3, {(1,): e, (2,): 1})
    assert GroupElement.from_exponents(2, 3, {(1,): 0, (2,): 1}) == GroupElement.generator(2, 3, 2)


def test_json_codec():
    rng = random.Random(27)
    for _ in range(10):
        g = random_group_element(rng, 3, 3)
        assert element_from_json(element_to_json(g)) == g
    obj = element_to_json(heisenberg(2, 0, -3))
    assert obj == {"rank": 2, "class": 2, "exponents": [["a", 2], ["ab", -3]]}


@pytest.mark.parametrize(
    "rank, klass, word, message",
    [
        (1, 1, "A", "bad word 'A'"),
        (1, 1, "b", "letter out of range for rank 1 in 'b'"),
        (2, 1, "ab", "word 'ab' is longer than the class bound"),
        (2, 2, "ba", "'ba' is not a Lyndon word"),
    ],
)
def test_json_words_are_read_like_element_text(rank, klass, word, message):
    obj = {"rank": rank, "class": klass, "exponents": [[word, 1]]}
    with pytest.raises(ValueError) as err:
        element_from_json(obj)
    assert str(err.value) == message

"""Free Lie ring: bracket rewriting checked against the associative envelope."""

import random

import pytest

from nilstab.intlinalg import identity, matmul
from nilstab.lie import (
    LieElement,
    LieSpanError,
    envelope_polynomial,
    lie_apply_matrix,
    lie_bracket,
    lyndon_coordinates,
)
from nilstab.series import add_scaled, poly_mul, poly_sub
from nilstab.verify import random_lie_element, random_unimodular
from nilstab.words import (
    LyndonBasisElement,
    is_lyndon,
    lyndon_basis,
    lyndon_words,
)

BIG = 10**9


def ring_commutator(a, b):
    return poly_sub(poly_mul(a, b, BIG), poly_mul(b, a, BIG))


def test_envelope_hand_values():
    assert envelope_polynomial((1, 2)) == {(1, 2): 1, (2, 1): -1}
    assert envelope_polynomial((1, 1, 2)) == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}
    assert envelope_polynomial((1, 2, 2)) == {(1, 2, 2): 1, (2, 1, 2): -2, (2, 2, 1): 1}


def test_bracket_of_letters():
    a = LieElement.generator(2, 2, 1)
    b = LieElement.generator(2, 2, 2)
    ab = lie_bracket(a, b)
    assert ab.coordinates(lyndon_basis(2, 2)) == (1,)


def test_bracket_is_alternating():
    x = LieElement.generator(2, 2, 1)
    assert lie_bracket(x, x).is_zero()


def test_bracket_example_with_sign():
    # [ab, a] rewrites to -aab under the (u, v) bracket convention
    a = LieElement.generator(2, 3, 1)
    b = LieElement.generator(2, 3, 2)
    ab = lie_bracket(a, b)
    result = lie_bracket(ab, a)
    (aab, abb) = lyndon_basis(2, 3)
    assert aab.word == (1, 1, 2)
    assert result.terms == {aab: -1}
    assert lie_bracket(b, ab).terms == {abb: -1}


def test_antisymmetry_random():
    rng = random.Random(11)
    for _ in range(30):
        x = random_lie_element(rng, 3, 4)
        y = random_lie_element(rng, 3, 4)
        assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero()


def test_jacobi_random():
    rng = random.Random(12)
    for _ in range(20):
        x = random_lie_element(rng, 2, 5, support=4)
        y = random_lie_element(rng, 2, 5, support=4)
        z = random_lie_element(rng, 2, 5, support=4)
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()


def test_grading():
    rng = random.Random(13)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        x = LieElement(3, 4, {rng.choice(lyndon_basis(3, m)): rng.randint(1, 3)})
        y = LieElement(3, 4, {rng.choice(lyndon_basis(3, n)): rng.randint(1, 3)})
        b = lie_bracket(x, y)
        if m + n > 4:
            assert b.is_zero()
        else:
            assert b.is_zero() or b.degrees() == {m + n}


def test_envelope_unitriangular_and_injective():
    for r in (2, 3):
        for n in range(1, 6):
            leading = set()
            for b in lyndon_basis(r, n):
                poly = envelope_polynomial(b.word)
                assert poly[b.word] == 1
                assert min(poly) == b.word
                for w in poly:
                    assert tuple(sorted(w)) == tuple(sorted(b.word))
                leading.add(b.word)
            assert len(leading) == len(lyndon_basis(r, n))


def test_envelope_intertwines_bracket():
    rng = random.Random(14)
    for _ in range(15):
        x = random_lie_element(rng, 2, 4, support=4)
        y = random_lie_element(rng, 2, 4, support=4)
        expected = {
            w: c
            for w, c in ring_commutator(x.envelope(), y.envelope()).items()
            if len(w) <= 4
        }
        assert lie_bracket(x, y).envelope() == expected


def test_lyndon_coordinates_rejects_non_lie():
    with pytest.raises(LieSpanError):
        lyndon_coordinates({(1, 2): 1})  # AB alone is not antisymmetric
    with pytest.raises(LieSpanError):
        lyndon_coordinates({(2, 1): 1})


def test_apply_identity_matrix():
    rng = random.Random(15)
    x = random_lie_element(rng, 3, 4)
    assert lie_apply_matrix(identity(3), x) == x


def test_apply_swap_negates_bracket():
    a = LieElement.generator(2, 2, 1)
    b = LieElement.generator(2, 2, 2)
    ab = lie_bracket(a, b)
    swapped = lie_apply_matrix(((0, 1), (1, 0)), ab)
    assert swapped == -ab


def test_apply_matrix_multiplicative_and_additive():
    rng = random.Random(16)
    for _ in range(12):
        a = random_unimodular(rng, 3)
        b = random_unimodular(rng, 3)
        x = random_lie_element(rng, 3, 4, support=4)
        y = random_lie_element(rng, 3, 4, support=4)
        assert lie_apply_matrix(matmul(a, b), x) == lie_apply_matrix(
            a, lie_apply_matrix(b, x)
        )
        assert lie_apply_matrix(a, x + y) == lie_apply_matrix(a, x) + lie_apply_matrix(a, y)


def test_apply_matrix_commutes_with_bracket():
    rng = random.Random(17)
    for _ in range(10):
        a = random_unimodular(rng, 2)
        x = random_lie_element(rng, 2, 4, support=3)
        y = random_lie_element(rng, 2, 4, support=3)
        assert lie_apply_matrix(a, lie_bracket(x, y)) == lie_bracket(
            lie_apply_matrix(a, x), lie_apply_matrix(a, y)
        )


def test_lyndon_coordinates_sound_on_arbitrary_polynomials():
    # a successful peel reproduces the polynomial from its coordinates
    rng = random.Random(18)
    from itertools import product

    words = list(product((1, 2), repeat=3))
    accepted = 0
    for _ in range(200):
        poly = {}
        for w in rng.sample(words, rng.randint(1, 4)):
            x = rng.randint(-3, 3)
            if x:
                poly[w] = x
        try:
            coords = lyndon_coordinates(dict(poly))
        except LieSpanError:
            continue
        accepted += 1
        rebuilt: dict = {}
        for w, e in coords.items():
            add_scaled(rebuilt, e, envelope_polynomial(w))
        assert rebuilt == poly
    assert accepted


def _min_scan_coordinates(component):
    """The copy-and-min Lyndon peel: the reference for the worklist peel."""
    residual = dict(component)
    coords = {}
    while residual:
        w = min(residual)
        if not is_lyndon(w):
            raise LieSpanError(f"word {w} obstructs the Lyndon peel")
        e = coords[w] = residual[w]
        residual = poly_sub(residual, {v: e * x for v, x in envelope_polynomial(w).items()})
    return coords


def test_lyndon_coordinates_match_the_min_scan_peel():
    # Lie elements (mostly accepted) and perturbed ones (mostly refused): same
    # coordinates in the same order, or the same error
    rng = random.Random(19)
    for _ in range(150):
        r, n = rng.randint(1, 3), rng.randint(1, 6)
        words = lyndon_words(r, n)
        poly = {}
        for w in rng.sample(words, min(len(words), rng.randint(1, 6))):
            add_scaled(poly, rng.randint(-4, 4), envelope_polynomial(w))
        if rng.random() < 0.4:
            w = tuple(rng.randint(1, r) for _ in range(n))
            add_scaled(poly, 1, {w: rng.choice((-1, 1, 2))})
        try:
            want = list(_min_scan_coordinates(poly).items())
        except LieSpanError as err:
            with pytest.raises(LieSpanError) as got:
                lyndon_coordinates(poly)
            assert str(got.value) == str(err)
            continue
        assert list(lyndon_coordinates(poly).items()) == want


def test_mismatch_errors():
    x = LieElement.generator(2, 2, 1)
    y = LieElement.generator(3, 2, 1)
    with pytest.raises(ValueError):
        lie_bracket(x, y)
    with pytest.raises(ValueError):
        lie_apply_matrix(((1,),), x)


def test_lie_element_letters_and_coefficients_are_checked():
    for word in [(0,), (-1, 1), (1, 3)]:
        with pytest.raises(ValueError, match="letter out of range"):
            LieElement(2, 2, {LyndonBasisElement(word): 1})
    for c in (1.5, 2.0, True, 0.0):
        with pytest.raises(ValueError, match="must be integers"):
            LieElement(2, 2, {LyndonBasisElement((1,)): c})
        with pytest.raises(ValueError, match="must be integers"):
            LieElement.from_word_coords(2, 2, {(1, 2): c})
    assert LieElement.from_word_coords(2, 2, {(1, 2): 0}).is_zero()


def test_witt_desk_scale():
    from nilstab.words import witt_rank

    for r in range(1, 6):
        for n in range(1, 7):
            assert len(lyndon_words(r, n)) == witt_rank(r, n)


def _layer_test_matrices(r):
    """Elementary, permutation and sign matrices of rank r."""
    from nilstab.stability import gl_generators

    cycle = tuple(tuple(int(j == (i + 1) % r) for j in range(r)) for i in range(r))
    signs = tuple(
        tuple((-1 if i % 2 == 0 else 1) * int(i == j) for j in range(r)) for i in range(r)
    )
    minus = [[int(i == j) for j in range(r)] for i in range(r)]
    if r > 1:
        minus[r - 1][0] = -1  # E_r1(-1)
    return gl_generators(r) + [cycle, signs, tuple(map(tuple, minus))]


def test_lie_layer_matrix_matches_full_substitution():
    # oracle: substitute into every basis monomial, fixed letters or not
    from nilstab.intlinalg import dense_matrix
    from nilstab.lie import lie_layer_matrix

    rng = random.Random(74)
    shapes = [(r, n) for r in (1, 2, 3, 4) for n in (1, 2, 3, 4)]
    for r, n in shapes + [(5, 3), (6, 3), (3, 5), (2, 8)]:
        basis = lyndon_basis(r, n)
        unimodular = [random_unimodular(rng, r, factors=6) for _ in range(3)]
        for a in _layer_test_matrices(r) + unimodular:
            cols = [
                lie_apply_matrix(a, LieElement(r, n, {b: 1})).coordinates(basis) for b in basis
            ]
            expected = tuple(tuple(col[i] for col in cols) for i in range(len(basis)))
            sparse = lie_layer_matrix(a, r, n)
            assert dense_matrix(sparse, len(basis)) == expected
            for col in sparse:  # rows strictly increasing, no zeros
                assert all(x for _, x in col)
                assert [i for i, _ in col] == sorted({i for i, _ in col})


def test_lie_layer_matrix_brackets_images_across_ranks(monkeypatch):
    from nilstab import lie
    from nilstab.stability import gl_generators

    def refuse(*_):
        raise AssertionError("lie_layer_matrix substituted")

    monkeypatch.setattr(lie, "poly_substitute", refuse)
    lie._basis_bracket.cache_clear()
    for a in gl_generators(3):
        lie.lie_layer_matrix(a, 3, 4)
    misses = lie._basis_bracket.cache_info().misses
    assert misses > 0
    # each rank-2 generator is the top-left block of a rank-3 one, so its
    # layer brackets only pairs of Lyndon monomials the rank-3 layers did
    for a in gl_generators(2):
        lie.lie_layer_matrix(a, 2, 4)
    assert lie._basis_bracket.cache_info().misses == misses

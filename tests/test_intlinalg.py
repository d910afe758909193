"""Exact integer matrix layer: Smith form, lattices, determinants."""

import random
from fractions import Fraction
from itertools import permutations
from math import floor, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilstab.intlinalg import (
    FinAbPresentation,
    _pivots,
    cokernel_presentation,
    compound,
    dense_matrix,
    det,
    freeze,
    identity,
    int_inverse,
    kron,
    lattice_basis,
    lattice_contains,
    matmul,
    snf,
    sparse_columns,
    sparse_transpose,
    transpose,
    xgcd,
    zero_matrix,
)


def sparse(cols):
    """Dense column tuples as sparse columns: (row, value) pairs, no zeros."""
    return [tuple((i, x) for i, x in enumerate(col) if x) for col in cols]


def random_sparse(rng, nrows, ncols, density=0.3, lo=-9, hi=9):
    return freeze(
        [
            [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def det_by_permanent_expansion(a):
    """Leibniz formula oracle, for small matrices only."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def test_xgcd():
    rng = random.Random(61)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_det_against_leibniz():
    rng = random.Random(62)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            a = random_sparse(rng, n, n, density=0.7, lo=-4, hi=4)
            assert det(a) == det_by_permanent_expansion(a)


def test_int_inverse():
    rng = random.Random(63)
    from nilstab.verify import random_unimodular

    for n in (1, 2, 3, 4):
        for _ in range(10):
            a = random_unimodular(rng, n, factors=6)
            assert matmul(a, int_inverse(a)) == identity(n)
    with pytest.raises(ValueError):
        int_inverse(((2,),))


def test_int_inverse_of_gl_generator_products():
    from nilstab.stability import gl_generators

    rng = random.Random(70)
    for r in range(1, 7):
        gens = gl_generators(r)
        for _ in range(6):
            a = identity(r)
            for _ in range(rng.randint(0, 12)):
                a = matmul(a, rng.choice(gens))
            inv = int_inverse(a)
            assert matmul(a, inv) == identity(r) == matmul(inv, a)
    doubled = freeze([[2 if i == j == 0 else int(i == j) for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError, match="det=2"):
        int_inverse(doubled)


def smith_inverse(a):
    """The inverse read off the Smith form, U*A*V = I gives A^-1 = V*U: the
    reference that the row-reduced inverse is held to."""
    res = snf(a)
    assert res.D == identity(len(a))
    return matmul(res.V, res.U)


def random_elementary(rng, n):
    """E_ij(q) with |q| < 100, or a sign flip of one coordinate."""
    m = [list(row) for row in identity(n)]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if i == j or rng.random() < 0.2:
        m[i][i] = -1
    else:
        m[i][j] = rng.randint(-99, 99)
    return freeze(m)


def test_int_inverse_matches_the_smith_form_inverse():
    from nilstab.stability import gl_generators

    cases = [a for r in range(1, 7) for a in gl_generators(r)]
    rng = random.Random(72)
    for n in range(1, 9):
        for _ in range(8):
            a = identity(n)
            for _ in range(rng.randint(0, 40)):
                a = matmul(a, random_elementary(rng, n))
            cases.append(a)
    assert max(abs(x).bit_length() for a in cases for row in a for x in row) > 64
    for a in cases:
        inv = int_inverse(a)
        assert inv == smith_inverse(a)
        assert matmul(a, inv) == identity(len(a)) == matmul(inv, a)


def test_int_inverse_edge_cases(monkeypatch):
    import nilstab.intlinalg as intlinalg

    def refuse(_):
        raise AssertionError("snf called")

    monkeypatch.setattr(intlinalg, "snf", refuse)
    assert int_inverse(()) == ()
    assert int_inverse(((-1,),)) == ((-1,),)
    assert int_inverse(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    assert int_inverse(((2, 3), (1, 2))) == ((2, -3), (-1, 2))
    with pytest.raises(ValueError, match=r"not invertible over the integers \(det=2\)"):
        int_inverse(((2, 1), (0, 1)))
    with pytest.raises(ValueError, match=r"\(det=0\)"):
        int_inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match=r"\(det=0\)"):
        int_inverse(((0, 0), (0, 0)))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 0)])
def test_int_inverse_refuses_a_non_square_matrix(shape):
    a = tuple((1,) * shape[1] for _ in range(shape[0]))
    with pytest.raises(ValueError, match=rf"not square \({shape[0]}x{shape[1]}\)"):
        int_inverse(a)


def test_compound_cauchy_binet():
    rng = random.Random(64)
    for _ in range(10):
        a = random_sparse(rng, 4, 4, density=0.8, lo=-3, hi=3)
        b = random_sparse(rng, 4, 4, density=0.8, lo=-3, hi=3)
        for t in (0, 1, 2, 3):
            lhs = compound(matmul(a, b), t, 4, 4)
            rhs = matmul(compound(a, t, 4, 4), compound(b, t, 4, 4))
            assert lhs == rhs


def test_kron_mixed_product():
    rng = random.Random(65)
    a = random_sparse(rng, 2, 2, density=1.0)
    b = random_sparse(rng, 3, 3, density=1.0)
    c = random_sparse(rng, 2, 2, density=1.0)
    d = random_sparse(rng, 3, 3, density=1.0)
    assert matmul(kron(a, b), kron(c, d)) == kron(matmul(a, c), matmul(b, d))


def test_snf_zero_matrix():
    res = snf(zero_matrix(3, 2))
    assert res.D == zero_matrix(3, 2)
    assert res.U == identity(3)
    assert res.V == identity(2)
    assert res.invariant_factors() == ()


def test_snf_divisibility_example():
    res = snf(((2, 0), (0, 3)))
    assert res.invariant_factors() == (1, 6)
    assert matmul(matmul(res.U, ((2, 0), (0, 3))), res.V) == res.D


def test_snf_sign_normalization():
    res = snf(((-2,),))
    assert res.D == ((2,),)
    assert res.invariant_factors() == (2,)


def _check_snf(a, nrows, ncols):
    res = snf(a)
    assert matmul(matmul(res.U, a), res.V) == res.D
    assert det(res.U) in (1, -1)
    assert det(res.V) in (1, -1)
    diag = [res.D[i][i] for i in range(min(nrows, ncols))]
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert res.D[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


def test_snf_random_invariants():
    rng = random.Random(66)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        _check_snf(random_sparse(rng, nrows, ncols, density=0.5), nrows, ncols)


def test_snf_large_sparse():
    rng = random.Random(67)
    for nrows, ncols in [(40, 25), (25, 40), (40, 40)]:
        _check_snf(random_sparse(rng, nrows, ncols, density=0.15), nrows, ncols)


def test_snf_determinantal_divisors():
    """d_1 * ... * d_k is the gcd of the k x k minors, for every k."""
    rng = random.Random(71)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_sparse(rng, nrows, ncols, density=rng.choice([0.4, 0.8]), lo=-6, hi=6)
        diag = snf(a).diagonal()
        for k in range(1, min(nrows, ncols) + 1):
            minors = [x for row in compound(a, k, nrows, ncols) for x in row]
            assert prod(diag[:k]) == gcd(*minors)


def test_snf_deterministic():
    rng = random.Random(68)
    a = random_sparse(rng, 6, 6, density=0.6)
    assert snf(a) == snf(a)


def test_lattice_basis_and_membership():
    cols = [(2, 0), (0, 2), (1, 1)]
    basis = lattice_basis(sparse(cols), 2)
    # the lattice contains (1,1) and (2,0) but not (1,0)
    assert lattice_contains(basis, (1, 1))
    assert lattice_contains(basis, (2, 0))
    assert not lattice_contains(basis, (1, 0))
    assert lattice_contains(basis, (0, 0))


def test_lattice_basis_random_consistency():
    rng = random.Random(69)
    for _ in range(20):
        dim = rng.randint(1, 5)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(0, 8))
        ]
        basis = lattice_basis(sparse(cols), dim)
        for col in cols:
            assert lattice_contains(basis, col)
        # random integer combinations stay inside
        for _ in range(5):
            combo = [0] * dim
            for col in cols:
                w = rng.randint(-2, 2)
                combo = [x + w * y for x, y in zip(combo, col)]
            assert lattice_contains(basis, tuple(combo))


def test_pivots_reads_each_first_nonzero_row():
    rng = random.Random(71)
    bases = [[]]
    for _ in range(60):
        dim = rng.randint(1, 7)
        # rank-deficient lattices too: few columns, or rows left at zero
        zero_rows = set(rng.sample(range(dim), rng.randint(0, dim - 1)))
        cols = [
            tuple(0 if i in zero_rows else rng.randint(-3, 3) for i in range(dim))
            for _ in range(rng.randint(0, dim + 2))
        ]
        bases.append(lattice_basis(sparse(cols), dim))
    assert any(b and len(b) < len(b[0]) for b in bases)
    for basis in bases:
        expected = {next(i for i, x in enumerate(col) if x): col for col in basis}
        assert list(_pivots(basis).items()) == list(expected.items())


def test_cokernel_presentation():
    assert cokernel_presentation([], 3) == FinAbPresentation(3, ())
    assert cokernel_presentation(sparse([(-2,)]), 1) == FinAbPresentation(0, (2,))
    assert cokernel_presentation(sparse([(1, 0), (0, 1)]), 2) == FinAbPresentation(0, ())
    pres = cokernel_presentation(sparse([(2, 0), (0, 3)]), 2)
    assert pres == FinAbPresentation(0, (6,))  # Z/2 + Z/3 collapses to Z/6
    assert cokernel_presentation(sparse([(2, 0), (0, 2), (1, 1)]), 2) == FinAbPresentation(0, (2,))
    assert cokernel_presentation(sparse([(1, 1)]), 2) == FinAbPresentation(1, ())  # rank 1 in Z^2


def test_lattice_index_examples():
    """The index of a lattice in Z^dim is the order of its cokernel (0 if infinite)."""

    def index(cols, dim):
        pres = cokernel_presentation(sparse(cols), dim)
        return prod(pres.invariant_factors) if pres.free_rank == 0 else 0

    assert index([(2, 0), (0, 3)], 2) == 6
    assert index([(2, 0), (0, 2), (1, 1)], 2) == 2
    assert index([(1, 1)], 2) == 0  # rank 1 in Z^2
    assert index([], 0) == 1


_column_sets = st.integers(0, 6).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=8),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_column_sets)
def test_cokernel_presentation_against_dense_snf(case):
    """Oracle: the Smith form of the whole dim x k relation matrix."""
    dim, cols = case
    factors = snf(tuple(tuple(col[i] for col in cols) for i in range(dim))).invariant_factors()
    expected = FinAbPresentation(dim - len(factors), tuple(d for d in factors if d > 1))
    assert cokernel_presentation(sparse(cols), dim) == expected


def dense_echelon(cols, dim):
    """Oracle: the echelon lattice_basis ran on dense column tuples, walking
    every row of each column top down.  A column stored as a pivot first has
    each entry below its pivot reduced, top down, to the centered remainder
    by the pivot stored at that row."""
    pivots = {}
    seen = set()

    def store(row, p):
        for i in range(row + 1, dim):
            if p[i] and i in pivots:
                a = pivots[i][i]
                # the remainder p[i] - q * a lies in [-|a|/2, |a|/2)
                q = floor(Fraction(p[i], abs(a)) + Fraction(1, 2)) * (1 if a > 0 else -1)
                p = [pi - q * qi for pi, qi in zip(p, pivots[i])]
        pivots[row] = p

    for col in cols:
        if col in seen or not any(col):
            continue
        seen.add(col)
        c = list(col)
        row = 0
        while row < dim:
            if c[row] == 0:
                row += 1
                continue
            p = pivots.get(row)
            if p is None:
                store(row, c)
                break
            a, b = p[row], c[row]
            if b % a == 0:
                q = b // a
                c = [ci - q * pi for ci, pi in zip(c, p)]
            else:
                x, y, g = xgcd(a, b)
                store(row, [x * pi + y * ci for pi, ci in zip(p, c)])
                c = [(a // g) * ci - (b // g) * pi for pi, ci in zip(p, c)]
            row += 1
    return [tuple(pivots[r]) for r in sorted(pivots)]


_echelon_cases = st.integers(0, 7).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=8),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_echelon_cases)
def test_sparse_lattice_basis_matches_dense_echelon(case):
    dim, cols = case
    assert lattice_basis(sparse(cols), dim) == dense_echelon(cols, dim)


def test_lattice_basis_rejects_rows_out_of_range():
    with pytest.raises(ValueError, match="dimension"):
        lattice_basis([((2, 1),)], 2)


def test_lattice_basis_stops_once_the_lattice_is_z_dim(monkeypatch):
    # the columns of a unimodular matrix span Z^dim; duplicates and arbitrary
    # columns after them neither reach the echelon nor change its basis
    from nilstab import intlinalg
    from nilstab.verify import random_unimodular

    reduce_column = intlinalg._reduce_column
    reduced = []

    def counted(pivots, c):
        reduced.append(c)
        return reduce_column(pivots, c)

    monkeypatch.setattr(intlinalg, "_reduce_column", counted)
    rng = random.Random(27)
    for dim in range(1, 7):
        spanning = list(zip(*random_unimodular(rng, dim, factors=8)))
        extra = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(10)]
        extra += rng.sample(spanning, len(spanning))
        reduced.clear()
        basis = lattice_basis(sparse(spanning + extra), dim)
        assert len(reduced) == dim
        assert basis == lattice_basis(sparse(spanning), dim) == dense_echelon(spanning + extra, dim)
        for bad in ([((dim, 1),)], [((-1, 1),)]):
            with pytest.raises(ValueError, match="dimension"):
                lattice_basis(sparse(spanning + extra) + bad, dim)


def test_sparse_and_dense_conversions():
    a = ((1, 0, 2), (0, 0, -3))
    cols = sparse_columns(a)
    assert cols == (((0, 1),), (), ((0, 2), (1, -3)))
    assert dense_matrix(cols, 2) == a
    assert dense_matrix(sparse_transpose(cols, 2), 3) == transpose(a)


def test_presentation_str():
    assert str(FinAbPresentation(0, ())) == "0"
    assert str(FinAbPresentation(1, ())) == "Z"
    assert str(FinAbPresentation(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_transpose_empty_needs_ncols():
    assert transpose((), 3) == ((), (), ())
    with pytest.raises(ValueError):
        transpose(())

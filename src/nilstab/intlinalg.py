"""Exact integer linear algebra on unbounded integers.

Matrices are immutable tuples of row tuples.  A sparse column is a tuple of
(row, value) pairs in row order with no zero values; module actions are
tuples of sparse columns, and relation lattices are spanned by them.  Both
forms are hashable and immutable.  Everything here is exact: no floats, no
overflow.  The Smith normal form uses a smallest-nonzero-pivot rule with
column-then-row elimination, so its output is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from .series import add_scaled

Matrix = tuple  # tuple of row tuples of int


def freeze(rows) -> Matrix:
    """Immutable copy of a matrix; any entry that is not an int (bool too) is a ValueError."""
    out = tuple(tuple(row) for row in rows)
    if any(type(x) is not int for row in out for x in row):
        raise ValueError("matrix entries must be integers")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple((0,) * ncols for _ in range(nrows))


def transpose(a: Matrix, ncols: int | None = None) -> Matrix:
    if not a:
        if ncols is None:
            raise ValueError("transpose of empty matrix needs explicit ncols")
        return tuple(() for _ in range(ncols))
    return tuple(zip(*a))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Matrix, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


# kron, block_diag and compound (with minor) are the dense reference that the
# tests hold the sparse module actions to; the library builds actions sparse.
def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


def block_diag(a: Matrix, b: Matrix, a_cols: int, b_cols: int) -> Matrix:
    out = [row + (0,) * b_cols for row in a]
    out += [(0,) * a_cols + row for row in b]
    return tuple(out)


def sparse_columns(a: Matrix) -> tuple:
    """The columns of a dense matrix as sparse columns."""
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*a))


def dense_matrix(cols, nrows: int) -> Matrix:
    """The dense matrix with the given sparse columns."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i][j] = x
    return freeze(rows)


def sparse_transpose(cols, nrows: int) -> tuple:
    """Sparse columns of the transpose: column i collects row i."""
    rows = [[] for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i].append((j, x))
    return tuple(map(tuple, rows))


def sparse_kron(a, b) -> tuple:
    """Kronecker product of two square matrices given by sparse columns."""
    n = len(b)
    return tuple(
        [
            tuple([(i * n + k, x * y) for i, x in col_a for k, y in col_b])
            for col_a in a
            for col_b in b
        ]
    )


def sparse_compound(cols, t: int) -> tuple:
    """t-th compound of a square matrix given by sparse columns.

    Column S (a t-subset, in combinations order) is the wedge of the columns
    in S: each product of entries lands on the sorted row set, with the sign
    of the sort, so the entry at row set R is the minor (R, S).
    """
    index = {s: k for k, s in enumerate(combinations(range(len(cols)), t))}
    out = []
    for s in index:
        wedge = {(): 1}
        for j in s:
            step: dict = {}
            for rows, v in wedge.items():
                for i, x in cols[j]:
                    k = bisect_left(rows, i)
                    if k < len(rows) and rows[k] == i:
                        continue
                    key = rows[:k] + (i,) + rows[k:]
                    # e_i moves left past the len(rows) - k larger rows
                    step[key] = step.get(key, 0) + (-v * x if (len(rows) - k) % 2 else v * x)
            wedge = step
        out.append(tuple(sorted((index[rows], v) for rows, v in wedge.items() if v)))
    return tuple(out)


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor(a: Matrix, rows, cols) -> int:
    return det(tuple(tuple(a[i][j] for j in cols) for i in rows))


def int_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix: unimodular row operations take
    [A | I] to [I | A^-1], each pivot the gcd of its column below the diagonal."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix is not square ({n}x{len(a[0])})")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        for i in range(k + 1, n):
            p, x = m[k][k], m[i][k]
            if not x:
                continue
            if p and not x % p:
                q = x // p
                m[i] = [u - q * v for u, v in zip(m[i], m[k])]
            else:  # (row k, row i) <- (s, t; -x/g, p/g) (row k, row i), det 1
                s, t, g = xgcd(p, x)
                m[k], m[i] = (
                    [s * u + t * v for u, v in zip(m[k], m[i])],
                    [p // g * v - x // g * u for u, v in zip(m[k], m[i])],
                )
        if m[k][k] not in (1, -1):
            raise ValueError(f"matrix is not invertible over the integers (det={det(a)})")
        if m[k][k] < 0:
            m[k] = [-u for u in m[k]]
        for i in range(k):
            q = m[i][k]
            if q:
                m[i] = [u - q * v for u, v in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def compound(a: Matrix, t: int, nrows: int, ncols: int) -> Matrix:
    """t-th compound matrix (all t x t minors); multiplicative by Cauchy-Binet."""
    if t == 0:
        return ((1,),)
    row_sets = list(combinations(range(nrows), t))
    col_sets = list(combinations(range(ncols), t))
    return tuple(
        tuple(minor(a, rs, cs) for cs in col_sets) for rs in row_sets
    )


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class SNFResult:
    """U*A*V = D with U, V unimodular and D diagonal, d_1 | d_2 | ... >= 0."""

    U: Matrix
    D: Matrix
    V: Matrix

    def diagonal(self) -> tuple:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0)))

    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diagonal() if d != 0)


def snf(a: Matrix) -> SNFResult:
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def scale_row(i, s):
        d[i] = [s * x for x in d[i]]
        u[i] = [s * x for x in u[i]]

    rank = min(nrows, ncols)
    for k in range(rank):
        while True:
            # smallest nonzero |entry| in the trailing block
            pivot = None
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(k, pivot[0])
            swap_cols(k, pivot[1])
            p = d[k][k]
            # columns first, then rows
            dirty = False
            for j in range(k + 1, ncols):
                if d[k][j] != 0:
                    add_col(j, k, -(d[k][j] // p))
                    if d[k][j] != 0:
                        dirty = True
            for i in range(k + 1, nrows):
                if d[i][k] != 0:
                    add_row(i, k, -(d[i][k] // p))
                    if d[i][k] != 0:
                        dirty = True
            if not dirty:
                break
        if d[k][k] == 0:
            break
    # sign normalization
    for k in range(rank):
        if d[k][k] < 0:
            scale_row(k, -1)
    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            if d[i][i] == 0:
                continue
            for j in range(i + 1, rank):
                if d[j][j] % d[i][i] == 0:
                    continue
                changed = True
                a_, b_ = d[i][i], d[j][j]
                add_row(i, j, 1)  # D[i][j] becomes b_
                x, y, g = xgcd(a_, b_)
                # unimodular column pair transform: det = (x*a_ + y*b_)/g = 1
                ci = [row[i] for row in d]
                cj = [row[j] for row in d]
                for r_ in range(nrows):
                    d[r_][i] = x * ci[r_] + y * cj[r_]
                    d[r_][j] = (a_ // g) * cj[r_] - (b_ // g) * ci[r_]
                vi = [row[i] for row in v]
                vj = [row[j] for row in v]
                for r_ in range(ncols):
                    v[r_][i] = x * vi[r_] + y * vj[r_]
                    v[r_][j] = (a_ // g) * vj[r_] - (b_ // g) * vi[r_]
                # clear the off-diagonal residue in row j
                if d[j][i] != 0:
                    add_row(j, i, -(d[j][i] // d[i][i]))
                if d[j][j] < 0:
                    scale_row(j, -1)
    return SNFResult(freeze(u), freeze(d), freeze(v))


@dataclass(frozen=True)
class FinAbPresentation:
    """Isomorphism type of a finitely generated abelian group.

    invariant_factors is the divisibility chain of the factors > 1, so
    equality of presentations is isomorphism of the groups.
    """

    free_rank: int
    invariant_factors: tuple

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _store_pivot(pivots: dict, row: int, c: dict) -> None:
    """Store c as the pivot column at row, after reducing each entry below the
    pivot, top row first, to its centered remainder by the pivot stored at
    that row.  Unreduced, the entries of stored columns grow without bound."""
    rows = [i for i in c if i != row and i in pivots]
    heapify(rows)
    queued = set(rows)
    while rows:
        i = heappop(rows)
        x = c.get(i)
        if x is None:
            continue
        p = pivots[i]
        a = abs(p[i])
        q = (2 * x + a) // (2 * a)  # the integer nearest x / a
        if q:
            add_scaled(c, -q if p[i] > 0 else q, p)
            for j in p:
                if j not in queued and j in pivots:
                    queued.add(j)
                    heappush(rows, j)
    pivots[row] = c


def _reduce_column(pivots: dict, c: dict) -> None:
    """Fold one column (row -> nonzero value) into an echelon pivot table,
    preserving the lattice.  Rows are visited top down; each step clears the
    top row of c, which the pivot there shares."""
    while c:
        row = min(c)
        p = pivots.get(row)
        if p is None:
            _store_pivot(pivots, row, c)
            return
        a, b = p[row], c[row]
        if b % a == 0:
            add_scaled(c, -(b // a), p)
        else:
            x, y, g = xgcd(a, b)
            new_p = {i: x * v for i, v in p.items()} if x else {}
            add_scaled(new_p, y, c)
            c = {i: (a // g) * v for i, v in c.items()}
            add_scaled(c, -(b // g), p)
            _store_pivot(pivots, row, new_p)


def lattice_basis(cols, dim: int) -> list:
    """Echelon basis (as dense column tuples, by pivot row) of the lattice
    spanned by the sparse columns cols in Z^dim.

    Once every row holds a pivot +-1 the lattice is Z^dim: every later column
    reduces to zero without touching the table, so the rest are only checked.
    A unit pivot is never replaced and any other only shrinks to a divisor, so
    a row still known to hold a non-unit pivot is looked at first.
    """
    pivots: dict = {}
    seen = set()
    full = False
    nonunit = None  # once every row holds a pivot, a row whose pivot is not +-1
    for col in cols:
        if not col:
            continue
        if col[0][0] < 0 or col[-1][0] >= dim:
            raise ValueError("column has wrong dimension")
        if full or col in seen:
            continue
        seen.add(col)
        _reduce_column(pivots, dict(col))
        if len(pivots) == dim and (nonunit is None or abs(pivots[nonunit][nonunit]) == 1):
            nonunit = next((i for i, p in pivots.items() if abs(p[i]) != 1), None)
            full = nonunit is None
    basis = []
    for row in sorted(pivots):
        dense = [0] * dim
        for i, x in pivots[row].items():
            dense[i] = x
        basis.append(tuple(dense))
    return basis


def _pivots(basis_cols) -> dict:
    """Pivot table of an echelon basis: each column keyed by its first nonzero
    row.  The pivot rows increase strictly, so each column is read from one
    row past the previous pivot."""
    table = {}
    row = 0
    for col in basis_cols:
        while not col[row]:
            row += 1
        table[row] = col
        row += 1
    return table


def _reduce(pivots: dict, vec) -> list:
    """Remainder of vec after subtracting floor-quotient multiples of the
    pivot columns (row -> column, in row order), top row first."""
    c = list(vec)
    for row, col in pivots.items():
        q = c[row] // col[row]
        if q != 0:
            c = [ci - q * pi for ci, pi in zip(c, col)]
    return c


def lattice_contains(basis_cols, vec) -> bool:
    """Membership test against an echelon basis as produced by lattice_basis."""
    return not any(_reduce(_pivots(basis_cols), vec))


def _cokernel(pivots: dict, dim: int) -> FinAbPresentation:
    """Presentation of Z^dim modulo the lattice of an echelon pivot table.

    Pivot columns with pivot +-1, completed by unit vectors, are a basis of
    Z^dim, so they are reduced out of the rest and dropped with their rows;
    the Smith form sees only the rows that this residual still touches.
    """
    units = {i: col for i, col in pivots.items() if abs(col[i]) == 1}
    residual = [_reduce(units, col) for i, col in pivots.items() if i not in units]
    rows = sorted({i for col in residual for i, x in enumerate(col) if x != 0})
    factors = snf(tuple(tuple(col[i] for col in residual) for i in rows)).invariant_factors()
    return FinAbPresentation(dim - len(pivots), tuple(d for d in factors if d > 1))


def cokernel_presentation(cols, dim: int) -> FinAbPresentation:
    """Presentation of Z^dim modulo the lattice spanned by the given sparse columns."""
    return _cokernel(_pivots(lattice_basis(cols, dim)), dim)

"""Free Lie ring on r generators, truncated at degree c, in the Lyndon basis.

Sign convention, used everywhere: the basis monomial of a Lyndon word w with
standard factorization (u, v) denotes the bracket [u, v], in that order.

Brackets are computed through the associative envelope: every basis monomial
expands to an integer noncommutative polynomial (its iterated commutator
XY - YX), products happen there, and the result is pulled back through the
triangular system given by the fact that the expansion of a Lyndon monomial
is its word plus lexicographically larger anagrams.  The same expansion is
the independent oracle for everything the bracket does.

A matrix acts on each layer by a Lie ring automorphism, so the layer action
builds the image of a Lyndon monomial [u, v] as the bracket [g.u, g.v] of the
images of its factors, from cached brackets of basis monomials;
lie_apply_matrix substitutes into the envelope instead and is its oracle.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

from .series import add_scaled, poly_mul, poly_sub, poly_substitute
from .words import (
    LyndonBasisElement,
    basis_terms,
    bracketing,
    check_terms,
    is_lyndon,
    lyndon_words,
    standard_factorization,
)


class LieSpanError(ValueError):
    """A polynomial component is not an integer combination of Lyndon monomials."""


@lru_cache(maxsize=None)
def envelope_polynomial(word: tuple) -> dict:
    """Associative expansion of the standard bracketing of a Lyndon word.

    Keys are words (tuples), values integers; homogeneous of degree len(word).
    """

    def expand(tree) -> dict:
        if isinstance(tree, int):
            return {(tree,): 1}
        left = expand(tree[0])
        right = expand(tree[1])
        deg = 10**9  # homogeneous: no truncation wanted
        return poly_sub(poly_mul(left, right, deg), poly_mul(right, left, deg))

    return expand(bracketing(word))


def lyndon_coordinates(component: dict) -> dict:
    """Coordinates of a homogeneous polynomial in the Lyndon monomial basis.

    Peels the lexicographically smallest remaining word; it must be Lyndon and
    its coefficient is the coordinate (expansion is unitriangular).  Raises
    LieSpanError if the input is not in the integer span.

    The envelope of w is w plus larger words, so subtracting it in place only
    touches words after w: the words still to visit stay in a sorted list, a
    new word goes in behind the current one, and a visited word no longer in
    the residual was cancelled.
    """
    residual = dict(component)
    order = sorted(residual)
    coords: dict = {}
    i = 0
    while i < len(order):
        w = order[i]
        i += 1
        e = residual.get(w)
        if e is None:
            continue
        if not is_lyndon(w):
            raise LieSpanError(f"word {w} obstructs the Lyndon peel")
        coords[w] = e
        for v, x in envelope_polynomial(w).items():
            s = residual.get(v, 0) - e * x
            if s:
                if v not in residual:
                    insort(order, v, i)
                residual[v] = s
            else:
                del residual[v]
    return coords


@dataclass(frozen=True)
class LieElement:
    """Graded integer combination of Lyndon bracket monomials, degrees <= class_bound."""

    rank: int
    class_bound: int
    terms: dict  # LyndonBasisElement -> nonzero int

    def __post_init__(self):
        words = [b.word for b in self.terms]
        check_terms(self.rank, self.class_bound, words, self.terms.values(), "coefficient")

    @classmethod
    def zero(cls, rank: int, class_bound: int) -> "LieElement":
        return cls(rank, class_bound, {})

    @classmethod
    def generator(cls, rank: int, class_bound: int, i: int) -> "LieElement":
        return cls(rank, class_bound, {LyndonBasisElement((i,)): 1})

    @classmethod
    def from_word_coords(cls, rank: int, class_bound: int, coords: dict) -> "LieElement":
        return cls(rank, class_bound, basis_terms(coords))

    def _check(self, other: "LieElement"):
        if (self.rank, self.class_bound) != (other.rank, other.class_bound):
            raise ValueError("rank/class mismatch")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        terms = dict(self.terms)
        add_scaled(terms, 1, other.terms)
        return LieElement(self.rank, self.class_bound, terms)

    def __neg__(self) -> "LieElement":
        return LieElement(self.rank, self.class_bound, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {b.degree for b in self.terms}

    def envelope(self) -> dict:
        """Expansion in the free associative ring (degrees <= class_bound)."""
        out: dict = {}
        for b, c in self.terms.items():
            add_scaled(out, c, envelope_polynomial(b.word))
        return out

    def coordinates(self, basis) -> tuple:
        """Coefficient vector with respect to an ordered basis of LyndonBasisElements."""
        return tuple(self.terms.get(b, 0) for b in basis)

    def __repr__(self) -> str:
        if not self.terms:
            return "LieElement(0)"
        bits = []
        for b in sorted(self.terms, key=LyndonBasisElement.sort_key):
            c = self.terms[b]
            word = "".join(map(str, b.word))
            bits.append(f"{c:+d}*[{word}]")
        return f"LieElement({' '.join(bits)})"


def lie_from_polynomial(rank: int, class_bound: int, poly: dict) -> LieElement:
    """Pull an associative polynomial back to the Lyndon basis, degree by degree."""
    components: dict = {}
    for w, c in poly.items():
        if 0 < len(w) <= class_bound:
            components.setdefault(len(w), {})[w] = c
    coords: dict = {}
    for n in sorted(components):
        coords.update(lyndon_coordinates(components[n]))
    return LieElement.from_word_coords(rank, class_bound, coords)


def lie_bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y], rewritten to the Lyndon basis; degrees beyond the bound vanish."""
    x._check(y)
    c = x.class_bound
    ex, ey = x.envelope(), y.envelope()
    comm = poly_sub(poly_mul(ex, ey, c), poly_mul(ey, ex, c))
    return lie_from_polynomial(x.rank, c, comm)


def _letter_images(a, r: int) -> list:
    """Letter i -> sum_j a[j][i] * letter j, as degree-1 polynomials."""
    if len(a) != r or any(len(row) != r for row in a):
        raise ValueError("matrix size does not match rank")
    return [{(j + 1,): a[j][i] for j in range(r) if a[j][i]} for i in range(r)]


def lie_apply_matrix(a, x: LieElement) -> LieElement:
    """Substitute letter i -> sum_j a[j][i] * letter j and rewrite to the basis.

    The substitution acts on the associative expansion (a ring endomorphism),
    which agrees with the bracket-tree substitution because expansion is a Lie
    map into the envelope.
    """
    (out,) = poly_substitute([x.envelope()], _letter_images(a, x.rank), x.class_bound)
    return lie_from_polynomial(x.rank, x.class_bound, out)


@lru_cache(maxsize=None)
def _basis_bracket(p: tuple, q: tuple) -> dict:
    """[p, q] of two Lyndon monomials, Lyndon word -> coefficient.

    Uses [q, p] = -[p, q] and [p, p] = 0, and otherwise peels the envelope
    commutator; it does not depend on the rank, so one cache serves them all.
    """
    if p == q:
        return {}
    if q < p:
        return {w: -x for w, x in _basis_bracket(q, p).items()}
    ep, eq = envelope_polynomial(p), envelope_polynomial(q)
    deg = len(p) + len(q)
    return lyndon_coordinates(poly_sub(poly_mul(ep, eq, deg), poly_mul(eq, ep, deg)))


@lru_cache(maxsize=None)
def _layer_index(r: int, n: int) -> dict:
    """Degree-n Lyndon word -> its position in the basis, in basis order."""
    return {w: i for i, w in enumerate(lyndon_words(r, n))}


def lie_layer_matrix(a, r: int, n: int) -> tuple:
    """Sparse columns of the substitution action on the degree-n Lyndon basis.

    Column i is the image of the i-th basis monomial, as (row, value) pairs in
    increasing row order.  The matrix acts by a Lie ring automorphism, so the
    image of a Lyndon monomial with standard factorization (u, v) is the sum of
    x y [p, q] over the terms x p of the image of u and y q of the image of v;
    the images of the lower-degree factors are built once per call.
    """
    images = {(i + 1,): img for i, img in enumerate(_letter_images(a, r))}

    def image(w: tuple) -> dict:
        out = images.get(w)
        if out is None:
            u, v = standard_factorization(w)
            out = {}
            right = image(v).items()
            for p, x in image(u).items():
                for q, y in right:
                    add_scaled(out, x * y, _basis_bracket(p, q))
            images[w] = out
        return out

    index = _layer_index(r, n)
    return tuple(tuple(sorted((index[b], x) for b, x in image(w).items())) for w in index)

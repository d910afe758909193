"""Exact arithmetic in the free nilpotent group of class c on r generators.

Elements are kept in collected normal form: an exponent for every Lyndon
basic commutator of degree <= c, multiplied out in (degree, word) order.
The Magnus embedding x_i -> 1 + X_i into the truncated series ring is
injective, and the collected form comes back from a series by peeling it
degree by degree.

As [gamma_i, gamma_j] lies in gamma_(i+j), a basic commutator B of degree > c/2
has the linear power B^e = 1 + e(B - 1), and such factors multiply by addition:
the embed and the peel sum them; only degrees <= c/2 take series products.

All of it runs on P(r, c), the empty word and every factor of a Lyndon word
of length <= c (340 of the 1,092 nonempty words at (3,6)), and keys every
series on P by a word's position in words.lyndon_factor_positions, the one
table of P.  P holds every prefix and every suffix of its words, so a
product p t read on P is exact there and reads p and t on P alone.  The
peel reads only Lyndon-word coefficients, which determine the exponents
through unitriangular systems, and ends by checking that the residual is 1
on all of P.  mul, inv and comm never build a full series: they list the basic powers
of their result as a product (g's factors then h's; g's reversed and
negated; four such lists for g^-1 h^-1 g h), multiply them on P one left
factor at a time, from the last to the first, with B^e from the cached
powers of B - 1 on P, and peel the result.  A run of factors of degree > c/2
enters as one linear step.  These products, the powers and the peel's
divisions walk the words of the sparse left factor (series.left_mul_by over
the table's prefix_splits), not those of the dense right factor.  Their
results carry no cached series.

_basic_series, the one cache of basic-commutator series that the embed, the
powers and the peel read, builds B_w = [B_u, B_v] for the standard
factorization (u, v) by series.unit_commutator, which needs (B_v B_u)^-1
only up to degree c - len(w).

The full-series path stays the independent oracle: magnus_embed multiplies
poly_unit_pow powers with unit products (series.unit_mul, which multiplies
out only the terms whose degrees can still pair), and series.poly_mul and
series.poly_group_commutator multiply every pair of terms.  Full series stay
keyed by word; magnus_peel cuts one to P by position, peels it and accepts
it only if the embedding of the result is that series: a series has at
most one candidate preimage.

Group commutator convention, used everywhere: [g, h] = g^-1 h^-1 g h.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

from .lie import LieElement, envelope_polynomial
from .series import (
    TruncatedSeries,
    add_scaled,
    left_mul_by,
    poly_unit_pow,
    unit_commutator,
    unit_mul,
)
from .words import (
    LyndonBasisElement,
    basis_terms,
    check_terms,
    lyndon_basis,
    lyndon_factor_positions,
    standard_factorization,
    witt_rank,
)


class NotAGroupElement(ValueError):
    """A truncated series that is not in the image of the Magnus embedding."""


@lru_cache(maxsize=None)
def _basic_series(r: int, c: int, word: tuple) -> dict:
    """Magnus series of the basic commutator of a Lyndon word, as a raw dict:
    [B_u, B_v] for the standard factorization (u, v), by series.unit_commutator,
    which needs (B_v B_u)^-1 only up to degree c - len(word)."""
    if len(word) == 1:
        return {(): 1, word: 1}
    u, v = standard_factorization(word)
    return unit_commutator(_basic_series(r, c, u), _basic_series(r, c, v), c)


@lru_cache(maxsize=None)
def _basic_powers(r: int, c: int, word: tuple) -> tuple:
    """The powers N, N^2, ..., N^(c // len(word)) of N = B - 1 for the basic
    commutator B of a Lyndon word, read on P(r, c) by position, each one left
    product by N on P; N has least degree len(word), so the next power is
    truncated away."""
    _, position, _, prefix_splits = lyndon_factor_positions(r, c)
    n = {position[w]: x for w, x in _basic_series(r, c, word).items() if w and w in position}
    powers = [n]
    for _ in range(c // len(word) - 1):
        powers.append(left_mul_by(n, powers[-1], prefix_splits, {}))
    return tuple(powers)


def _basic_power(r: int, c: int, word: tuple, e: int) -> dict:
    """B^e = sum_k C(e, k) N^k on P(r, c) from the cached powers of N = B - 1.

    C(e, k) = C(e, k-1) * (e-k+1) / k is an exact integer for every integer e;
    the sum ends once C(e, k) = 0 (0 <= e < k) or N^k is truncated away.
    """
    out = {0: 1}
    binom = 1
    for k, power in enumerate(_basic_powers(r, c, word), 1):
        binom = binom * (e - k + 1) // k
        if not binom:
            break
        add_scaled(out, binom, power)
    return out


@dataclass(frozen=True, repr=False)
class GroupElement:
    rank: int
    class_bound: int
    exponents: dict  # LyndonBasisElement -> nonzero int
    # the cached Magnus series, filled by magnus_embed only
    _series: list = field(default_factory=list, init=False, compare=False)

    def __post_init__(self):
        if self.rank < 1 or self.class_bound < 1:
            raise ValueError("need rank >= 1 and class >= 1")
        words = [b.word for b in self.exponents]
        check_terms(self.rank, self.class_bound, words, self.exponents.values(), "exponent")

    @classmethod
    def identity(cls, rank: int, class_bound: int) -> "GroupElement":
        return cls(rank, class_bound, {})

    @classmethod
    def generator(cls, rank: int, class_bound: int, i: int) -> "GroupElement":
        return cls(rank, class_bound, {LyndonBasisElement((i,)): 1})

    @classmethod
    def from_exponents(cls, rank: int, class_bound: int, exps: dict) -> "GroupElement":
        return cls(rank, class_bound, basis_terms(exps))

    def is_identity(self) -> bool:
        return not self.exponents

    def _check(self, other: "GroupElement"):
        if (self.rank, self.class_bound) != (other.rank, other.class_bound):
            raise ValueError("rank/class mismatch")

    def __hash__(self) -> int:
        return hash((self.rank, self.class_bound, frozenset(self.exponents.items())))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __repr__(self) -> str:
        if self.rank <= len(_LETTERS):
            body = element_to_text(self)
        else:
            body = repr(_factors(self))
        return f"GroupElement({self.rank}, {self.class_bound}, {body!r})"


def magnus_embed(g: GroupElement) -> TruncatedSeries:
    """Product, in basis order, of each basic commutator's series to its exponent;
    the factors of degree > c/2 are summed as the linear tail 1 + sum e_b (B_b - 1)."""
    if g._series:
        return g._series[0]
    r, c = g.rank, g.class_bound
    acc = {(): 1}
    tail = {}
    for word, e in _factors(g):
        basic = _basic_series(r, c, word)
        if 2 * len(word) > c:
            add_scaled(tail, e, basic)
        else:
            acc = unit_mul(acc, poly_unit_pow(basic, e, c), c)
    tail[()] = 1  # the sum of e_b B_b with its constant term set to 1
    result = TruncatedSeries(r, c, unit_mul(acc, tail, c))
    g._series.append(result)
    return result


@lru_cache(maxsize=None)
def _envelope_table(r: int, c: int, n: int) -> tuple:
    """The degree-n envelopes on the Lyndon words, by position in P(r, c): for
    each basis element b of degree n, in increasing order, b, the position of
    b.word and the pairs (position of v, coefficient of v in env(b)) for the
    Lyndon words v > b.word of degree n.  The envelope of a Lyndon word is
    the word plus larger words, so the system is unitriangular."""
    position = lyndon_factor_positions(r, c).position
    basis = lyndon_basis(r, n)
    lyndon = {b.word for b in basis}
    table = []
    for b in basis:
        env = envelope_polynomial(b.word)
        later = tuple((position[v], x) for v, x in env.items() if v in lyndon and v != b.word)
        table.append((b, position[b.word], later))
    return tuple(table)


@lru_cache(maxsize=None)
def _tail_basis(r: int, c: int) -> tuple:
    """The basis elements of degree > c/2, in basis order, each with the
    position of its word in P(r, c)."""
    position = lyndon_factor_positions(r, c).position
    return tuple(
        (b, position[b.word]) for n in range(c // 2 + 1, c + 1) for b in lyndon_basis(r, n)
    )


def _peel(r: int, c: int, coeffs: dict) -> dict:
    """Exponent dict of a group element from its Magnus series read on P(r, c)
    and keyed by position (words.lyndon_factor_positions), or raise
    NotAGroupElement; a series keyed by word has no constant term there.

    P is the empty word and every factor of a Lyndon word of length <= c.
    Reads only Lyndon-word coefficients of the residual t, a copy of coeffs.
    Degree n <= c/2: the degree-n Lie part of t has the coordinates that
    forward substitution over the degree-n envelope table finds in them;
    then (B_1^e_1 ... B_k^e_k)^-1 t = B_k^-e_k ... B_1^-e_1 t, one left
    factor at a time, each exact on P.  Degrees > c/2: these factors
    multiply by addition, so what is left is 1 + sum e_b (B_b - 1), and
    B_b - 1 is b plus words later in basis order: each e_b is t's coefficient
    on b once the earlier e(B - 1) are subtracted.  The residual must then be
    exactly 1 on P.  That check catches a fault at any word of P in a series
    computed from group elements, but cannot decide whether a series lies in
    the image; magnus_peel decides it by re-embedding the result.
    """
    if coeffs.get(0) != 1:
        raise NotAGroupElement("constant term is not 1")
    prefix_splits = lyndon_factor_positions(r, c).prefix_splits
    t = dict(coeffs)
    exps: dict = {}
    for n in range(1, c // 2 + 1):
        coords = []
        taken: dict = {}
        for b, i, later in _envelope_table(r, c, n):
            e = t.get(i, 0) - taken.get(i, 0)
            if e:
                coords.append((b, e))
                for v, x in later:
                    taken[v] = taken.get(v, 0) + e * x
        for b, e in coords:
            exps[b] = e
            t = left_mul_by(_basic_power(r, c, b.word, -e), t, prefix_splits, dict(t))
    for b, i in _tail_basis(r, c):
        e = t.get(i)
        if e:
            exps[b] = e
            add_scaled(t, -e, _basic_powers(r, c, b.word)[0])
    if t != {0: 1}:
        raise NotAGroupElement("nonzero residual after peeling all degrees")
    return exps


def magnus_peel(s: TruncatedSeries) -> GroupElement:
    """Inverse of magnus_embed on its image; errors on anything else.

    Peels s read on P(r, c) by position, then re-embeds the only candidate
    preimage: s is in the image exactly when that embedding is s.
    """
    r, c = s.rank, s.class_bound
    position = lyndon_factor_positions(r, c).position
    on_p = {position[w]: x for w, x in s.coefficients.items() if w in position}
    g = GroupElement(r, c, _peel(r, c, on_p))
    if magnus_embed(g).coefficients != s.coefficients:
        raise NotAGroupElement("the series differs from the embedding of its peel")
    return g


def _factors(g: GroupElement) -> list:
    """The collected form of g as (word, exponent) factors in basis order: by degree, then word."""
    return [f[1:] for f in sorted([(len(b.word), b.word, e) for b, e in g.exponents.items()])]


def _inverse_factors(g: GroupElement) -> list:
    return [(word, -e) for word, e in reversed(_factors(g))]


def _product_on_support(r: int, c: int, factors: list) -> dict:
    """The Magnus series of the product of basic powers B_word^e, read on P(r, c)
    by position.

    One left product at a time, from the last factor to the first, each a
    walk over the words of B^e on P (series.left_mul_by), and each exact on P.
    A run of consecutive factors of degree > c/2 is one linear step: their
    product is 1 + L with L = sum e (B - 1), and t += L t.  L has degree
    > c/2, so L t reads t only below degree c - c//2 and writes it only
    above c//2: the step adds into t in place.
    """
    prefix_splits = lyndon_factor_positions(r, c).prefix_splits
    t = {0: 1}
    for linear, run in groupby(reversed(factors), key=lambda f: 2 * len(f[0]) > c):
        if linear:
            p: dict = {}
            for word, e in run:
                add_scaled(p, e, _basic_powers(r, c, word)[0])
            left_mul_by(p, t, prefix_splits, t)
        else:
            for word, e in run:
                t = left_mul_by(_basic_power(r, c, word, e), t, prefix_splits, dict(t))
    return t


def _collected(r: int, c: int, factors: list) -> GroupElement:
    """The product of the factors in collected form, peeled on P(r, c); a product
    that reads 1 on P is the identity and needs no peel."""
    t = _product_on_support(r, c, factors)
    if len(t) == 1:
        return GroupElement.identity(r, c)
    return GroupElement(r, c, _peel(r, c, t))


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    g._check(h)
    return _collected(g.rank, g.class_bound, _factors(g) + _factors(h))


def inv(g: GroupElement) -> GroupElement:
    return _collected(g.rank, g.class_bound, _inverse_factors(g))


def comm(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group commutator g^-1 h^-1 g h."""
    g._check(h)
    factors = _inverse_factors(g) + _inverse_factors(h) + _factors(g) + _factors(h)
    return _collected(g.rank, g.class_bound, factors)


def truncate(g: GroupElement, new_class: int) -> GroupElement:
    """Image under the quotient to class new_class (drops higher-degree exponents)."""
    if not 1 <= new_class <= g.class_bound:
        raise ValueError("truncation class must satisfy 1 <= c' <= class_bound")
    exps = {b: e for b, e in g.exponents.items() if b.degree <= new_class}
    return GroupElement(g.rank, new_class, exps)


def lcs_degree(g: GroupElement):
    """Largest n with g in the n-th lower central subgroup; math.inf for the identity."""
    if g.is_identity():
        return math.inf
    return min(b.degree for b in g.exponents)


def leading_lie_part(g: GroupElement) -> LieElement:
    """Class of g in the graded layer of its lower-central-series degree."""
    n = lcs_degree(g)
    if n is math.inf:
        raise ValueError("the identity has no leading layer")
    terms = {b: e for b, e in g.exponents.items() if b.degree == n}
    return LieElement(g.rank, g.class_bound, terms)


def center_test(g: GroupElement) -> bool:
    """True iff g commutes with every generator."""
    for i in range(1, g.rank + 1):
        if not comm(g, GroupElement.generator(g.rank, g.class_bound, i)).is_identity():
            return False
    return True


def h1_rank(r: int, c: int) -> int:
    """First integral homology: the abelianization is free of rank r."""
    if r < 1 or c < 1:
        raise ValueError("need r >= 1 and c >= 1")
    return r


def h2_rank(r: int, c: int) -> int:
    """Second integral homology: free of the Witt rank in degree c + 1."""
    if r < 1 or c < 1:
        raise ValueError("need r >= 1 and c >= 1")
    return witt_rank(r, c + 1)


# --- text and JSON encodings -------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Longest integer, in decimal digits, that text input may write.  The CLI lifts
# Python's own limit on int <-> str conversion (4300 digits by default since
# 3.11 and 3.10.7) so that exact results of any size print, and bounds input
# here instead.
MAX_INPUT_DIGITS = 4300


def read_int(text: str):
    """The integer text writes as an optional sign and ASCII digits, whitespace
    around, else None (int() also reads '_' and non-ASCII digits); a ValueError
    past MAX_INPUT_DIGITS digits."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        return None
    if len(text.lstrip("+-")) > MAX_INPUT_DIGITS:
        raise ValueError(f"integer input has more than {MAX_INPUT_DIGITS} digits")
    return int(text)


def _word_to_text(word: tuple) -> str:
    if max(word) > len(_LETTERS):
        raise ValueError("text encoding supports rank <= 26")
    return "".join(_LETTERS[x - 1] for x in word)


def _parse_word(text: str, rank: int, class_bound: int) -> LyndonBasisElement:
    """The basis element written as text, checked against the rank and class bound."""
    if not text or any(ch not in _LETTERS for ch in text):
        raise ValueError(f"bad word {text!r}")
    word = tuple(_LETTERS.index(ch) + 1 for ch in text)
    if any(x > rank for x in word):
        raise ValueError(f"letter out of range for rank {rank} in {text!r}")
    if len(word) > class_bound:
        raise ValueError(f"word {text!r} is longer than the class bound")
    try:
        return LyndonBasisElement(word)
    except ValueError:
        raise ValueError(f"{text!r} is not a Lyndon word") from None


def element_to_text(g: GroupElement) -> str:
    """Collected form like 'a^2 * b^-1 * [ab]^3'; the identity prints as '1'."""
    if g.rank > len(_LETTERS):
        raise ValueError("text encoding supports rank <= 26")
    parts = []
    for word, e in _factors(g):
        atom = _word_to_text(word) if len(word) == 1 else f"[{_word_to_text(word)}]"
        parts.append(atom if e == 1 else f"{atom}^{e}")
    return " * ".join(parts) if parts else "1"


def parse_element(text: str, rank: int, class_bound: int) -> GroupElement:
    """The product of the written factors, in the order written, in collected form.

    Whitespace-insensitive; '1' is the identity.  Collected input reads as
    written, and out-of-order or repeated factors give their product:
    'b * a' is a * b * [ab]^-1.
    """
    compact = "".join(text.split())
    if compact in ("", "1"):
        return GroupElement.identity(rank, class_bound)
    factors = []
    for token in compact.split("*"):
        if not token:
            raise ValueError("empty factor in element expression")
        if "^" in token:
            atom, _, power = token.partition("^")
            e = read_int(power)
            if e is None:
                raise ValueError(f"bad exponent in {token!r}")
        else:
            atom, e = token, 1
        if atom.startswith("[") and atom.endswith("]"):
            atom = atom[1:-1]
        b = _parse_word(atom, rank, class_bound)
        factors.append((b.word, e))
    return _collected(rank, class_bound, factors)


def element_to_json(g: GroupElement) -> dict:
    exponents = [[_word_to_text(word), e] for word, e in _factors(g)]
    return {"rank": g.rank, "class": g.class_bound, "exponents": exponents}


def _json_fields(obj, what: str, items: str) -> tuple:
    """(rank, class, obj[items]) of an exported object; ValueError on any other shape."""
    if not (
        isinstance(obj, dict)
        and all(type(obj.get(key)) is int for key in ("rank", "class"))
        and isinstance(obj.get(items), list)
    ):
        raise ValueError(
            f"{what} JSON must be an object with integer rank and class and a list of {items}"
        )
    return obj["rank"], obj["class"], obj[items]


def element_from_json(obj: dict) -> GroupElement:
    rank, class_bound, entries = _json_fields(obj, "element", "exponents")
    exps: dict = {}
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and type(entry[1]) is int
        ):
            raise ValueError(f"exponent entry {entry!r} is not a [word, integer] pair")
        b = _parse_word(entry[0], rank, class_bound)
        if b in exps:
            raise ValueError(f"word {entry[0]!r} appears twice in the exponents")
        exps[b] = entry[1]
    return GroupElement.from_exponents(rank, class_bound, exps)

"""Truncated noncommutative power series over the integers.

Series live in Z<<X_1..X_r>> modulo words of length > class_bound and are
stored sparsely as word-tuple -> nonzero coefficient.  The empty tuple is the
constant term.  These series carry the Magnus embedding of the free nilpotent
groups and the associative envelope of the free Lie ring.

A series read on P(r, c), the word set of group arithmetic, is keyed by
position in words.lyndon_factor_positions instead: left_mul_on, left_mul_by
and poly_substitute with a support walk those keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import check_terms


def add_scaled(t: dict, s: int, a: dict) -> None:
    """t += s * a, in place."""
    for w, x in a.items():
        v = t.get(w, 0) + s * x
        if v:
            t[w] = v
        else:
            t.pop(w, None)


def poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    add_scaled(out, -1, b)
    return out


def _by_degree(a: dict, max_deg: int) -> list:
    """The terms of a of degree <= max_deg, bucketed as (degree, [(word, coeff), ...])."""
    buckets: dict = {}
    for w, c in a.items():
        d = len(w)
        if d <= max_deg:
            buckets.setdefault(d, []).append((w, c))
    return list(buckets.items())


def _mul_buckets(a_deg: list, b_deg: list, max_deg: int, out: dict) -> dict:
    """out += the product of two bucketed polynomials, truncated at max_deg."""
    # the pair loop never revisits out-of-range terms
    get = out.get
    for da, terms_a in a_deg:
        room = max_deg - da
        for db, terms_b in b_deg:
            if db > room:
                continue
            for w1, c1 in terms_a:
                for w2, c2 in terms_b:
                    w = w1 + w2
                    s = get(w, 0) + c1 * c2
                    if s:
                        out[w] = s
                    else:
                        del out[w]
    return out


def poly_mul(a: dict, b: dict, max_deg: int) -> dict:
    return _mul_buckets(_by_degree(a, max_deg), _by_degree(b, max_deg), max_deg, {})


def _low_degree(a: dict, max_deg: int) -> int:
    """Least degree of a nonconstant term of a; max_deg + 1 if there is none."""
    return min(map(len, filter(None, a)), default=max_deg + 1)


def unit_mul(a: dict, b: dict, max_deg: int) -> dict:
    """(1 + a')(1 + b') = 1 + a' + b' + a'b' for truncated series with constant term 1.

    Copies the larger operand, adds the smaller one in place, and multiplies
    out only the terms that can pair under truncation: those of a' of degree
    <= max_deg - (least degree of b'), and likewise for b'.
    """
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    out = dict(big)
    add_scaled(out, 1, small)
    out[()] = 1
    a_deg = _by_degree(a, max_deg - _low_degree(b, max_deg))
    b_deg = _by_degree(b, max_deg - _low_degree(a, max_deg))
    return _mul_buckets([x for x in a_deg if x[0]], [x for x in b_deg if x[0]], max_deg, out)


def left_mul_on(p: dict, t: dict, splits: tuple, out: dict) -> dict:
    """out += (p - p[0]) t read on P(r, c), in place; position 0 is ().

    p, t and out are keyed by position in P, and splits is P's table by the
    right part (words.FactorTable.splits): each v with the pairs (u, uv), u
    nonempty, that lie in P.  t must be supported on P; p is read only at the
    nonempty words of P.
    """
    get, p_get = out.get, p.get
    for v, cv in t.items():
        for u, x in splits[v]:
            cu = p_get(u)
            if cu:
                s = get(x, 0) + cu * cv
                if s:
                    out[x] = s
                else:
                    del out[x]
    return out


def left_mul_by(p: dict, t: dict, prefix_splits: tuple, out: dict) -> dict:
    """out += (p - p[0]) t read on P(r, c), in place; position 0 is ().

    The walk of left_mul_on turned around, for a left factor sparser than t:
    prefix_splits (words.FactorTable.prefix_splits) maps each position u in
    P to the pairs (v, uv) with uv in P, none for u = ().  p, t and out are
    keyed by position, and t must be exact on P.
    """
    get, t_get = out.get, t.get
    for u, cu in p.items():
        for v, x in prefix_splits[u]:
            cv = t_get(v)
            if cv:
                s = get(x, 0) + cu * cv
                if s:
                    out[x] = s
                else:
                    del out[x]
    return out


def poly_substitute(polys, letter_images, max_deg: int, support: tuple | None = None) -> list:
    """Ring substitution X_i -> letter_images[i - 1] of each of polys, truncated at max_deg.

    Each word's image is the image of its first letter times the image of
    the rest.  One suffix table serves every polynomial, so words sharing a
    suffix, in one polynomial or across them, share that product.

    With support, P(r, c) (words.lyndon_factor_positions), every image is
    kept on P only: a left product read on P reads its right factor on P
    alone, so the results are exact on P.  The letter images are then read
    only at the nonempty words of P, and are given on P keyed by position,
    as are the results; polys stay keyed by word.
    """
    if support is None:
        letters = [_by_degree(image, max_deg) for image in letter_images]
        tail_buckets: dict = {}
        one = ()

        def times_letter(i: int, tail: tuple, image: dict) -> dict:
            buckets = tail_buckets.get(tail)
            if buckets is None:
                buckets = tail_buckets[tail] = _by_degree(image, max_deg)
            return _mul_buckets(letters[i - 1], buckets, max_deg, {})

        def added_up(poly: dict) -> dict:
            out: dict = {}
            for word, coeff in poly.items():
                add_scaled(out, coeff, substituted(word))
            return out

    else:
        splits = support.splits
        one = 0

        def times_letter(i: int, tail: tuple, image: dict) -> dict:
            return left_mul_on(letter_images[i - 1], image, splits, {})

        def added_up(poly: dict) -> dict:
            acc = [0] * len(splits)
            for word, coeff in poly.items():
                for i, x in substituted(word).items():
                    acc[i] += coeff * x
            return {i: x for i, x in enumerate(acc) if x}

    suffix_cache: dict = {(): {one: 1}}

    def substituted(word: tuple) -> dict:
        cached = suffix_cache.get(word)
        if cached is None:
            tail = word[1:]
            cached = suffix_cache[word] = times_letter(word[0], tail, substituted(tail))
        return cached

    images = [added_up(poly) for poly in polys]
    # substituted refers to itself, a cycle that only the garbage collector
    # frees: empty the cache now so the word images go with this call
    suffix_cache.clear()
    return images


def poly_unit_inverse(a: dict, max_deg: int) -> dict:
    """Inverse of a series with constant term 1: its power at e = -1."""
    return poly_unit_pow(a, -1, max_deg)


def poly_unit_pow(a: dict, e: int, max_deg: int) -> dict:
    """Integer power of a = 1 + N by the binomial series sum_k C(e, k) N^k.

    C(e, k) = C(e, k-1) * (e-k+1) / k is an exact integer for every integer e,
    so one series serves every sign; it ends once C(e, k) = 0 (0 <= e < k) or
    N^k is truncated away.
    """
    if a.get((), 0) != 1:
        raise ValueError("series power needs constant term 1")
    n_deg = [x for x in _by_degree(a, max_deg) if x[0]]
    room = max_deg - _low_degree(a, max_deg)
    out = {(): 1}
    term = {(): 1}
    binom = 1
    for k in range(1, max_deg + 1):
        binom = binom * (e - k + 1) // k
        if not binom:
            break
        # only the terms of N^(k-1) of degree <= room can pair with N
        term = _mul_buckets(_by_degree(term, room), n_deg, max_deg, {})
        if not term:
            break
        add_scaled(out, binom, term)
    return out


def poly_group_commutator(a: dict, b: dict, max_deg: int) -> dict:
    """a^-1 b^-1 a b for unit series."""
    ai = poly_unit_inverse(a, max_deg)
    bi = poly_unit_inverse(b, max_deg)
    return poly_mul(poly_mul(poly_mul(ai, bi, max_deg), a, max_deg), b, max_deg)


def unit_commutator(a: dict, b: dict, max_deg: int) -> dict:
    """a^-1 b^-1 a b = 1 + (b a)^-1 (A B - B A) for unit series a = 1 + A, b = 1 + B.

    A B - B A has least degree lo >= (least degree of A) + (least degree of
    B), so (b a)^-1 = a^-1 b^-1 is needed only up to degree max_deg - lo;
    for lo = max_deg the result is 1 + A B - B A.  Only the terms of A and B
    that can pair under truncation enter A B and B A, as in unit_mul.
    """
    a_deg = [x for x in _by_degree(a, max_deg - _low_degree(b, max_deg)) if x[0]]
    b_deg = [x for x in _by_degree(b, max_deg - _low_degree(a, max_deg)) if x[0]]
    diff = _mul_buckets(a_deg, b_deg, max_deg, {})
    _mul_buckets(b_deg, [(d, [(w, -x) for w, x in terms]) for d, terms in a_deg], max_deg, diff)
    room = max_deg - _low_degree(diff, max_deg)
    if room > 0:
        inverse = unit_mul(poly_unit_pow(a, -1, room), poly_unit_pow(b, -1, room), room)
        diff = _mul_buckets(_by_degree(inverse, room), _by_degree(diff, max_deg), max_deg, {})
    diff[()] = 1
    return diff


@dataclass(frozen=True)
class TruncatedSeries:
    """A truncated series tagged with its rank and degree cutoff."""

    rank: int
    class_bound: int
    coefficients: dict

    def __post_init__(self):
        coeffs = self.coefficients
        check_terms(self.rank, self.class_bound, coeffs, coeffs.values(), "coefficient")

    @classmethod
    def one(cls, rank: int, class_bound: int) -> "TruncatedSeries":
        return cls(rank, class_bound, {(): 1})

"""Lyndon words on the alphabet {1..r} and the rank bookkeeping built on them.

A Lyndon word is strictly smaller than every proper rotation of itself.  The
standard factorization w = u.v (v the lexicographically smallest, equivalently
the longest Lyndon, proper suffix) turns each word into a binary bracket tree;
these trees index the monomial basis used everywhere else in the package.
Basis order is by degree, then lexicographic on words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def witt_rank(r: int, n: int) -> int:
    """Rank of the degree-n layer of the free Lie ring on r generators."""
    if r < 1 or n < 1:
        raise ValueError("witt_rank needs r >= 1 and n >= 1")
    total = sum(mobius(d) * r ** (n // d) for d in divisors(n))
    if total % n != 0:
        raise AssertionError(f"Witt sum {total} not divisible by {n}")
    return total // n


def is_lyndon(word) -> bool:
    """True iff word is strictly smaller than all of its proper rotations."""
    n = len(word)
    if n == 0:
        return False
    for i in range(1, n):
        if word[i:] + word[:i] <= word:
            return False
    return True


def lyndon_words(r: int, n: int) -> list[tuple]:
    """All Lyndon words of length exactly n over {1..r}, lexicographic (Duval)."""
    if r < 1 or n < 1:
        raise ValueError("lyndon_words needs r >= 1 and n >= 1")
    out = []
    w = [0]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append(tuple(w))
        # extend periodically to length n
        while len(w) < n:
            w.append(w[-m])
        # chop trailing maximal letters
        while w and w[-1] == r:
            w.pop()
    return out


@lru_cache(maxsize=None)
def lyndon_factors(r: int, c: int) -> frozenset:
    """P(r, c), the empty word and every factor of a Lyndon word of length <= c.

    P is closed under taking prefixes and suffixes, so a left product p.t read
    on P is exact there and needs only p and t on P: (p t)[x] is the sum over
    x = u v of p[u] t[v], and u and v are factors of x.
    """
    words = {()}
    for n in range(1, c + 1):
        for w in lyndon_words(r, n):
            words.update(w[i:j] for i in range(n) for j in range(i + 1, n + 1))
    return frozenset(words)


@lru_cache(maxsize=None)
def lyndon_prefix_splits(r: int, c: int) -> dict:
    """P(r, c) as a table by the left part: each nonempty u in P maps to the
    pairs (v, uv) with uv in P, the table of a walk over the left factor of p.t."""
    splits: dict = {}
    for x in lyndon_factors(r, c):
        for k in range(1, len(x) + 1):
            splits.setdefault(x[:k], []).append((x[k:], x))
    return {u: tuple(pairs) for u, pairs in splits.items()}


@lru_cache(maxsize=None)
def lyndon_factor_splits(r: int, c: int) -> dict:
    """P(r, c) as a table by the right part: each v in P maps to the pairs
    (u, uv) with u nonempty and uv in P, the table of a walk over the right
    factor of p.t."""
    splits: dict = {v: [] for v in lyndon_factors(r, c)}
    for x in splits:
        for k in range(1, len(x) + 1):
            splits[x[k:]].append((x[:k], x))
    return {v: tuple(pairs) for v, pairs in splits.items()}


def standard_factorization(word: tuple) -> tuple[tuple, tuple]:
    """Split word = u.v with v the lexicographically smallest proper suffix."""
    if len(word) < 2:
        raise ValueError("only words of length >= 2 factorize")
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


@lru_cache(maxsize=None)
def bracketing(word: tuple):
    """Binary tree of the standard factorization: a letter, or a (left, right) pair."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (bracketing(u), bracketing(v))


@total_ordering
@dataclass(frozen=True)
class LyndonBasisElement:
    """A Lyndon word together with its standard bracketing."""

    word: tuple

    def __post_init__(self):
        if not is_lyndon(self.word):
            raise ValueError(f"{self.word} is not a Lyndon word")

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def tree(self):
        return bracketing(self.word)

    def sort_key(self) -> tuple:
        return (len(self.word), self.word)

    def __lt__(self, other) -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"LyndonBasisElement({''.join(map(str, self.word))})"


def basis_terms(terms: dict) -> dict:
    """terms keyed by basis element, each key given as one or as its word;
    integer zeros are dropped and every other value is kept for check_terms."""
    return {
        key if isinstance(key, LyndonBasisElement) else LyndonBasisElement(tuple(key)): x
        for key, x in terms.items()
        if x or type(x) is not int
    }


def check_terms(rank: int, class_bound: int, words, values, what: str) -> None:
    """Refuse terms unless each value is a nonzero int and each word (a tuple)
    has length <= class_bound over the letters 1..rank; `what` names a value."""
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what}s must be integers")
    if 0 in values:
        raise ValueError(f"zero {what} stored")
    if max(map(len, words), default=0) > class_bound:
        raise ValueError("degree beyond class bound")
    letters = set().union(*words)
    if letters and not (1 <= min(letters) and max(letters) <= rank):
        raise ValueError("letter out of range")


@lru_cache(maxsize=None)
def lyndon_basis(r: int, n: int) -> tuple:
    """Degree-n basis elements over {1..r}, in lexicographic order."""
    return tuple(LyndonBasisElement(w) for w in lyndon_words(r, n))


@lru_cache(maxsize=None)
def graded_basis(r: int, c: int) -> tuple:
    """All basis elements of degree <= c, in (degree, word) order."""
    out = []
    for n in range(1, c + 1):
        out.extend(lyndon_basis(r, n))
    return tuple(out)

"""Number-theoretic and word-combinatorial layers, checked against brute force."""

import pytest

from nilstab.words import (
    LyndonBasisElement,
    divisors,
    graded_basis,
    is_lyndon,
    lyndon_basis,
    lyndon_factor_positions,
    lyndon_words,
    mobius,
    standard_factorization,
    witt_rank,
)


def mobius_oracle(n):
    """Independent Moebius via full trial factorization."""
    factors = []
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def brute_force_lyndon(r, n):
    """All rotation-minimal words of length n, by direct enumeration."""
    from itertools import product

    out = []
    for w in product(range(1, r + 1), repeat=n):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


def test_mobius_small_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_against_factorization_oracle():
    for n in range(1, 200):
        assert mobius(n) == mobius_oracle(n)


def test_mobius_divisor_sums_vanish():
    for n in range(2, 200):
        assert sum(mobius(d) for d in divisors(n)) == 0
    assert sum(mobius(d) for d in divisors(1)) == 1


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_witt_rank_values():
    assert [witt_rank(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert witt_rank(3, 2) == 3
    assert witt_rank(3, 3) == 8
    for r in range(1, 6):
        assert witt_rank(r, 1) == r


def test_witt_necklace_identity():
    # sum over divisors of d * witt(r, d) recovers r^n
    for r in range(1, 6):
        for n in range(1, 9):
            assert sum(d * witt_rank(r, d) for d in divisors(n)) == r**n


def test_witt_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        witt_rank(0, 1)
    with pytest.raises(ValueError):
        witt_rank(1, 0)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lyndon_words_against_brute_force(r, n):
    words = lyndon_words(r, n)
    assert words == brute_force_lyndon(r, n)
    assert words == sorted(words)
    assert len(words) == witt_rank(r, n)


def test_lyndon_examples():
    assert lyndon_words(2, 1) == [(1,), (2,)]
    assert lyndon_words(2, 2) == [(1, 2)]
    assert lyndon_words(2, 4) == [(1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]


def test_standard_factorization_is_smallest_suffix():
    for r in (2, 3):
        for n in range(2, 7):
            for w in lyndon_words(r, n):
                u, v = standard_factorization(w)
                assert u + v == w
                assert is_lyndon(u) and is_lyndon(v)
                assert u < v
                # v is the longest proper Lyndon suffix
                longer = [w[i:] for i in range(1, len(w) - len(v)) if is_lyndon(w[i:])]
                assert not longer


def test_bracketing_leaf_count():
    def leaves(tree):
        if isinstance(tree, int):
            return 1
        return leaves(tree[0]) + leaves(tree[1])

    for b in graded_basis(3, 5):
        assert leaves(b.tree) == b.degree


def test_basis_element_rejects_non_lyndon():
    with pytest.raises(ValueError):
        LyndonBasisElement((2, 1))
    with pytest.raises(ValueError):
        LyndonBasisElement((1, 1))


def test_basis_order_is_degree_then_lex():
    basis = graded_basis(2, 3)
    keys = [b.sort_key() for b in basis]
    assert keys == sorted(keys)
    assert [b.word for b in lyndon_basis(2, 3)] == [(1, 1, 2), (1, 2, 2)]


@pytest.mark.parametrize(
    "r, c", [(1, 4), (2, 1), (2, 4), (3, 4), (2, 6), (3, 5), (4, 4), (3, 6), (2, 8), (4, 5)]
)
def test_lyndon_suffix_splits_against_brute_force(r, c):
    # P's table by the right part: each v in P lists every (u, uv) with u
    # nonempty and uv in P; P holds every prefix and suffix of its words
    from itertools import product

    words = [w for n in range(1, c + 1) for w in product(range(1, r + 1), repeat=n)]
    lyndon = [w for w in words if is_lyndon(w)]
    support = {()} | {w[i:j] for w in lyndon for j in range(len(w) + 1) for i in range(j)}
    table = lyndon_factor_positions(r, c)
    splits = {
        table.words[v]: [(table.words[u], table.words[x]) for u, x in pairs]
        for v, pairs in enumerate(table.splits)
    }
    assert set(splits) == support
    assert all(x[:k] in support and x[k:] in support for x in support for k in range(len(x)))
    for v, pairs in splits.items():
        expected = [
            (x[: len(x) - len(v)], x)
            for x in support
            if len(x) > len(v) and x[len(x) - len(v):] == v
        ]
        assert sorted(pairs) == sorted(expected)


@pytest.mark.parametrize("r, c", [(1, 4), (2, 1), (2, 5), (3, 4), (3, 6), (2, 8), (4, 5)])
def test_lyndon_prefix_splits_hold_the_suffix_table_triples(r, c):
    # the same (u, v, uv) triples as P's table by the right part, keyed by the
    # left part u, which is never empty: every nonempty word has pairs, () none
    table = lyndon_factor_positions(r, c)
    by_suffix = sorted((u, v, x) for v, pairs in enumerate(table.splits) for u, x in pairs)
    by_prefix = sorted((u, v, x) for u, pairs in enumerate(table.prefix_splits) for v, x in pairs)
    assert by_prefix == by_suffix
    assert len(table.prefix_splits) == len(table.words)
    assert [bool(pairs) for pairs in table.prefix_splits] == [bool(w) for w in table.words]


@pytest.mark.parametrize("r, c", [(1, 4), (2, 1), (3, 4), (3, 6), (2, 8)])
def test_lyndon_factor_positions_index_the_suffix_table(r, c):
    # words in (length, word) order with () at 0, position its inverse, and one
    # entry of each walk table per word
    words, position, splits, prefix_splits = lyndon_factor_positions(r, c)
    assert list(words) == sorted(words, key=lambda w: (len(w), w)) and words[0] == ()
    assert len(set(words)) == len(words) == len(position)
    assert all(words[i] == w for w, i in position.items())
    assert len(splits) == len(prefix_splits) == len(words)
    for v, pairs in enumerate(splits):
        assert all(words[x] == words[u] + words[v] for u, x in pairs)


@pytest.mark.parametrize(
    "r, c, count", [(3, 4, 46), (4, 4, 124), (3, 5, 130), (3, 6, 340), (2, 8, 162), (4, 5, 448)]
)
def test_lyndon_factors_against_brute_force(r, c, count):
    # P: the empty word and every factor of a Lyndon word of length <= c
    lyndon = [w for n in range(1, c + 1) for w in brute_force_lyndon(r, n)]
    factors = {w[i:j] for w in lyndon for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    words = lyndon_factor_positions(r, c).words
    assert set(words) == {()} | factors
    assert len(words) - 1 == count

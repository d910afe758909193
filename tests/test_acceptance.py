"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success; failures surface as assertions.
Runtime budgets are asserted where the criterion states one.
"""

import random
import time

from nilstab.autos import (
    Endo,
    abelianization_matrix,
    compose,
    conjugate,
    endo_from_matrix,
    flat,
    hom_gl_action,
    lift,
    project,
    sharp,
)
from nilstab.group import GroupElement, center_test, h1_rank, h2_rank, truncate
from nilstab.intlinalg import (
    FinAbPresentation,
    det,
    freeze,
    identity,
    matmul,
    snf,
)
from nilstab.lie import lie_bracket
from nilstab.modules import Const, DualStd, Ext, Hom, Std, Tensor, eval_module
from nilstab.stability import coinvariants, gl_generators, stability_scan
from nilstab.verify import (
    check_group_axioms,
    random_hom_map,
    random_lie_element,
    random_unimodular,
)
from nilstab.words import graded_basis, lyndon_words, witt_rank

FIXED_SEED = 20240601


def test_criterion_1_witt_tables():
    t0 = time.monotonic()
    for r in range(1, 6):
        for n in range(1, 7):
            assert witt_rank(r, n) == len(lyndon_words(r, n))
    assert [witt_rank(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert witt_rank(3, 2) == 3
    assert witt_rank(3, 3) == 8
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"witt tables took {elapsed:.2f}s"
    print(f"PASS criterion 1: witt tables vs enumeration ({elapsed:.2f}s)")


def test_criterion_2_group_law_suite():
    t0 = time.monotonic()
    rng = random.Random(FIXED_SEED)
    for r in range(2, 5):
        for c in range(1, 5):
            res = check_group_axioms(r, c, rng, trials=100)
            assert res.passed, f"({r},{c}): {res.detail}"
    for c in range(1, 5):  # rank 1 degenerates to the integers
        res = check_group_axioms(1, c, rng, trials=100)
        assert res.passed, f"(1,{c}): {res.detail}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"group-law suite took {elapsed:.2f}s"
    print(f"PASS criterion 2: group law suite, 100 triples per (r,c) ({elapsed:.2f}s)")


def test_criterion_3_low_degree_homology():
    for r in range(1, 5):
        for c in range(1, 5):
            assert h1_rank(r, c) == r
            assert h2_rank(r, c) == witt_rank(r, c + 1)
            if c < 2:
                continue
            kernel_basis = []
            for b in graded_basis(r, c):
                g = GroupElement(r, c, {b: 1})
                in_kernel = truncate(g, c - 1).is_identity()
                assert in_kernel == (b.degree == c)
                if in_kernel:
                    kernel_basis.append(b)
                if r >= 2:
                    # the center is exactly the kernel slice (rank 1 is abelian)
                    assert center_test(g) == (b.degree == c)
            assert len(kernel_basis) == witt_rank(r, c)
    print("PASS criterion 3: H_1, H_2, and the central kernel slice")


def _random_tower_automorphism(rng, r, c):
    """Composition of at most 5 elementary generators per class level."""
    mats = gl_generators(r)
    m = identity(r)
    for _ in range(rng.randint(1, 5)):
        m = matmul(m, rng.choice(mats))
    phi = endo_from_matrix(m, r, 1)
    for k in range(2, c + 1):
        phi = lift(phi)
        for _ in range(rng.randint(0, 5)):
            phi = compose(phi, sharp(random_hom_map(rng, r, k)))
    return phi


def test_criterion_4_extension_structure():
    rng = random.Random(FIXED_SEED + 1)
    for r in range(1, 4):
        for c in range(2, 5):
            assert len(random_hom_map(rng, r, c).matrix) * r == r * witt_rank(r, c)
            for _ in range(50):
                beta = random_hom_map(rng, r, c)
                assert flat(sharp(beta)) == beta
            for _ in range(50):
                alpha = compose(
                    sharp(random_hom_map(rng, r, c)), sharp(random_hom_map(rng, r, c))
                )
                assert project(alpha) == Endo.identity(r, c - 1)
                assert sharp(flat(alpha)) == alpha
            for _ in range(20):
                phi = _random_tower_automorphism(rng, r, c - 1)
                assert project(lift(phi)) == phi
    print("PASS criterion 4: flat/sharp inverse pair and lifting, r <= 3, c <= 4")


def test_criterion_5_conjugation_action():
    rng = random.Random(FIXED_SEED + 2)
    for r, c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(20):
            alpha = sharp(random_hom_map(rng, r, c))
            e = _random_tower_automorphism(rng, r, c)
            a = abelianization_matrix(e)
            assert flat(conjugate(e, alpha)) == hom_gl_action(a, flat(alpha))
        for _ in range(5):
            alpha = sharp(random_hom_map(rng, r, c))
            fixer = sharp(random_hom_map(rng, r, c))
            assert abelianization_matrix(fixer) == identity(r)
            assert flat(conjugate(fixer, alpha)) == flat(alpha)
    print("PASS criterion 5: kernel conjugation factors through the abelianized matrix")


def test_criterion_6_degree_zero_stability():
    t0 = time.monotonic()
    specs = [
        Const(1),
        Std(),
        DualStd(),
        Tensor(Std(), DualStd()),
        Hom(Std(), Ext(2, DualStd())),
    ]
    std_expected = [FinAbPresentation(0, (2,))] + [FinAbPresentation(0, ())] * 4
    for spec in specs:
        for c in (1, 2, 3):
            report = stability_scan(spec, c, range(1, 6))
            assert report.stabilized_from is not None, f"{spec} c={c} did not stabilize"
            assert report.stabilized_from <= 4, f"{spec} c={c} index {report.stabilized_from}"
            for entry in report.entries:
                if entry.r >= report.stabilized_from and entry.map_to_next_is_iso is not None:
                    assert entry.map_to_next_is_iso
            if isinstance(spec, Std):
                assert [e.presentation for e in report.entries] == std_expected
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"stability scans took {elapsed:.2f}s"
    print(f"PASS criterion 6: degree-0 stability scans ({elapsed:.2f}s)")


# --- criterion 7: property suites under a fixed seed and three random seeds ---


def _suite_jacobi(rng):
    for _ in range(10):
        x = random_lie_element(rng, 2, 4, support=4)
        y = random_lie_element(rng, 2, 4, support=4)
        z = random_lie_element(rng, 2, 4, support=4)
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()


def _suite_functoriality(rng):
    from nilstab.lie import lie_apply_matrix

    specs = [Std(), DualStd(), Tensor(Std(), DualStd()), Hom(Std(), Ext(2, DualStd()))]
    for _ in range(50):
        r = rng.choice((2, 3))
        a = random_unimodular(rng, r)
        b = random_unimodular(rng, r)
        spec = rng.choice(specs)
        m = eval_module(spec, r)
        assert m.matrix(matmul(a, b)) == matmul(m.matrix(a), m.matrix(b))
        x = random_lie_element(rng, r, 3, support=3)
        assert lie_apply_matrix(matmul(a, b), x) == lie_apply_matrix(
            a, lie_apply_matrix(b, x)
        )


def _suite_stab_equivariance(rng):
    specs = [Std(), DualStd(), Tensor(Std(), DualStd()), Hom(Std(), Ext(2, DualStd()))]

    def block(a):
        r = len(a)
        return tuple(tuple(row) + (0,) for row in a) + ((0,) * r + (1,),)

    for spec in specs:
        for r in (2, 3):
            m = eval_module(spec, r)
            m1 = eval_module(spec, r + 1)
            for _ in range(6):
                a = random_unimodular(rng, r)
                assert matmul(m1.matrix(block(a)), m.stab) == matmul(m.stab, m.matrix(a))


def _suite_snf(rng):
    for _ in range(15):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        a = freeze(
            [
                [rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
        res = snf(a)
        assert matmul(matmul(res.U, a), res.V) == res.D
        assert det(res.U) in (1, -1) and det(res.V) in (1, -1)
        diag = [res.D[i][i] for i in range(min(nrows, ncols))]
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert diag[: len(nonzero)] == nonzero
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0


def _suite_generating_sets(rng):
    for r in (2, 3, 4):
        primary = [eval_module(Std(), r).matrix(a) for a in gl_generators(r)]
        e12 = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        e12[0][1] = 1
        cycle = [[1 if j == (i + 1) % r else 0 for j in range(r)] for i in range(r)]
        swap = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        swap[0][0] = swap[1][1] = 0
        swap[0][1] = swap[1][0] = 1
        flip = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        flip[0][0] = -1
        alt = [freeze(m) for m in (e12, cycle, swap, flip)]
        assert coinvariants(primary, r) == coinvariants(alt, r)


def _seeded_criteria(rng):
    """Reduced-scale reruns of the seed-bearing criteria."""
    for r, c in [(2, 2), (3, 3), (4, 2), (2, 4)]:
        assert check_group_axioms(r, c, rng, trials=25).passed
    for r, c in [(2, 2), (3, 3), (2, 4)]:
        for _ in range(10):
            beta = random_hom_map(rng, r, c)
            assert flat(sharp(beta)) == beta
        for _ in range(5):
            phi = _random_tower_automorphism(rng, r, c - 1) if c > 1 else None
            if phi is not None:
                assert project(lift(phi)) == phi
    for _ in range(5):
        alpha = sharp(random_hom_map(rng, 2, 2))
        e = _random_tower_automorphism(rng, 2, 2)
        assert flat(conjugate(e, alpha)) == hom_gl_action(abelianization_matrix(e), flat(alpha))


def test_full_invariant_suite_at_top_desk_scale():
    # the CLI verify command's largest configuration stays green
    import nilstab.verify as verify_module

    t0 = time.monotonic()
    results = verify_module.run_suite(4, 4, seed=FIXED_SEED)
    failures = [res for res in results if not res.passed]
    assert not failures, failures
    elapsed = time.monotonic() - t0
    print(f"PASS invariant suite at (4,4): {len(results)} checks ({elapsed:.1f}s)")


def test_criterion_7_property_suites_across_seeds():
    entropy = random.SystemRandom()
    seeds = [FIXED_SEED] + [entropy.randrange(2**32) for _ in range(3)]
    print(f"criterion 7 seeds: {seeds}")
    for seed in seeds:
        rng = random.Random(seed)
        _suite_jacobi(rng)
        _suite_functoriality(rng)
        _suite_stab_equivariance(rng)
        _suite_snf(rng)
        _suite_generating_sets(rng)
        _seeded_criteria(rng)
    print(f"PASS criterion 7: property suites under seeds {seeds}")

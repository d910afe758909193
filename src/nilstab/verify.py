"""Seeded property suites over the core algebra, shared by the CLI and tests.

Every check returns a CheckResult; run_suite bundles the ones that make sense
at a given rank and class.  All randomness is drawn from one seeded Random so
identical configurations reproduce identical verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import intlinalg
from .autos import (
    Endo,
    HomMap,
    abelianization_matrix,
    apply_endo,
    compose,
    conjugate,
    endo_from_matrix,
    flat,
    hom_gl_action,
    invert,
    is_automorphism,
    lift,
    lift_to_class,
    project,
    sharp,
    stabilize,
)
from .group import (
    GroupElement,
    center_test,
    comm,
    h1_rank,
    h2_rank,
    inv,
    lcs_degree,
    magnus_embed,
    mul,
    truncate,
)
from .lie import LieElement, envelope_polynomial, lie_apply_matrix, lie_bracket
from .series import poly_mul
from .stability import gl_generators
from .words import graded_basis, lyndon_basis, lyndon_words, witt_rank


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_lie_element(rng: random.Random, r: int, c: int, support: int = 6) -> LieElement:
    basis = graded_basis(r, c)
    picks = rng.sample(basis, min(support, len(basis)))
    terms = {b: rng.choice([-3, -2, -1, 1, 2, 3]) for b in picks}
    return LieElement(r, c, terms)


def random_group_element(rng: random.Random, r: int, c: int, support: int = 8) -> GroupElement:
    basis = graded_basis(r, c)
    picks = rng.sample(basis, min(support, len(basis)))
    exps = {b: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for b in picks}
    return GroupElement(r, c, exps)


def random_unimodular(rng: random.Random, r: int, factors: int = 4):
    gens = gl_generators(r)
    m = intlinalg.identity(r)
    for _ in range(factors):
        m = intlinalg.matmul(m, rng.choice(gens))
    return m


def random_hom_map(rng: random.Random, r: int, c: int) -> HomMap:
    rows = witt_rank(r, c)
    matrix = tuple(
        tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rows)
    )
    return HomMap(r, c, matrix)


def random_automorphism(rng: random.Random, r: int, c: int, steps: int = 3) -> Endo:
    """Composition of lifted GL generators and kernel translations."""
    e = endo_from_matrix(random_unimodular(rng, r), r, c)
    for _ in range(steps):
        if c >= 2 and rng.random() < 0.5:
            k = rng.randint(2, c)
            e = compose(e, lift_to_class(sharp(random_hom_map(rng, r, k)), c))
        else:
            e = compose(e, endo_from_matrix(rng.choice(gl_generators(r)), r, c))
    return e


# --- individual checks --------------------------------------------------------


def check_witt_lyndon(r: int, c: int) -> CheckResult:
    for n in range(1, c + 2):
        if len(lyndon_words(r, n)) != witt_rank(r, n):
            return CheckResult("witt-lyndon-count", False, f"mismatch at degree {n}")
    return CheckResult("witt-lyndon-count", True)


def check_lie_antisymmetry(r: int, c: int, rng: random.Random, trials: int = 20) -> CheckResult:
    for _ in range(trials):
        x = random_lie_element(rng, r, c)
        y = random_lie_element(rng, r, c)
        if not (lie_bracket(x, y) + lie_bracket(y, x)).is_zero():
            return CheckResult("lie-antisymmetry", False, f"{x!r}, {y!r}")
        if not lie_bracket(x, x).is_zero():
            return CheckResult("lie-antisymmetry", False, f"[x,x] != 0 for {x!r}")
    return CheckResult("lie-antisymmetry", True)


def check_lie_jacobi(r: int, c: int, rng: random.Random, trials: int = 12) -> CheckResult:
    for _ in range(trials):
        x = random_lie_element(rng, r, c, support=4)
        y = random_lie_element(rng, r, c, support=4)
        z = random_lie_element(rng, r, c, support=4)
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        if not total.is_zero():
            return CheckResult("lie-jacobi", False, "Jacobi sum is nonzero")
    return CheckResult("lie-jacobi", True)


def check_lie_grading(r: int, c: int, rng: random.Random, trials: int = 12) -> CheckResult:
    for _ in range(trials):
        m = rng.randint(1, c)
        n = rng.randint(1, c)
        basis_m = lyndon_basis(r, m)
        basis_n = lyndon_basis(r, n)
        if not basis_m or not basis_n:
            continue  # rank 1 has no Lie layer above degree 1
        x = LieElement(r, c, {rng.choice(basis_m): rng.randint(1, 3)})
        y = LieElement(r, c, {rng.choice(basis_n): rng.randint(1, 3)})
        b = lie_bracket(x, y)
        if m + n > c:
            if not b.is_zero():
                return CheckResult("lie-grading", False, "truncation failed")
        elif not b.is_zero() and b.degrees() != {m + n}:
            return CheckResult("lie-grading", False, "bracket is not homogeneous")
    return CheckResult("lie-grading", True)


def check_envelope_unitriangular(r: int, c: int) -> CheckResult:
    """Expansion of a Lyndon monomial is its word plus larger anagrams."""
    for n in range(1, c + 1):
        for b in lyndon_basis(r, n):
            poly = envelope_polynomial(b.word)
            if poly.get(b.word) != 1:
                return CheckResult("lie-envelope-unitriangular", False, f"{b.word}")
            for w in poly:
                if w < b.word or tuple(sorted(w)) != tuple(sorted(b.word)):
                    return CheckResult("lie-envelope-unitriangular", False, f"{b.word} -> {w}")
    return CheckResult("lie-envelope-unitriangular", True)


def check_lie_functoriality(r: int, c: int, rng: random.Random, trials: int = 10) -> CheckResult:
    for _ in range(trials):
        a = random_unimodular(rng, r)
        b = random_unimodular(rng, r)
        x = random_lie_element(rng, r, c, support=4)
        lhs = lie_apply_matrix(intlinalg.matmul(a, b), x)
        rhs = lie_apply_matrix(a, lie_apply_matrix(b, x))
        if lhs != rhs:
            return CheckResult("lie-gl-functoriality", False, "action is not multiplicative")
        ident = lie_apply_matrix(intlinalg.identity(r), x)
        if ident != x:
            return CheckResult("lie-gl-functoriality", False, "identity matrix moved an element")
        y = random_lie_element(rng, r, c, support=4)
        if lie_apply_matrix(a, x + y) != lie_apply_matrix(a, x) + lie_apply_matrix(a, y):
            return CheckResult("lie-gl-functoriality", False, "action is not additive")
    return CheckResult("lie-gl-functoriality", True)


def check_group_axioms(r: int, c: int, rng: random.Random, trials: int = 100) -> CheckResult:
    """Associativity, identity, inverses; products re-verified against fresh series."""
    identity = GroupElement.identity(r, c)
    for _ in range(trials):
        g = random_group_element(rng, r, c)
        h = random_group_element(rng, r, c)
        k = random_group_element(rng, r, c)
        if mul(mul(g, h), k) != mul(g, mul(h, k)):
            return CheckResult("group-associativity", False, "associativity failed")
        if mul(g, identity) != g or mul(identity, g) != g:
            return CheckResult("group-associativity", False, "identity law failed")
        if not mul(g, inv(g)).is_identity() or not mul(inv(g), g).is_identity():
            return CheckResult("group-associativity", False, "inverse law failed")
        product = mul(g, h)
        fresh = GroupElement.from_exponents(r, c, product.exponents)
        oracle = poly_mul(
            magnus_embed(GroupElement.from_exponents(r, c, g.exponents)).coefficients,
            magnus_embed(GroupElement.from_exponents(r, c, h.exponents)).coefficients,
            c,
        )
        if magnus_embed(fresh).coefficients != oracle:
            return CheckResult("group-associativity", False, "collected form disagrees with series")
    return CheckResult("group-associativity", True)


def check_magnus_round_trip(r: int, c: int, rng: random.Random, trials: int = 25) -> CheckResult:
    from .group import magnus_peel

    for _ in range(trials):
        g = random_group_element(rng, r, c)
        fresh = GroupElement.from_exponents(r, c, g.exponents)
        if magnus_peel(magnus_embed(fresh)) != g:
            return CheckResult("magnus-round-trip", False, f"{g!r}")
    return CheckResult("magnus-round-trip", True)


def check_gr_layers(r: int, c: int) -> CheckResult:
    """Basic commutators of degree n generate the n-th graded layer."""
    from .group import leading_lie_part

    for n in range(1, c + 1):
        basis = lyndon_basis(r, n)
        if len(basis) != witt_rank(r, n):
            return CheckResult("graded-layer-rank", False, f"degree {n} count")
        for b in basis:
            g = GroupElement(r, c, {b: 1})
            if lcs_degree(g) != n:
                return CheckResult("graded-layer-rank", False, f"{b!r} has wrong depth")
            if leading_lie_part(g) != LieElement(r, c, {b: 1}):
                return CheckResult("graded-layer-rank", False, f"{b!r} leading part")
    return CheckResult("graded-layer-rank", True)


def check_extension_kernel(r: int, c: int, rng: random.Random, trials: int = 10) -> CheckResult:
    """Kernel of the class drop is the degree-c slice; for r >= 2 it is the center."""
    if c < 2:
        return CheckResult("extension-kernel-center", True, "class 1: nothing to drop")
    for b in graded_basis(r, c):
        g = GroupElement(r, c, {b: 1})
        in_kernel = truncate(g, c - 1).is_identity()
        if in_kernel != (b.degree == c):
            return CheckResult("extension-kernel-center", False, f"{b!r} kernel test")
        if r >= 2 and center_test(g) != (b.degree == c):
            return CheckResult("extension-kernel-center", False, f"{b!r} center test")
    top = lyndon_basis(r, c)
    if r >= 2:
        for _ in range(trials):
            g = random_group_element(rng, r, c)
            supported_top = all(b.degree == c for b in g.exponents)
            if center_test(g) != supported_top:
                return CheckResult("extension-kernel-center", False, "random element center test")
    if len(top) != witt_rank(r, c):
        return CheckResult("extension-kernel-center", False, "kernel rank")
    return CheckResult("extension-kernel-center", True)


def check_truncation_homomorphism(r: int, c: int, rng: random.Random, trials: int = 15) -> CheckResult:
    if c < 2:
        return CheckResult("truncation-homomorphism", True, "class 1: identity map only")
    for _ in range(trials):
        cp = rng.randint(1, c - 1)
        g = random_group_element(rng, r, c)
        h = random_group_element(rng, r, c)
        if truncate(mul(g, h), cp) != mul(truncate(g, cp), truncate(h, cp)):
            return CheckResult("truncation-homomorphism", False, f"to class {cp}")
    return CheckResult("truncation-homomorphism", True)


def check_nilpotency_class(r: int, c: int) -> CheckResult:
    if r < 2:
        return CheckResult("nilpotency-class", True, "rank 1 is abelian")
    a = GroupElement.generator(r, c, 1)
    b = GroupElement.generator(r, c, 2)
    deep = a
    for _ in range(c - 1):
        deep = comm(deep, b)
    if deep.is_identity():
        return CheckResult("nilpotency-class", False, "class-c commutator vanished")
    if not comm(deep, b).is_identity() or not comm(deep, a).is_identity():
        return CheckResult("nilpotency-class", False, "class-(c+1) commutator survived")
    return CheckResult("nilpotency-class", True)


def check_homology_ranks(r: int, c: int) -> CheckResult:
    if h1_rank(r, c) != r:
        return CheckResult("homology-ranks", False, "H_1")
    if h2_rank(r, c) != witt_rank(r, c + 1):
        return CheckResult("homology-ranks", False, "H_2")
    return CheckResult("homology-ranks", True)


def check_endo_homomorphism(r: int, c: int, rng: random.Random, trials: int = 8) -> CheckResult:
    for _ in range(trials):
        e = random_automorphism(rng, r, c)
        g = random_group_element(rng, r, c, support=5)
        h = random_group_element(rng, r, c, support=5)
        if apply_endo(e, mul(g, h)) != mul(apply_endo(e, g), apply_endo(e, h)):
            return CheckResult("endo-homomorphism", False, "images do not multiply")
    return CheckResult("endo-homomorphism", True)


def check_automorphism_witness(r: int, c: int, rng: random.Random, trials: int = 5) -> CheckResult:
    identity = Endo.identity(r, c)
    for _ in range(trials):
        e = random_automorphism(rng, r, c)
        if not is_automorphism(e):
            return CheckResult("automorphism-witness", False, "generated element rejected")
        f = invert(e)
        if compose(e, f) != identity or compose(f, e) != identity:
            return CheckResult("automorphism-witness", False, "inverse is not two-sided")
    doubling = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(r)] for i in range(r)]
    if is_automorphism(endo_from_matrix(intlinalg.freeze(doubling), r, c)):
        return CheckResult("automorphism-witness", False, "determinant 2 accepted")
    return CheckResult("automorphism-witness", True)


def check_aut_extension(r: int, c: int, rng: random.Random, trials: int = 15) -> CheckResult:
    """flat and sharp are mutually inverse between the kernel and the maps."""
    if c < 2:
        return CheckResult("aut-extension", True, "class 1 has trivial kernel")
    identity = Endo.identity(r, c - 1)
    for row in range(witt_rank(r, c)):
        for col in range(r):
            if project(sharp(HomMap.basis_element(r, c, row, col))) != identity:
                return CheckResult("aut-extension", False, "sharp left the kernel")
    for _ in range(trials):
        beta = random_hom_map(rng, r, c)
        if flat(sharp(beta)) != beta:
            return CheckResult("aut-extension", False, "flat(sharp) != id")
        alpha = compose(sharp(random_hom_map(rng, r, c)), sharp(random_hom_map(rng, r, c)))
        if sharp(flat(alpha)) != alpha:
            return CheckResult("aut-extension", False, "sharp(flat) != id")
        b1, b2 = random_hom_map(rng, r, c), random_hom_map(rng, r, c)
        if flat(compose(sharp(b1), sharp(b2))) != b1 + b2:
            return CheckResult("aut-extension", False, "flat is not additive")
    return CheckResult("aut-extension", True)


def check_lift_section(r: int, c: int, rng: random.Random, trials: int = 10) -> CheckResult:
    if c < 2:
        return CheckResult("projection-lift", True, "no lower class")
    for _ in range(trials):
        phi = random_automorphism(rng, r, c - 1)
        if project(lift(phi)) != phi:
            return CheckResult("projection-lift", False, "lift is not a section")
    e1 = random_automorphism(rng, r, c)
    e2 = random_automorphism(rng, r, c)
    if project(compose(e1, e2)) != compose(project(e1), project(e2)):
        return CheckResult("projection-lift", False, "projection not multiplicative")
    return CheckResult("projection-lift", True)


def check_action_remark(r: int, c: int, rng: random.Random, trials: int = 8) -> CheckResult:
    """Conjugating the kernel factors through the abelianized matrix action."""
    if c < 2:
        return CheckResult("kernel-conjugation", True, "class 1 has trivial kernel")
    for _ in range(trials):
        alpha = sharp(random_hom_map(rng, r, c))
        e = random_automorphism(rng, r, c)
        expected = hom_gl_action(abelianization_matrix(e), flat(alpha))
        if flat(conjugate(e, alpha)) != expected:
            return CheckResult("kernel-conjugation", False, "wrong matrix action")
        fixer = sharp(random_hom_map(rng, r, c))  # abelianization is the identity
        if flat(conjugate(fixer, alpha)) != flat(alpha):
            return CheckResult("kernel-conjugation", False, "identity abelianization moved a flat")
    return CheckResult("kernel-conjugation", True)


def check_stabilize(r: int, c: int, rng: random.Random, trials: int = 6) -> CheckResult:
    for _ in range(trials):
        e = random_automorphism(rng, r, c)
        s = stabilize(e)
        if not is_automorphism(s):
            return CheckResult("stabilization", False, "stabilized map not an automorphism")
        if c >= 2 and project(s) != stabilize(project(e)):
            return CheckResult("stabilization", False, "does not commute with projection")
        f = random_automorphism(rng, r, c)
        if stabilize(compose(e, f)) != compose(stabilize(e), stabilize(f)):
            return CheckResult("stabilization", False, "not multiplicative")
    return CheckResult("stabilization", True)


def run_suite(r: int, c: int, seed: int = 0) -> list:
    rng = random.Random(seed)
    checks = [
        check_witt_lyndon(r, c),
        check_lie_antisymmetry(r, c, rng),
        check_lie_jacobi(r, c, rng),
        check_lie_grading(r, c, rng),
        check_envelope_unitriangular(r, c),
        check_lie_functoriality(r, c, rng),
        check_group_axioms(r, c, rng),
        check_magnus_round_trip(r, c, rng),
        check_gr_layers(r, c),
        check_extension_kernel(r, c, rng),
        check_truncation_homomorphism(r, c, rng),
        check_nilpotency_class(r, c),
        check_homology_ranks(r, c),
        check_endo_homomorphism(r, c, rng),
        check_automorphism_witness(r, c, rng),
        check_aut_extension(r, c, rng),
        check_lift_section(r, c, rng),
        check_action_remark(r, c, rng),
        check_stabilize(r, c, rng),
    ]
    return checks

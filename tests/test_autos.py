"""Automorphism tower: projection, lifts, and the kernel correspondence."""

import dataclasses
import random

import pytest

from nilstab import autos
from nilstab.autos import (
    Endo,
    HomMap,
    abelianization_matrix,
    apply_endo,
    compose,
    conjugate,
    endo_from_images,
    endo_from_json,
    endo_to_json,
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
from nilstab.group import (
    GroupElement,
    NotAGroupElement,
    _factors,
    comm,
    inv,
    magnus_embed,
    mul,
    parse_element,
)
from nilstab.intlinalg import identity, int_inverse, matmul, matvec
from nilstab.modules import Hom, LieLayer, Std, eval_module
from nilstab.series import TruncatedSeries, poly_substitute
from nilstab.verify import (
    random_automorphism,
    random_group_element,
    random_hom_map,
    random_unimodular,
)
from nilstab.words import lyndon_basis, lyndon_factor_positions, witt_rank


def gens(r, c):
    return [GroupElement.generator(r, c, i) for i in range(1, r + 1)]


def swap_endo(r, c):
    images = gens(r, c)
    images[0], images[1] = images[1], images[0]
    return endo_from_images(images)


def test_apply_identity():
    rng = random.Random(31)
    e = Endo.identity(3, 3)
    for _ in range(5):
        g = random_group_element(rng, 3, 3)
        assert apply_endo(e, g) == g


def test_apply_swap_inverts_commutator():
    a, b = gens(2, 2)
    e = swap_endo(2, 2)
    assert apply_endo(e, comm(a, b)) == inv(comm(a, b))


def test_apply_is_homomorphism():
    rng = random.Random(32)
    for _ in range(8):
        e = random_automorphism(rng, 2, 3)
        g = random_group_element(rng, 2, 3)
        h = random_group_element(rng, 2, 3)
        assert apply_endo(e, mul(g, h)) == mul(apply_endo(e, g), apply_endo(e, h))


def test_compose_matches_apply_endo_per_image():
    # compose substitutes every image of e2 through one suffix table
    rng = random.Random(71)
    for r in (1, 2, 3):
        for c in (1, 2, 3, 4):
            for _ in range(2):
                e1, e2 = random_automorphism(rng, r, c), random_automorphism(rng, r, c)
                expected = tuple(apply_endo(e1, img) for img in e2.images)
                assert compose(e1, e2).images == expected


def test_compose_substitutes_once(monkeypatch):
    rng = random.Random(72)
    e1, e2 = random_automorphism(rng, 3, 3), random_automorphism(rng, 3, 3)
    substituted = []

    def counted(polys, letter_images, max_deg, support=None):
        substituted.append(len(polys))
        return poly_substitute(polys, letter_images, max_deg, support)

    monkeypatch.setattr(autos, "poly_substitute", counted)
    compose(e1, e2)
    assert substituted == [3]


@pytest.mark.parametrize("r, c", [(3, 4), (4, 4), (3, 5), (2, 6)])
def test_compose_result_substitutes_by_its_carried_series(r, c, monkeypatch):
    # a compose result keeps its images' series on P; the same images in a
    # fresh Endo carry none and are multiplied out on P, and a fresh second
    # operand carries no series that could be read in place of the first's
    rng = random.Random(f"carried/{r}/{c}")
    walked = []
    walk = autos._product_on_support

    def counted(rank, class_bound, factors):
        walked.append(factors)
        return walk(rank, class_bound, factors)

    monkeypatch.setattr(autos, "_product_on_support", counted)
    for _ in range(2):
        e = compose(random_automorphism(rng, r, c), random_automorphism(rng, r, c))
        other = random_automorphism(rng, r, c)
        g = random_group_element(rng, r, c)
        walked.clear()
        carried = (compose(e, other), apply_endo(e, g))
        assert not walked
        fresh = Endo(r, c, e.images)
        walked.clear()
        assert (compose(fresh, Endo(r, c, other.images)), apply_endo(fresh, g)) == carried
        # the fresh Endo's letters are walked in each of the two calls
        assert walked == 2 * [_factors(img) for img in e.images]


def test_carried_series_are_set_by_compose_only():
    rng = random.Random(74)
    e = compose(random_automorphism(rng, 3, 4), random_automorphism(rng, 3, 4))
    assert e._on_factors
    with pytest.raises(TypeError):
        Endo(3, 4, e.images, e._on_factors)
    copy = dataclasses.replace(e, images=Endo.identity(3, 4).images)
    assert not copy._on_factors


def test_compose_result_equals_and_hashes_like_a_fresh_endo():
    # equality and hash are over (rank, class, images); the carried series are not compared
    rng = random.Random(75)
    e = compose(random_automorphism(rng, 3, 3), random_automorphism(rng, 3, 3))
    fresh = Endo(3, 3, tuple(GroupElement.from_exponents(3, 3, g.exponents) for g in e.images))
    assert e._on_factors and not fresh._on_factors
    assert e == fresh and hash(e) == hash(fresh)
    assert len({e, fresh}) == 1
    assert e != Endo.identity(3, 3) and e != e.images


def test_group_element_series_is_no_constructor_argument():
    # a series passed in would stand for the element: this identity would embed as a
    with pytest.raises(TypeError):
        GroupElement(2, 2, {}, [TruncatedSeries(2, 2, {(): 1, (1,): 1})])


def test_replaced_group_element_starts_without_a_series():
    a, b = GroupElement.generator(2, 2, 1), GroupElement.generator(2, 2, 2)
    magnus_embed(a)  # fills a's cache
    copy = dataclasses.replace(a, exponents=b.exponents)
    assert copy == b
    assert magnus_embed(copy) == magnus_embed(GroupElement.generator(2, 2, 2))
    assert apply_endo(Endo.identity(2, 2), copy) == b


@pytest.mark.parametrize("r, c", [(2, 3), (3, 4), (4, 4), (2, 6)])
def test_substitution_is_checked_on_every_word_of_p(r, c, monkeypatch, on_p):
    # a compose result carries its images' series on P exactly; a fault in the
    # substituted series at (1, 1), a word of P that is no suffix of a Lyndon
    # word, is caught by the peel in the call that made it
    rng = random.Random(f"checked/{r}/{c}")
    position = lyndon_factor_positions(r, c).position
    assert (1, 1) in position
    aa = position[(1, 1)]
    pairs = [(random_automorphism(rng, r, c), random_automorphism(rng, r, c)) for _ in range(2)]
    for e1, e2 in pairs:
        e = compose(e1, e2)
        expected = tuple(on_p(magnus_embed(img).coefficients, r, c) for img in e.images)
        assert e._on_factors == expected

    def faulty(polys, letter_images, max_deg, support=None):
        images = poly_substitute(polys, letter_images, max_deg, support)
        for image in images:
            image[aa] = image.get(aa, 0) + 1
            if not image[aa]:
                del image[aa]
        return images

    monkeypatch.setattr(autos, "poly_substitute", faulty)
    for e1, e2 in pairs:
        with pytest.raises(NotAGroupElement):
            compose(e1, e2)
        for g in (GroupElement.identity(r, c), random_group_element(rng, r, c)):
            with pytest.raises(NotAGroupElement):
                apply_endo(e1, g)


def test_abelianization_matrix_examples():
    assert abelianization_matrix(Endo.identity(2, 2)) == identity(2)
    assert abelianization_matrix(swap_endo(2, 2)) == ((0, 1), (1, 0))
    kernel = endo_from_images(
        [parse_element("a * [ab]", 2, 2), parse_element("b", 2, 2)]
    )
    assert abelianization_matrix(kernel) == identity(2)


def test_abelianization_functorial():
    rng = random.Random(33)
    for _ in range(6):
        e1 = random_automorphism(rng, 3, 2)
        e2 = random_automorphism(rng, 3, 2)
        assert abelianization_matrix(compose(e1, e2)) == matmul(
            abelianization_matrix(e1), abelianization_matrix(e2)
        )


def test_is_automorphism():
    doubling = endo_from_images([parse_element("a^2", 2, 2), parse_element("b", 2, 2)])
    assert not is_automorphism(doubling)
    kernel = endo_from_images([parse_element("a * [ab]", 2, 2), parse_element("b", 2, 2)])
    assert is_automorphism(kernel)
    assert is_automorphism(swap_endo(3, 2))


def test_invert_examples():
    assert invert(Endo.identity(2, 2)) == Endo.identity(2, 2)
    kernel = endo_from_images([parse_element("a * [ab]", 2, 2), parse_element("b", 2, 2)])
    expected = endo_from_images(
        [parse_element("a * [ab]^-1", 2, 2), parse_element("b", 2, 2)]
    )
    assert invert(kernel) == expected
    with pytest.raises(ValueError):
        invert(endo_from_images([parse_element("a^2", 2, 2), parse_element("b", 2, 2)]))


def test_invert_random_two_sided():
    rng = random.Random(34)
    for r, c in [(2, 2), (2, 3), (3, 3), (1, 3), (2, 1), (4, 4), (3, 5), (2, 6)]:
        ident = Endo.identity(r, c)
        for _ in range(5):
            e = random_automorphism(rng, r, c)
            f = invert(e)
            assert compose(e, f) == ident
            assert compose(f, e) == ident


def invert_by_correction(e):
    """Oracle: the abelianized inverse at the top class, corrected by
    x_i -> x_i h(x_i)^-1 x_i until h = e f is the identity."""
    r, c = e.rank, e.class_bound
    f = autos.endo_from_matrix(int_inverse(abelianization_matrix(e)), r, c)
    h = compose(e, f)
    ident = Endo.identity(r, c)
    for _ in range(c):
        if h == ident:
            break
        correction = []
        for i in range(r):
            x_i = GroupElement.generator(r, c, i + 1)
            correction.append(mul(mul(x_i, inv(h.images[i])), x_i))
        u = Endo(r, c, tuple(correction))
        f = compose(f, u)
        h = compose(h, u)
    assert h == ident
    return f


@pytest.mark.parametrize("r,c", [(2, 3), (3, 4), (4, 4)])
def test_invert_matches_correction_oracle(r, c):
    rng = random.Random(f"invert-oracle-{r}-{c}")
    for _ in range(2):
        e = random_automorphism(rng, r, c)
        assert invert(e) == invert_by_correction(e)


def test_invert_composes_little_at_the_top_class(monkeypatch):
    classes = []

    def counted(e1, e2):
        classes.append(e1.class_bound)
        return compose(e1, e2)

    monkeypatch.setattr(autos, "compose", counted)
    e = random_automorphism(random.Random(37), 4, 4)
    f = invert(e)
    # the defect and its cancellation at each class, and the final check
    assert classes.count(4) <= 3
    assert compose(e, f) == Endo.identity(4, 4)


@pytest.mark.parametrize("r,c", [(2, 2), (3, 4), (4, 4), (3, 6), (2, 8)])
def test_sharp_after_is_compose_with_sharp(r, c):
    # the closed-form correction against the substitution it stands for
    rng = random.Random(f"sharp-after/{r}/{c}")
    f = random_automorphism(rng, r, c)
    for beta in (HomMap.zero(r, c), random_hom_map(rng, r, c)):
        assert autos._sharp_after(beta, f) == compose(sharp(beta), f)


@pytest.mark.parametrize("r,c", [(2, 2), (3, 3), (4, 4), (2, 6)])
def test_invert_substitutes_once_per_class(r, c, monkeypatch):
    # one defect per class 2..c and the final check; the corrections take no sharp
    substituted, sharps = [], []

    def counted(polys, letter_images, max_deg, support=None):
        substituted.append(max_deg)
        return poly_substitute(polys, letter_images, max_deg, support)

    def recorded(beta):
        sharps.append(beta)
        return sharp(beta)

    e = random_automorphism(random.Random(f"substitutions/{r}/{c}"), r, c)
    monkeypatch.setattr(autos, "poly_substitute", counted)
    monkeypatch.setattr(autos, "sharp", recorded)
    invert(e)
    assert sorted(substituted) == [*range(2, c + 1), c]
    assert not sharps


@pytest.mark.parametrize("r,c", [(3, 6), (2, 8)])
@pytest.mark.parametrize("seed", range(3))
def test_invert_is_two_sided_at_depth(r, c, seed):
    e = random_automorphism(random.Random(f"two-sided/{r}/{c}/{seed}"), r, c)
    f = invert(e)
    ident = Endo.identity(r, c)
    assert compose(e, f) == ident
    assert compose(f, e) == ident


@pytest.mark.parametrize("r,c", [(2, 3), (3, 4), (4, 4), (3, 6)])
def test_letters_of_a_fresh_endo_are_its_series_on_p(r, c, monkeypatch, on_p):
    # multiplied out on P with no full embedding, and equal to the embedding cut to P
    rng = random.Random(f"letters/{r}/{c}")
    e = Endo(r, c, tuple(random_group_element(rng, r, c) for _ in range(r)))
    expected = tuple(on_p(magnus_embed(img).coefficients, r, c) for img in e.images)
    embedded = []
    monkeypatch.setattr(autos, "magnus_embed", lambda g: embedded.append(g) or magnus_embed(g))
    fresh = Endo(r, c, tuple(GroupElement(r, c, dict(g.exponents)) for g in e.images))
    assert autos._letters(fresh) == expected
    assert not embedded


@pytest.mark.parametrize("r,c", [(2, 2), (3, 4)])
def test_invert_certifies_its_result(r, c, monkeypatch):
    e = compose(
        random_automorphism(random.Random(38), r, c),
        sharp(HomMap.basis_element(r, c, 0, 0)),
    )
    correct = autos._sharp_after
    for wrong_class in range(2, c + 1):

        def wrong_at(beta, f, wrong_class=wrong_class):
            # the correction at every class but one, none at that one
            if beta.class_of_target == wrong_class:
                return f
            return correct(beta, f)

        monkeypatch.setattr(autos, "_sharp_after", wrong_at)
        # the top class fails the final check; a lower one leaves the next
        # class's defect outside the kernel, which flat refuses
        message = (
            "climbed inverse is not a left inverse"
            if wrong_class == c
            else f"inverse climbed to class {wrong_class + 1}: not in kernel"
        )
        with pytest.raises(AssertionError, match=message):
            invert(e)


def test_project():
    assert project(Endo.identity(2, 3)) == Endo.identity(2, 2)
    kernel = endo_from_images([parse_element("a * [ab]", 2, 2), parse_element("b", 2, 2)])
    assert project(kernel) == Endo.identity(2, 1)
    rng = random.Random(35)
    for _ in range(5):
        e1 = random_automorphism(rng, 2, 3)
        e2 = random_automorphism(rng, 2, 3)
        assert project(compose(e1, e2)) == compose(project(e1), project(e2))
    with pytest.raises(ValueError):
        project(Endo.identity(2, 1))


def test_lift_is_section():
    assert lift(Endo.identity(2, 1)) == Endo.identity(2, 2)
    phi = swap_endo(2, 1)
    lifted = lift(phi)
    assert lifted.class_bound == 2
    assert project(lifted) == phi
    assert abelianization_matrix(lifted) == abelianization_matrix(phi)
    rng = random.Random(36)
    for r, c in [(2, 2), (3, 2), (2, 4)]:
        for _ in range(5):
            phi = random_automorphism(rng, r, c - 1) if c > 1 else None
            if phi is None:
                continue
            assert project(lift(phi)) == phi
    with pytest.raises(ValueError):
        lift(endo_from_images([parse_element("a^2", 2, 1), parse_element("b", 2, 1)]))


# the group-arithmetic definitions that flat, sharp and abelianization_matrix
# read off the collected form: alpha(x_i) * x_i^-1, (central element) * x_i,
# and each image's degree-1 exponents by letter


def flat_by_products(alpha):
    r, c = alpha.rank, alpha.class_bound
    basis = lyndon_basis(r, c)
    cols = []
    for i in range(r):
        k = mul(alpha.images[i], inv(GroupElement.generator(r, c, i + 1)))
        assert all(b.degree == c for b in k.exponents)  # central
        cols.append(tuple(k.exponents.get(b, 0) for b in basis))
    return HomMap(r, c, tuple(tuple(cols[i][j] for i in range(r)) for j in range(len(basis))))


def sharp_by_products(beta):
    r, c = beta.rank, beta.class_of_target
    basis = lyndon_basis(r, c)
    images = []
    for i in range(r):
        central = GroupElement(r, c, {b: row[i] for b, row in zip(basis, beta.matrix) if row[i]})
        images.append(mul(central, GroupElement.generator(r, c, i + 1)))
    return Endo(r, c, tuple(images))


def abelianization_by_scan(e):
    r = e.rank
    cols = []
    for img in e.images:
        col = [0] * r
        for b, exp in img.exponents.items():
            if b.degree == 1:
                col[b.word[0] - 1] = exp
        cols.append(col)
    return tuple(tuple(cols[i][j] for i in range(r)) for j in range(r))


@pytest.mark.parametrize(
    "r, c", [(2, 2), (3, 3), (3, 4), (4, 4), (2, 6), (1, 1), (1, 3), (2, 1), (3, 1)]
)
def test_coordinate_maps_match_their_group_arithmetic(r, c):
    rng = random.Random(f"coordinates/{r}/{c}")
    rows = witt_rank(r, c)
    # at class 1 column i holds x_i itself, and -1 there cancels it
    minus_one = tuple(tuple(-(i == j) for i in range(r)) for j in range(rows))
    betas = [random_hom_map(rng, r, c) for _ in range(4)] + [HomMap(r, c, minus_one)]
    for beta in betas:
        alpha = sharp(beta)
        assert alpha == sharp_by_products(beta)
        assert all(0 not in img.exponents.values() for img in alpha.images)
        assert abelianization_matrix(alpha) == abelianization_by_scan(alpha)
    if c == 1:
        with pytest.raises(ValueError):
            flat(Endo.identity(r, c))
    else:
        kernel = [compose(sharp(betas[0]), sharp(betas[1])), sharp(betas[2])]
        for _ in range(2):  # collected words written directly, not through sharp
            images = []
            for i in range(1, r + 1):
                exps = {b.word: rng.randint(-2, 2) for b in lyndon_basis(r, c)}
                images.append(GroupElement.from_exponents(r, c, {(i,): 1, **exps}))
            kernel.append(endo_from_images(images))
        for alpha in kernel:
            assert flat(alpha) == flat_by_products(alpha)
    for e in [random_automorphism(rng, r, c) for _ in range(3)] + [Endo.identity(r, c)]:
        assert abelianization_matrix(e) == abelianization_by_scan(e)
        if c >= 2 and project(e) != Endo.identity(r, c - 1):
            with pytest.raises(ValueError):
                flat(e)


def test_flat_examples():
    r, c = 2, 2
    kernel = endo_from_images([parse_element("a * [ab]", r, c), parse_element("b", r, c)])
    assert flat(kernel).matrix == ((1, 0),)
    zero = flat(Endo.identity(r, c))
    assert zero == HomMap.zero(r, c)
    with pytest.raises(ValueError):
        flat(swap_endo(r, c))  # not in the kernel


def test_flat_additive():
    rng = random.Random(37)
    for r, c in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(6):
            b1 = random_hom_map(rng, r, c)
            b2 = random_hom_map(rng, r, c)
            assert flat(compose(sharp(b1), sharp(b2))) == b1 + b2


def test_sharp_examples():
    r, c = 2, 2
    assert sharp(HomMap.zero(r, c)) == Endo.identity(r, c)
    e = sharp(HomMap(r, c, ((1, 0),)))
    assert e == endo_from_images(
        [parse_element("a * [ab]", r, c), parse_element("b", r, c)]
    )
    # at class 1 the column holds x_i's own exponent too
    e = sharp(HomMap(2, 1, ((1, 0), (2, -1))))
    assert e == endo_from_images([parse_element("a^2 * b^2", 2, 1), parse_element("1", 2, 1)])


def test_flat_sharp_mutually_inverse():
    rng = random.Random(38)
    for r, c in [(2, 2), (2, 4), (3, 3)]:
        for _ in range(8):
            beta = random_hom_map(rng, r, c)
            assert flat(sharp(beta)) == beta
            alpha = compose(sharp(random_hom_map(rng, r, c)), sharp(random_hom_map(rng, r, c)))
            assert sharp(flat(alpha)) == alpha


def test_kernel_rank_matches_hom_space():
    for r, c in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 4)]:
        beta = HomMap.zero(r, c)
        assert len(beta.matrix) == witt_rank(r, c)
        assert len(beta.matrix) * r == r * witt_rank(r, c)
        # standard basis sharps are kernel elements
        for row in range(min(2, witt_rank(r, c))):
            alpha = sharp(HomMap.basis_element(r, c, row, 0))
            assert project(alpha) == Endo.identity(r, c - 1)


def test_stabilize():
    assert stabilize(Endo.identity(2, 2)) == Endo.identity(3, 2)
    rng = random.Random(39)
    for _ in range(5):
        e = random_automorphism(rng, 2, 3)
        s = stabilize(e)
        assert is_automorphism(s)
        assert s.images[2] == GroupElement.generator(3, 3, 3)
        assert project(s) == stabilize(project(e))
        f = random_automorphism(rng, 2, 3)
        assert stabilize(compose(e, f)) == compose(stabilize(e), stabilize(f))


def test_conjugation_acts_through_abelianization():
    rng = random.Random(40)
    for r, c in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(6):
            alpha = sharp(random_hom_map(rng, r, c))
            e = random_automorphism(rng, r, c)
            a = abelianization_matrix(e)
            assert flat(conjugate(e, alpha)) == hom_gl_action(a, flat(alpha))
            # composing the other way gives the inverse matrix action
            other = compose(invert(e), compose(alpha, e))
            assert flat(other) == hom_gl_action(int_inverse(a), flat(alpha))


def test_conjugation_fixed_by_identity_abelianization():
    rng = random.Random(41)
    for _ in range(6):
        alpha = sharp(random_hom_map(rng, 2, 3))
        fixer = sharp(random_hom_map(rng, 2, 3))
        assert abelianization_matrix(fixer) == identity(2)
        assert flat(conjugate(fixer, alpha)) == flat(alpha)


def test_hom_gl_action_matches_module_action():
    # dual route: the kernel transformation agrees with the evaluated Hom module
    rng = random.Random(42)
    for r, c in [(2, 2), (2, 3), (3, 2)]:
        module = eval_module(Hom(Std(), LieLayer(c)), r)
        for _ in range(6):
            beta = random_hom_map(rng, r, c)
            a = random_unimodular(rng, r)
            direct = hom_gl_action(a, beta)
            vec = tuple(x for row in beta.matrix for x in row)  # row-major
            moved = matvec(module.matrix(a), vec)
            expected = tuple(x for row in direct.matrix for x in row)
            assert moved == expected


def test_endo_json_round_trip():
    rng = random.Random(43)
    for _ in range(5):
        e = random_automorphism(rng, 2, 3)
        assert endo_from_json(endo_to_json(e)) == e
    obj = endo_to_json(Endo.identity(2, 2))
    assert obj["rank"] == 2 and obj["class"] == 2 and len(obj["images"]) == 2


def test_lift_to_class_iterates(monkeypatch):
    phi = swap_endo(2, 1)
    checked = []

    def counted(e):
        checked.append(e.class_bound)
        return is_automorphism(e)

    monkeypatch.setattr(autos, "is_automorphism", counted)
    lifted = lift_to_class(phi, 4)
    assert lifted.class_bound == 4
    assert checked == [1]  # the images are reread once, the determinant taken once
    assert lifted == lift(lift(lift(phi)))
    back = lifted
    while back.class_bound > 1:
        back = project(back)
    assert back == phi
    # at or below its class, phi itself, automorphism or not
    square = endo_from_images([parse_element("a^2", 2, 2), parse_element("b", 2, 2)])
    assert lift_to_class(square, 2) is square and lift_to_class(square, 1) is square
    with pytest.raises(ValueError, match="lift expects an automorphism"):
        lift_to_class(square, 3)


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Endo(2, 2, (GroupElement.generator(2, 2, 1),))
    with pytest.raises(ValueError):
        Endo(2, 2, tuple(gens(3, 2)))


def test_endo_refuses_rank_or_class_below_one():
    for rank, klass, images in [(0, 1, ()), (1, 0, ()), (-1, 2, ())]:
        with pytest.raises(ValueError, match=r"need rank >= 1 and class >= 1"):
            Endo(rank, klass, images)


def test_kernel_of_project_is_image_of_sharp():
    # build kernel elements directly from collected words, not through sharp
    rng = random.Random(44)
    for r, c in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        top = lyndon_basis(r, c)
        for _ in range(8):
            images = []
            for i in range(1, r + 1):
                exps = {(i,): 1}
                for b in top:
                    e = rng.randint(-2, 2)
                    if e:
                        exps[b.word] = e
                images.append(GroupElement.from_exponents(r, c, exps))
            alpha = endo_from_images(images)
            assert project(alpha) == Endo.identity(r, c - 1)
            assert sharp(flat(alpha)) == alpha


def test_endo_json_rejects_mismatched_images():
    obj = {
        "rank": 2,
        "class": 2,
        "images": [
            {"rank": 2, "class": 3, "exponents": [["a", 1]]},
            {"rank": 2, "class": 2, "exponents": [["b", 1]]},
        ],
    }
    with pytest.raises(ValueError):
        endo_from_json(obj)

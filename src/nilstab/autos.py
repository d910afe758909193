"""Endomorphisms and automorphisms of the free nilpotent groups.

An endomorphism is its list of generator images.  Applying one to an element
happens on the Magnus side: the ring substitution X_i -> embed(image_i) - 1
followed by the peel, group._peel.  The images are kept on P(r, c) only, the
empty word and every factor of a Lyndon word of length <= c (124 of the 340
nonempty words at (4,4)), the word set of all group arithmetic: P is
suffix-closed, so the image of a word w, L_(w_1) * image(w[1:]), read on P
needs image(w[1:]) on P alone, and it reads the letter image L_(w_1) only at
the nonempty words of P.  Each image is peeled as it is, so the peel's
residual check covers every word of P that the images carry.  A word outside
P still has an image on P, so each element enters with its full series.

The endomorphism that compose returns keeps its images' series on P, so a
later substitution by it reads its letters with no embedding; any other
endomorphism's images are embedded in full and cut to P.

The projection to class c-1, the set-theoretic lift back, and the mutually
inverse maps between the kernel of the projection and integer matrices (one
column of top-degree coordinates per generator) realize the automorphism
tower step by step.  Both maps, flat and sharp, read and write exponents of
the collected form, with no group product: a kernel automorphism sends x_i to
x_i z_i with z_i central of degree c, so its image has exponent 1 at x_i,
z_i's exponents at degree c, and no other.  abelianization_matrix reads the
degree-1 exponents.  invert climbs the same tower: it inverts the
abelianization and then, one class at a time, lifts the inverse so far and
cancels its defect, a kernel element, with flat and sharp.  So this module
does no group products at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg
from .group import (
    GroupElement,
    _json_fields,
    _peel,
    element_from_json,
    element_to_json,
    magnus_embed,
    truncate,
)
from .series import poly_substitute
from .words import (
    LyndonBasisElement,
    lyndon_basis,
    lyndon_factor_splits,
    lyndon_factors,
    witt_rank,
)


@dataclass(frozen=True)
class Endo:
    """Endomorphism of the rank-r class-c free nilpotent group, by generator images."""

    rank: int
    class_bound: int
    images: tuple  # r GroupElements
    # empty, or the images' series on P(r, c), one dict per image; set by compose only
    _on_factors: tuple = field(init=False, default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.rank < 1 or self.class_bound < 1:
            raise ValueError("need rank >= 1 and class >= 1")
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for g in self.images:
            if (g.rank, g.class_bound) != (self.rank, self.class_bound):
                raise ValueError("image has mismatched rank/class")

    @classmethod
    def identity(cls, rank: int, class_bound: int) -> "Endo":
        gens = tuple(GroupElement.generator(rank, class_bound, i) for i in range(1, rank + 1))
        return cls(rank, class_bound, gens)

    def is_identity(self) -> bool:
        return self == Endo.identity(self.rank, self.class_bound)


def endo_from_images(images) -> Endo:
    images = tuple(images)
    if not images:
        raise ValueError("no generator images given")
    g0 = images[0]
    return Endo(g0.rank, g0.class_bound, images)


def _letters(e: Endo) -> tuple:
    """The series of e's images on P(r, c): kept by compose, or embedded in full
    and cut to P."""
    if e._on_factors:
        return e._on_factors
    factors = lyndon_factors(e.rank, e.class_bound)
    return tuple(
        {w: x for w, x in magnus_embed(img).coefficients.items() if w in factors}
        for img in e.images
    )


def _substitute(e: Endo, elements) -> tuple:
    """e applied to each element, by one ring substitution on their Magnus series
    read on P(r, c), each output peeled as it is: the images and their series on P."""
    r, c = e.rank, e.class_bound
    # X_i goes to embed(image) - 1; the substitution never reads a constant term
    series = [magnus_embed(g).coefficients for g in elements]
    on_factors = poly_substitute(series, _letters(e), c, lyndon_factor_splits(r, c))
    images = tuple(GroupElement(r, c, _peel(r, c, out)) for out in on_factors)
    return images, tuple(on_factors)


def apply_endo(e: Endo, g: GroupElement) -> GroupElement:
    """e(g), computed by ring substitution on the Magnus series of g."""
    if (e.rank, e.class_bound) != (g.rank, g.class_bound):
        raise ValueError("rank/class mismatch")
    return _substitute(e, (g,))[0][0]


def compose(e1: Endo, e2: Endo) -> Endo:
    """e1 after e2: generator i goes to e1(e2(x_i)); all images substituted at
    once.  The result keeps its images' series on P for its own substitutions."""
    if (e1.rank, e1.class_bound) != (e2.rank, e2.class_bound):
        raise ValueError("rank/class mismatch")
    images, on_factors = _substitute(e1, e2.images)
    result = Endo(e1.rank, e1.class_bound, images)
    object.__setattr__(result, "_on_factors", on_factors)
    return result


def abelianization_matrix(e: Endo):
    """Degree-1 exponents of the images; column i is the abelianized image of x_i."""
    return tuple(
        tuple(img.exponents.get(x, 0) for img in e.images) for x in lyndon_basis(e.rank, 1)
    )


def is_automorphism(e: Endo) -> bool:
    return intlinalg.det(abelianization_matrix(e)) in (1, -1)


def endo_from_matrix(a, rank: int, class_bound: int) -> Endo:
    """The endomorphism sending x_i to the collected word with abelianization column i."""
    images = tuple(
        GroupElement.from_exponents(rank, class_bound, {(j + 1,): a[j][i] for j in range(rank)})
        for i in range(rank)
    )
    return Endo(rank, class_bound, images)


def invert(e: Endo) -> Endo:
    """Two-sided inverse, climbed up the tower one class at a time.

    f inverts e's class-(k-1) quotient e_(k-1), so e_k lift(f) projects to the
    identity: it is the kernel element sharp(beta), and f sharp(-beta) inverts
    e_k.  A left inverse of an automorphism is two-sided (f.g. nilpotent
    groups are Hopfian), so one compose(f, e) certifies the result.
    """
    if not is_automorphism(e):
        raise ValueError("not invertible: abelianization determinant is not +-1")
    quotients = [e]
    while quotients[-1].class_bound > 1:
        quotients.append(project(quotients[-1]))
    a_inv = intlinalg.int_inverse(abelianization_matrix(e))
    f = endo_from_matrix(a_inv, e.rank, 1)
    for e_k in reversed(quotients[:-1]):
        f = lift(f)
        try:
            beta = flat(compose(e_k, f))
        except ValueError as err:  # f inverts e_(k-1), so only a fault gets here
            raise AssertionError(f"inverse climbed to class {e_k.class_bound}: {err}") from None
        f = compose(f, sharp(-beta))
    if compose(f, e) != Endo.identity(e.rank, e.class_bound):
        raise AssertionError("climbed inverse is not a left inverse")
    return f


def project(e: Endo) -> Endo:
    """Induced endomorphism of the class-(c-1) quotient."""
    if e.class_bound < 2:
        raise ValueError("cannot project below class 1")
    return Endo(
        e.rank,
        e.class_bound - 1,
        tuple(truncate(img, e.class_bound - 1) for img in e.images),
    )


def lift(phi: Endo) -> Endo:
    """Set-theoretic lift to one class higher."""
    return lift_to_class(phi, phi.class_bound + 1)


def lift_to_class(phi: Endo, class_bound: int) -> Endo:
    """Set-theoretic lift to class class_bound: reread the same collected words.
    At or below phi's class, phi itself."""
    if class_bound <= phi.class_bound:
        return phi
    if not is_automorphism(phi):
        raise ValueError("lift expects an automorphism")
    images = tuple(
        GroupElement(phi.rank, class_bound, dict(img.exponents)) for img in phi.images
    )
    return Endo(phi.rank, class_bound, images)


@dataclass(frozen=True)
class HomMap:
    """Additive map from the abelianization to the top graded layer.

    matrix has witt_rank(rank, class_of_target) rows (degree-c Lyndon order)
    and rank columns (one per generator).
    """

    rank: int
    class_of_target: int
    matrix: tuple

    def __post_init__(self):
        rows = witt_rank(self.rank, self.class_of_target)
        if len(self.matrix) != rows or any(len(row) != self.rank for row in self.matrix):
            raise ValueError("HomMap matrix has wrong dimensions")

    @classmethod
    def zero(cls, rank: int, class_of_target: int) -> "HomMap":
        rows = witt_rank(rank, class_of_target)
        return cls(rank, class_of_target, intlinalg.zero_matrix(rows, rank))

    @classmethod
    def basis_element(cls, rank: int, class_of_target: int, row: int, col: int) -> "HomMap":
        rows = witt_rank(rank, class_of_target)
        mat = [[0] * rank for _ in range(rows)]
        mat[row][col] = 1
        return cls(rank, class_of_target, intlinalg.freeze(mat))

    def __add__(self, other: "HomMap") -> "HomMap":
        if (self.rank, self.class_of_target) != (other.rank, other.class_of_target):
            raise ValueError("HomMap mismatch")
        return HomMap(self.rank, self.class_of_target, intlinalg.mat_add(self.matrix, other.matrix))

    def __neg__(self) -> "HomMap":
        return HomMap(self.rank, self.class_of_target, intlinalg.mat_neg(self.matrix))

    def __sub__(self, other: "HomMap") -> "HomMap":
        return self + (-other)


def flat(alpha: Endo) -> HomMap:
    """Column i is the degree-c exponents of alpha(x_i).  In the kernel every
    exponent below degree c is that of x_i, so alpha(x_i) is x_i times the
    central element alpha(x_i) * x_i^-1 with these exponents."""
    r, c = alpha.rank, alpha.class_bound
    if c < 2:
        raise ValueError("flat needs class >= 2")
    if project(alpha) != Endo.identity(r, c - 1):
        raise ValueError("not in kernel: projection to class c-1 is not the identity")
    basis = lyndon_basis(r, c)
    matrix = tuple(tuple(img.exponents.get(b, 0) for img in alpha.images) for b in basis)
    return HomMap(r, c, matrix)


def sharp(beta: HomMap) -> Endo:
    """Generator x_i goes to (central element with coordinates column i) * x_i:
    the collected form with column i's exponents at degree c plus 1 at x_i."""
    r, c = beta.rank, beta.class_of_target
    basis = lyndon_basis(r, c)
    images = []
    for i in range(r):
        exps = {b: row[i] for b, row in zip(basis, beta.matrix)}
        x_i = LyndonBasisElement((i + 1,))
        exps[x_i] = exps.get(x_i, 0) + 1  # at class 1 the column holds x_i too
        images.append(GroupElement.from_exponents(r, c, exps))  # drops the zeros
    return Endo(r, c, tuple(images))


def stabilize(e: Endo) -> Endo:
    """Extend to one more generator, fixing the new generator."""
    r, c = e.rank, e.class_bound
    images = [
        GroupElement(r + 1, c, dict(img.exponents)) for img in e.images
    ]
    images.append(GroupElement.generator(r + 1, c, r + 1))
    return Endo(r + 1, c, tuple(images))


def conjugate(e: Endo, alpha: Endo) -> Endo:
    """e alpha e^-1."""
    return compose(compose(e, alpha), invert(e))


def hom_gl_action(a, beta: HomMap) -> HomMap:
    """Action of a GL matrix on a HomMap: top-layer action of a, then a^-1 on sources."""
    from .lie import lie_layer_matrix

    cols = lie_layer_matrix(a, beta.rank, beta.class_of_target)
    layer = intlinalg.dense_matrix(cols, len(cols))
    a_inv = intlinalg.int_inverse(a)
    new_matrix = intlinalg.matmul(intlinalg.matmul(layer, beta.matrix), a_inv)
    return HomMap(beta.rank, beta.class_of_target, new_matrix)


def endo_to_json(e: Endo) -> dict:
    return {
        "rank": e.rank,
        "class": e.class_bound,
        "images": [element_to_json(img) for img in e.images],
    }


def endo_from_json(obj: dict) -> Endo:
    rank, class_bound, entries = _json_fields(obj, "endomorphism", "images")
    images = []
    for img in entries:
        g = element_from_json(img)
        if (g.rank, g.class_bound) != (rank, class_bound):
            raise ValueError("image rank/class disagrees with the endomorphism")
        images.append(g)
    return Endo(rank, class_bound, tuple(images))

"""Stateful differential test of group and tower operations against the full series.

A derandomized rule-based machine, run at each of four (rank, class) shapes,
builds elements, automorphisms and kernel maps, and then applies mul, inv, comm, truncate,
apply_endo, compose, invert, flat/sharp, project/lift and the text and JSON
round trips to what it has built.  Every result is checked against the full
Magnus series: group arithmetic against the oracle products of fresh
embeddings, endomorphisms against a prefix-table substitution on full series
followed by magnus_peel, which accepts a series only if it is the embedding
of the peeled result; the substitution is written out below so that it
shares no code with the library's.  Group identities (g g^-1 = 1, Hall-Witt,
truncation and apply_endo are homomorphisms) and tower identities
(compose(e, invert(e)) = 1, flat(sharp(beta)) = beta) are checked as well.
Exponents are small or +-10^12.
"""

import json

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from nilstab.autos import (
    Endo,
    HomMap,
    apply_endo,
    compose,
    endo_from_json,
    endo_from_matrix,
    endo_to_json,
    flat,
    invert,
    lift,
    project,
    sharp,
)
from nilstab.group import (
    GroupElement,
    comm,
    element_from_json,
    element_to_json,
    element_to_text,
    inv,
    magnus_embed,
    magnus_peel,
    mul,
    parse_element,
    truncate,
)
from nilstab.series import (
    TruncatedSeries,
    add_scaled,
    poly_group_commutator,
    poly_mul,
    poly_unit_inverse,
)
from nilstab.words import graded_basis, witt_rank

SHAPES = [(3, 4), (2, 5), (4, 3), (2, 7)]
EXPONENTS = st.sampled_from([-3, -2, -1, 1, 2, 3, 10**12, -(10**12)])
# (basis index, exponent) pairs; the index is taken modulo the basis size
TERMS = st.lists(st.tuples(st.integers(0, 10**6), EXPONENTS), max_size=4)
# unimodular matrices as products of elementary, swap and sign moves
MOVES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1, 2])), max_size=4
)


def _fresh(g: GroupElement) -> dict:
    """Magnus series of a copy of g that has no cached embedding."""
    copy = GroupElement.from_exponents(g.rank, g.class_bound, g.exponents)
    return magnus_embed(copy).coefficients


def _full_substitute(e: Endo, elements) -> list:
    """e applied to each element on full series: X_i -> embed(image_i) - 1 word by
    word, each word's image the image of its prefix times that of its last letter,
    then magnus_peel."""
    r, c = e.rank, e.class_bound
    letters = [{w: x for w, x in _fresh(img).items() if w} for img in e.images]
    prefix_images = {(): {(): 1}}

    def image(word):
        if word not in prefix_images:
            prefix_images[word] = poly_mul(image(word[:-1]), letters[word[-1] - 1], c)
        return prefix_images[word]

    out = []
    for g in elements:
        series: dict = {}
        for w, x in _fresh(g).items():
            add_scaled(series, x, image(w))
        out.append(magnus_peel(TruncatedSeries(r, c, series)))
    return out


def _conj(a, b):
    """a^b = b^-1 a b."""
    return mul(mul(inv(b), a), b)


class TowerMachine(RuleBasedStateMachine):
    elements = Bundle("elements")
    autos = Bundle("autos")

    def __init__(self, r: int, c: int):
        super().__init__()
        self.r, self.c = r, c
        self.basis = graded_basis(r, c)
        self.identity = Endo.identity(r, c)

    @initialize(target=elements)
    def first_generator(self):
        return GroupElement.generator(self.r, self.c, 1)

    def _element(self, terms, min_degree=1) -> GroupElement:
        basis = [b for b in self.basis if b.degree >= min_degree]
        exps: dict = {}
        for i, e in terms:
            b = basis[i % len(basis)]
            exps[b] = exps.get(b, 0) + e
        return GroupElement.from_exponents(self.r, self.c, exps)

    @rule(target=elements, terms=TERMS)
    def new_element(self, terms):
        return self._element(terms)

    @rule(target=autos, moves=MOVES, tails=st.lists(TERMS, min_size=4, max_size=4))
    def new_automorphism(self, moves, tails):
        # a unimodular abelianization makes any endomorphism an automorphism;
        # the images x_i -> (column i) * (an element of gamma_2) are built with mul alone
        r = self.r
        a = [[int(i == j) for j in range(r)] for i in range(r)]
        for i, j, s in moves:
            i, j = i % r, j % r
            if i == j:
                a[i] = [-x for x in a[i]]
            elif s == 2:
                a[i], a[j] = a[j], a[i]
            else:
                a[i] = [x + s * y for x, y in zip(a[i], a[j])]
        linear = endo_from_matrix(a, r, self.c)
        images = tuple(
            mul(img, self._element(tail, min_degree=2)) for img, tail in zip(linear.images, tails)
        )
        return Endo(r, self.c, images)

    @rule(target=elements, g=elements, h=elements)
    def multiply(self, g, h):
        out = mul(g, h)
        assert _fresh(out) == poly_mul(_fresh(g), _fresh(h), self.c)
        return out

    @rule(target=elements, g=elements)
    def invert_element(self, g):
        out = inv(g)
        assert _fresh(out) == poly_unit_inverse(_fresh(g), self.c)
        assert mul(g, out).is_identity() and mul(out, g).is_identity()
        return out

    @rule(target=elements, g=elements, h=elements)
    def commutator(self, g, h):
        out = comm(g, h)
        assert _fresh(out) == poly_group_commutator(_fresh(g), _fresh(h), self.c)
        return out

    @rule(g=elements, h=elements, k=st.integers(1, 6))
    def truncate_product(self, g, h, k):
        k = min(k, self.c)
        assert truncate(mul(g, h), k) == mul(truncate(g, k), truncate(h, k))

    @rule(x=elements, y=elements, z=elements)
    def hall_witt(self, x, y, z):
        product = mul(
            mul(_conj(comm(comm(x, inv(y)), z), y), _conj(comm(comm(y, inv(z)), x), z)),
            _conj(comm(comm(z, inv(x)), y), x),
        )
        assert product.is_identity()

    @rule(target=elements, e=autos, g=elements, h=elements)
    def apply(self, e, g, h):
        out = apply_endo(e, g)
        assert [out] == _full_substitute(e, [g])
        assert apply_endo(e, mul(g, h)) == mul(out, apply_endo(e, h))
        return out

    @rule(target=autos, e1=autos, e2=autos)
    def compose_autos(self, e1, e2):
        out = compose(e1, e2)
        assert list(out.images) == _full_substitute(e1, e2.images)
        return out

    @rule(target=autos, e=autos)
    def invert_auto(self, e):
        f = invert(e)
        assert compose(e, f) == self.identity and compose(f, e) == self.identity
        generators = list(self.identity.images)
        assert _full_substitute(e, f.images) == generators
        assert _full_substitute(f, e.images) == generators
        return f

    @rule(
        target=autos, entries=st.lists(EXPONENTS, min_size=1, max_size=6), degree=st.integers(2, 7)
    )
    def flat_sharp(self, entries, degree):
        k = min(degree, self.c)
        rows = witt_rank(self.r, k)
        flat_entries = [entries[i % len(entries)] * (i % 3 - 1) for i in range(rows * self.r)]
        matrix = tuple(tuple(flat_entries[j * self.r:(j + 1) * self.r]) for j in range(rows))
        beta = HomMap(self.r, k, matrix)
        alpha = sharp(beta)
        assert flat(alpha) == beta
        lifted = alpha
        while lifted.class_bound < self.c:
            lifted = lift(lifted)
        return lifted

    @rule(target=autos, e1=autos, e2=autos)
    def project_lift(self, e1, e2):
        p1, p2 = project(e1), project(e2)
        assert project(compose(e1, e2)) == compose(p1, p2)
        back = lift(p1)
        assert project(back) == p1
        assert [img.exponents for img in back.images] == [img.exponents for img in p1.images]
        return back

    @rule(g=elements, e=autos)
    def round_trips(self, g, e):
        assert parse_element(element_to_text(g), self.r, self.c) == g
        assert element_from_json(json.loads(json.dumps(element_to_json(g)))) == g
        assert endo_from_json(json.loads(json.dumps(endo_to_json(e)))) == e


@pytest.mark.parametrize("r, c", SHAPES)
def test_tower_machine(r, c):
    run_state_machine_as_test(
        lambda: TowerMachine(r, c),
        settings=settings(
            derandomize=True,
            max_examples=30,
            stateful_step_count=35,
            deadline=None,
            # shrinking a failing run of this machine takes minutes; report it as found
            phases=[phase for phase in Phase if phase is not Phase.shrink],
        ),
    )

"""Polynomial module constructors: bases, actions, stabilizations, grammar."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilstab import modules
from nilstab.autos import Endo, endo_from_images
from nilstab.group import parse_element
from nilstab.intlinalg import block_diag, compound, identity, int_inverse, kron, matmul, transpose
from nilstab.lie import LieElement, lie_apply_matrix
from nilstab.modules import (
    BasedModule,
    Const,
    DualStd,
    Ext,
    Hom,
    LieLayer,
    Std,
    Sum,
    Tensor,
    eval_module,
    kernel_homology_module,
    module_rank,
    parse_module_spec,
    restrict_action,
)
from nilstab.verify import random_unimodular
from nilstab.words import lyndon_basis, witt_rank

ALL_SPECS = [
    Const(1),
    Const(3),
    Std(),
    DualStd(),
    Sum(Std(), DualStd()),
    Tensor(Std(), DualStd()),
    Ext(2, Std()),
    Ext(0, DualStd()),
    Hom(Std(), Ext(2, DualStd())),
    LieLayer(2),
    LieLayer(3),
    Hom(Std(), LieLayer(3)),
    # Hom over a Hom source, Hom over an exterior source, and exterior powers
    # of Hom: nested constructors whose stabilizations compose the others
    Hom(Hom(Std(), DualStd()), Std()),
    Hom(Ext(2, Std()), LieLayer(2)),
    Ext(2, Hom(Std(), LieLayer(2))),
    Sum(LieLayer(2), DualStd()),
]


def block(a):
    r = len(a)
    return tuple(tuple(row) + (0,) for row in a) + ((0,) * r + (1,),)


def test_eval_examples():
    m = eval_module(Std(), 3)
    assert len(m.basis) == 3
    a = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    assert m.matrix(a) == a
    assert eval_module(Hom(Std(), Ext(2, DualStd())), 3).rank == 9
    assert eval_module(LieLayer(3), 2).rank == 2


def test_rank_polynomiality():
    for r in (1, 2, 3, 4):
        assert eval_module(Const(3), r).rank == 3
        assert eval_module(Std(), r).rank == r
        assert eval_module(DualStd(), r).rank == r
        assert eval_module(Sum(Std(), DualStd()), r).rank == 2 * r
        assert eval_module(Tensor(Std(), DualStd()), r).rank == r * r
        assert eval_module(Ext(2, Std()), r).rank == comb(r, 2)
        assert eval_module(Ext(0, DualStd()), r).rank == 1
        assert eval_module(Hom(Std(), Ext(2, DualStd())), r).rank == r * comb(r, 2)
        for n in (2, 3):
            assert eval_module(LieLayer(n), r).rank == witt_rank(r, n)


def test_action_multiplicative():
    # 50 random products of elementary generators per constructor
    rng = random.Random(51)
    for spec in ALL_SPECS:
        for r in (2, 3):
            m = eval_module(spec, r)
            assert m.matrix(identity(r)) == identity(m.rank)
            for _ in range(25):
                a = random_unimodular(rng, r)
                b = random_unimodular(rng, r)
                assert m.matrix(matmul(a, b)) == matmul(m.matrix(a), m.matrix(b))


def test_action_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        eval_module(Std(), 2).action(((1.5, 0), (True, 1)))
    with pytest.raises(ValueError, match="integers"):
        eval_module(Std(), 1).action(((True,),))


@pytest.mark.parametrize("spec", [Std(), LieLayer(2), Tensor(Std(), LieLayer(2))], ids=str)
def test_action_without_dual_never_inverts(monkeypatch, spec):
    a = ((1, 1, 0), (0, 0, 1), (0, 1, 0))
    expected = BasedModule(spec, 3).action(a)

    def refuse(_):
        raise AssertionError("int_inverse called")

    monkeypatch.setattr(modules, "int_inverse", refuse)
    eval_module.cache_clear()
    assert eval_module(spec, 3).action(a) == expected


@pytest.mark.parametrize(
    "spec, calls",
    [("hom(dual, std)", 0), ("dual", 1), ("tensor(dual, hom(std, dual))", 1)],
)
def test_action_inverts_at_most_once(monkeypatch, spec, calls):
    # a dual in a Hom source is evaluated at a^-1, so it needs transpose(a) only
    inverted = []

    def counted(a):
        inverted.append(a)
        return int_inverse(a)

    monkeypatch.setattr(modules, "int_inverse", counted)
    a = ((1, 1, 0), (0, 0, 1), (0, 1, 0))
    BasedModule(parse_module_spec(spec), 3).action(a)
    assert len(inverted) == calls


def dense_action(spec, a):
    """Reference action, assembled from dense kron, compound, block_diag and
    inverse transposes, with Lie layers by full substitution."""
    if isinstance(spec, Const):
        return identity(spec.rank)
    if isinstance(spec, Std):
        return a
    if isinstance(spec, DualStd):
        return transpose(int_inverse(a))
    if isinstance(spec, Sum):
        left, right = dense_action(spec.left, a), dense_action(spec.right, a)
        return block_diag(left, right, len(left), len(right))
    if isinstance(spec, Tensor):
        return kron(dense_action(spec.left, a), dense_action(spec.right, a))
    if isinstance(spec, Ext):
        inner = dense_action(spec.inner, a)
        return compound(inner, spec.power, len(inner), len(inner))
    if isinstance(spec, Hom):
        src_inv = dense_action(spec.source, int_inverse(a))
        return kron(dense_action(spec.target, a), transpose(src_inv, len(src_inv)))
    r, n = len(a), spec.degree
    basis = lyndon_basis(r, n)
    cols = [lie_apply_matrix(a, LieElement(r, n, {b: 1})).coordinates(basis) for b in basis]
    return transpose(tuple(cols), len(basis))


def test_matrix_matches_dense_reference():
    rng = random.Random(55)
    extra = [Hom(DualStd(), Std()), Tensor(DualStd(), Hom(Std(), DualStd()))]
    for spec in ALL_SPECS + extra:
        for r in (1, 2, 3):
            m = BasedModule(spec, r)
            for _ in range(3):
                a = random_unimodular(rng, r)
                assert m.matrix(a) == dense_action(spec, a)


def test_module_rank_closed_form():
    for spec in ALL_SPECS:
        for r in (1, 2, 3, 4):
            assert module_rank(spec, r) == eval_module(spec, r).rank


def test_stab_equivariance():
    rng = random.Random(52)
    for spec in ALL_SPECS:
        for r in (2, 3):
            m = eval_module(spec, r)
            m1 = eval_module(spec, r + 1)
            for _ in range(4):
                a = random_unimodular(rng, r)
                assert matmul(m1.matrix(block(a)), m.stab) == matmul(m.stab, m.matrix(a))
                assert matmul(m.costab, m1.matrix(block(a))) == matmul(m.matrix(a), m.costab)
            assert matmul(m.costab, m.stab) == identity(m.rank)


def test_stab_injective():
    # a retraction exists, so the stabilization has full column rank
    for spec in ALL_SPECS:
        m = eval_module(spec, 2)
        cols = {tuple(row[j] for row in m.stab) for j in range(m.rank)}
        assert len(cols) == m.rank


def test_const_restriction_is_trivial():
    rng = random.Random(53)
    from nilstab.verify import random_automorphism

    for _ in range(4):
        e = random_automorphism(rng, 2, 2)
        assert restrict_action(Const(2), e) == identity(2)


def test_restriction_factors_through_abelianization():
    # distinct endomorphisms, equal abelianizations, equal actions
    r, c = 2, 2
    e1 = Endo.identity(r, c)
    e2 = endo_from_images([parse_element("a * [ab]", r, c), parse_element("b", r, c)])
    assert e1 != e2
    for spec in (Std(), DualStd(), Tensor(Std(), DualStd()), LieLayer(2)):
        assert restrict_action(spec, e1) == restrict_action(spec, e2)


def test_restriction_rejects_non_automorphism():
    bad = endo_from_images([parse_element("a^2", 2, 2), parse_element("b", 2, 2)])
    with pytest.raises(ValueError):
        restrict_action(Std(), bad)


def test_kernel_homology_module_ranks():
    assert eval_module(kernel_homology_module(1, 0, Const(1)), 2).rank == 1
    assert eval_module(kernel_homology_module(1, 0, Const(1)), 3).rank == 1
    assert eval_module(kernel_homology_module(1, 1, Const(1)), 2).rank == 2
    assert eval_module(kernel_homology_module(2, 2, Const(1)), 2).rank == comb(4, 2)
    assert eval_module(kernel_homology_module(2, 1, Std()), 2).rank == 4 * 2


def test_dual_action_is_inverse_transpose():
    m = eval_module(DualStd(), 2)
    a = ((1, 1), (0, 1))
    assert m.matrix(a) == ((1, 0), (-1, 1))


def test_lie_layer_action_matches_bracket_functor():
    m = eval_module(LieLayer(2), 2)
    swap = ((0, 1), (1, 0))
    assert m.matrix(swap) == ((-1,),)


def test_lie_layer_two_is_exterior_square():
    # [e_i, e_j] -> e_i ^ e_j matches basis orders, actions, and stabs exactly
    rng = random.Random(54)
    for r in (2, 3, 4):
        layer = eval_module(LieLayer(2), r)
        wedge = eval_module(Ext(2, Std()), r)
        assert len(layer.basis) == len(wedge.basis)
        assert [w for w in layer.basis] == [tuple(lbl) for lbl in wedge.basis]
        assert layer.stab == wedge.stab
        for _ in range(6):
            a = random_unimodular(rng, r)
            assert layer.action(a) == wedge.action(a)


def test_ext_action_is_compound():
    m = eval_module(Ext(2, Std()), 3)
    a = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    act = m.matrix(a)
    assert act[0][0] == 1  # det of the (12, 12) minor
    assert m.matrix(identity(3)) == identity(3)


def test_spec_validation():
    with pytest.raises(ValueError):
        Ext(-1, Std())
    with pytest.raises(ValueError):
        LieLayer(0)
    with pytest.raises(ValueError):
        eval_module(Std(), 0)


def test_parse_module_spec():
    assert parse_module_spec("std") == Std()
    assert parse_module_spec("dual") == DualStd()
    assert parse_module_spec("const") == Const(1)
    assert parse_module_spec("const(Z)") == Const(1)
    assert parse_module_spec("const(Z^4)") == Const(4)
    assert parse_module_spec("tensor(std, dual)") == Tensor(Std(), DualStd())
    assert parse_module_spec("hom(std, ext(2, dual))") == Hom(Std(), Ext(2, DualStd()))
    assert parse_module_spec("ext(2, hom(std, lie(3))) (x) const(Z)") == Tensor(
        Ext(2, Hom(Std(), LieLayer(3))), Const(1)
    )
    assert parse_module_spec("std(x)dual") == Tensor(Std(), DualStd())
    assert parse_module_spec(" sum( std , lie(2) ) ") == Sum(Std(), LieLayer(2))


# str of each ALL_SPECS entry: the canonical form that CLI output and the
# recorded bench scans print, so it may not change
ALL_SPEC_TEXTS = [
    "const",
    "const(Z^3)",
    "std",
    "dual",
    "sum(std, dual)",
    "tensor(std, dual)",
    "ext(2, std)",
    "ext(0, dual)",
    "hom(std, ext(2, dual))",
    "lie(2)",
    "lie(3)",
    "hom(std, lie(3))",
    "hom(hom(std, dual), std)",
    "hom(ext(2, std), lie(2))",
    "ext(2, hom(std, lie(2)))",
    "sum(lie(2), dual)",
]


def test_canonical_form_text():
    assert [str(spec) for spec in ALL_SPECS] == ALL_SPEC_TEXTS


def test_parse_round_trips_canonical_form():
    for spec in ALL_SPECS:
        assert parse_module_spec(str(spec)) == spec


def _specs(depth: int):
    """Specs over all eight constructors, nested at most depth levels."""
    leaves = (
        st.sampled_from([Std(), DualStd()])
        | st.builds(Const, st.integers(0, 4))
        | st.builds(LieLayer, st.integers(1, 4))
    )
    if depth == 1:
        return leaves
    inner = _specs(depth - 1)
    pairs = [st.builds(cls, inner, inner) for cls in (Sum, Tensor, Hom)]
    return st.one_of(leaves, *pairs, st.builds(Ext, st.integers(0, 4), inner))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=_specs(4))
def test_parse_round_trips_nested_specs(spec):
    assert parse_module_spec(str(spec)) == spec


def test_parser_table_holds_every_regular_constructor():
    regular = [cls for cls in modules.ModuleSpec.__subclasses__() if cls is not Const]
    assert len(regular) == 7
    for cls in regular:
        assert modules._CONSTRUCTORS[cls.name] is cls


@pytest.mark.parametrize(
    "cls, args",
    [(LieLayer, (2.0,)), (Ext, (True, Std())), (Const, (2.5,)), (Sum, (Std(), 3)), (Hom, (Std(), "std"))],
)
def test_spec_arguments_are_typed(cls, args):
    # each of these printed a form that the grammar cannot read back
    with pytest.raises(ValueError, match=f"^{cls.name} needs"):
        cls(*args)


def test_parse_errors():
    for bad in ("", "std dual", "hom(std)", "ext(a, std)", "frob(std)", "std (x)", "lie()"):
        with pytest.raises(ValueError):
            parse_module_spec(bad)


def test_based_module_json_export():
    import json

    from nilstab.modules import based_module_to_json

    m = eval_module(Hom(Std(), LieLayer(2)), 2)
    swap = ((0, 1), (1, 0))
    obj = based_module_to_json(m, [swap])
    assert obj["rank_of_group"] == 2
    assert len(obj["basis"]) == m.rank
    assert obj["actions"][0]["matrix"] == [[0, 1], [1, 0]]
    assert obj["actions"][0]["action"] == [list(row) for row in m.matrix(swap)]
    assert len(obj["stab"]) == eval_module(Hom(Std(), LieLayer(2)), 3).rank
    json.dumps(obj)  # serializable as-is


def test_stab_is_inclusion_of_basis_labels():
    for spec in ALL_SPECS:
        for r in (1, 2, 3):
            m = eval_module(spec, r)
            m1 = eval_module(spec, r + 1)
            assert [m1.basis[i] for i in m.stab_index] == list(m.basis)
            assert m.stab == tuple(
                tuple(1 if m.stab_index[j] == i else 0 for j in range(m.rank))
                for i in range(m1.rank)
            )


# Exports of the nested specs, recorded when the stabilization was still
# assembled constructor by constructor from kron, compound and block_diag.
STAB_GOLDEN = [
    (
        Hom(Hom(Std(), DualStd()), Std()),
        '{"actions":[{"action":[[0,0,0,0,0,0,0,1],[0,0,0,0,0,0,1,0],[0,0,0,0,0,1,0,0],[0,'
        '0,0,0,1,0,0,0],[0,0,0,1,0,0,0,0],[0,0,1,0,0,0,0,0],[0,1,0,0,0,0,0,0],[1,0,0,0,0,'
        '0,0,0]],"matrix":[[0,1],[1,0]]}],"basis":["(1,((*,1),1))","(1,((*,1),2))","(1,(('
        '*,2),1))","(1,((*,2),2))","(2,((*,1),1))","(2,((*,1),2))","(2,((*,2),1))","(2,(('
        '*,2),2))"],"rank_of_group":2,"spec":"hom(hom(std, dual), std)","stab":[[1,0,0,0,'
        '0,0,0,0],[0,1,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,1,0,0,0,0,0],[0,0,0,1,0,0,0,0]'
        ',[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,'
        '0,1,0,0,0],[0,0,0,0,0,1,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,1,0],[0,0,0,0,0,0,0,'
        '1],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,'
        '0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,'
        '0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0]]}'
    ),
    (
        Hom(Ext(2, Std()), LieLayer(2)),
        '{"actions":[{"action":[[1]],"matrix":[[0,1],[1,0]]}],"basis":["((1,2),(1,2))"],"'
        'rank_of_group":2,"spec":"hom(ext(2, std), lie(2))","stab":[[1],[0],[0],[0],[0],['
        '0],[0],[0],[0]]}'
    ),
    (
        Ext(2, Hom(Std(), LieLayer(2))),
        '{"actions":[{"action":[[-1]],"matrix":[[0,1],[1,0]]}],"basis":["(((1,2),1),((1,2'
        '),2))"],"rank_of_group":2,"spec":"ext(2, hom(std, lie(2)))","stab":[[1],[0],[0],'
        '[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],'
        '[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0],[0]]}'
    ),
    (
        Sum(LieLayer(2), DualStd()),
        '{"actions":[{"action":[[-1,0,0],[0,0,1],[0,1,0]],"matrix":[[0,1],[1,0]]}],"basis'
        '":["(L,(1,2))","(R,(*,1))","(R,(*,2))"],"rank_of_group":2,"spec":"sum(lie(2), du'
        'al)","stab":[[1,0,0],[0,0,0],[0,0,0],[0,1,0],[0,0,1],[0,0,0]]}'
    ),
]


@pytest.mark.parametrize("spec, expected", STAB_GOLDEN, ids=[str(s) for s, _ in STAB_GOLDEN])
def test_based_module_json_golden(spec, expected):
    import json

    from nilstab.modules import based_module_to_json

    obj = based_module_to_json(eval_module(spec, 2), [((0, 1), (1, 0))])
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == expected

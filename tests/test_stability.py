"""Generator sets, coinvariants, and the degree-0 stability scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilstab import intlinalg, stability
from nilstab.autos import abelianization_matrix, is_automorphism, project, stabilize, Endo
from nilstab.intlinalg import (
    FinAbPresentation,
    cokernel_presentation,
    det,
    identity,
    lattice_basis,
    lattice_contains,
)
from nilstab.modules import (
    Const,
    DualStd,
    Hom,
    Ext,
    LieLayer,
    Std,
    Tensor,
    eval_module,
    _block_embed,
    restrict_action,
)
from nilstab.stability import (
    _Coinv,
    _coinv,
    _induced_iso,
    _minus_unit,
    aut_generators,
    coinvariants,
    gl_generators,
    kernel_homology_rank,
    kernel_homology_rank_predicted,
    scan_generators,
    stability_scan,
)
from nilstab.words import witt_rank


def test_gl_generators_rank_one():
    assert gl_generators(1) == [((-1,),)]


def test_gl_generators_structure():
    for r in (1, 2, 3, 4):
        gens = gl_generators(r)
        # r(r-1) elementaries, one transposition per unordered pair, one sign flip
        assert len(gens) == r * (r - 1) + r * (r - 1) // 2 + 1
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert det(g) in (1, -1)


def test_gl_generators_contents():
    gens = gl_generators(2)
    assert ((1, 1), (0, 1)) in gens  # E_12(1)
    assert ((1, 0), (1, 1)) in gens  # E_21(1)
    assert ((0, 1), (1, 0)) in gens  # transposition
    assert ((-1, 0), (0, 1)) in gens  # sign flip


def test_aut_generators_class_one():
    gens = aut_generators(3, 1)
    assert len(gens) == len(gl_generators(3))
    for e in gens:
        assert is_automorphism(e)


def test_aut_generators_kernel_count():
    # class 2 at rank 2 adds one kernel translation per Hom basis element
    gens = aut_generators(2, 2)
    gl_count = len(gl_generators(2))
    assert len(gens) == gl_count + 2 * witt_rank(2, 2)
    kernel = [e for e in gens[gl_count:]]
    for e in kernel:
        assert project(e) == Endo.identity(2, 1)
    for e in gens:
        assert is_automorphism(e)


def test_aut_generators_all_class_steps():
    gens = aut_generators(2, 3)
    expected = len(gl_generators(2)) + 2 * witt_rank(2, 2) + 2 * witt_rank(2, 3)
    assert len(gens) == expected
    for e in gens:
        assert e.class_bound == 3
        assert is_automorphism(e)


def test_coinvariants_no_generators():
    assert coinvariants([], 4) == FinAbPresentation(4, ())


def test_coinvariants_gl1_standard():
    assert coinvariants([((-1,),)], 1) == FinAbPresentation(0, (2,))


def test_coinvariants_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        coinvariants([((1.9,),)], 1)
    with pytest.raises(ValueError, match="integers"):
        coinvariants([((True,),)], 1)


def test_coinvariants_gl2_standard_trivial():
    mats = gl_generators(2)
    assert coinvariants(mats, 2) == FinAbPresentation(0, ())


def test_coinvariants_generating_set_independence():
    # alternative set: E_12(1), an r-cycle, a transposition, diag(-1,1,...)
    for r in (2, 3, 4):
        primary = [eval_module(Std(), r).matrix(a) for a in gl_generators(r)]
        alt_mats = []
        e12 = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        e12[0][1] = 1
        alt_mats.append(tuple(map(tuple, e12)))
        cycle = [[1 if j == (i + 1) % r else 0 for j in range(r)] for i in range(r)]
        alt_mats.append(tuple(map(tuple, cycle)))
        swap = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        swap[0][0] = swap[1][1] = 0
        swap[0][1] = swap[1][0] = 1
        alt_mats.append(tuple(map(tuple, swap)))
        flip = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        flip[0][0] = -1
        alt_mats.append(tuple(map(tuple, flip)))
        assert coinvariants(primary, r) == coinvariants(alt_mats, r)


def test_kernel_generators_act_trivially():
    # degree-0 content of the restriction remark: kernel endos give zero relations
    for spec in (Std(), DualStd(), Tensor(Std(), DualStd())):
        for c in (2, 3):
            gens = aut_generators(2, c)
            for e in gens:
                if abelianization_matrix(e) == identity(2):
                    mod = eval_module(spec, 2)
                    assert restrict_action(spec, e) == identity(mod.rank)


def sparse(cols):
    """Dense column tuples as sparse columns: (row, value) pairs, no zeros."""
    return [tuple((i, x) for i, x in enumerate(col) if x) for col in cols]


def _same_relation_lattice(mats_a, mats_b, dim):
    """Coinvariants agree, and so do the relation lattices behind them."""
    assert coinvariants(mats_a, dim) == coinvariants(mats_b, dim)
    lattices = []
    for mats in (mats_a, mats_b):
        cols = [tuple(g[i][j] - (i == j) for i in range(dim)) for g in mats for j in range(dim)]
        lattices.append(lattice_basis(sparse(cols), dim))
    for basis, other in (lattices, lattices[::-1]):
        assert all(lattice_contains(other, col) for col in basis)


@pytest.mark.parametrize(
    "spec",
    [Std(), DualStd(), Tensor(Std(), DualStd()), Hom(Std(), Ext(2, DualStd()))],
    ids=str,
)
def test_gl_generators_match_aut_generators(spec):
    # the scans use GL_r(Z) generators; the class-c automorphism generators,
    # restricted through the abelianization, are the reference
    for c in (2, 3):
        for r in (1, 2, 3, 4):
            mod, mod_next = eval_module(spec, r), eval_module(spec, r + 1)
            gens = aut_generators(r, c)
            _same_relation_lattice(
                [restrict_action(spec, e) for e in gens],
                [mod.matrix(a) for a in gl_generators(r)],
                mod.rank,
            )
            _same_relation_lattice(
                [restrict_action(spec, stabilize(e)) for e in gens],
                [mod_next.matrix(_block_embed(a)) for a in gl_generators(r)],
                mod_next.rank,
            )


def test_scan_generators_are_unimodular():
    # the sign alone at r = 1, no cycle at r = 2
    assert [len(scan_generators(r)) for r in range(1, 7)] == [1, 3, 4, 4, 4, 4]
    for r in range(1, 7):
        gens = scan_generators(r)
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert len(g) == r and det(g) in (1, -1)


@pytest.mark.parametrize(
    "spec",
    [
        Std(),
        DualStd(),
        LieLayer(2),
        LieLayer(3),
        Ext(2, Std()),
        Tensor(Std(), DualStd()),
        Hom(Std(), Ext(2, DualStd())),
    ],
    ids=str,
)
def test_scan_generators_span_the_gl_lattice(spec):
    # the middle term's four generators give the relation lattice of
    # gl_generators, at rank r and embedded along diag(a, 1) into rank r + 1
    for r in range(1, 6):
        mod, mod_next = eval_module(spec, r), eval_module(spec, r + 1)
        _same_relation_lattice(
            [mod.matrix(a) for a in scan_generators(r)],
            [mod.matrix(a) for a in gl_generators(r)],
            mod.rank,
        )
        _same_relation_lattice(
            [mod_next.matrix(_block_embed(a)) for a in scan_generators(r)],
            [mod_next.matrix(_block_embed(a)) for a in gl_generators(r)],
            mod_next.rank,
        )


def test_scan_middle_term_takes_scan_generators(monkeypatch):
    calls = []

    def recorded(actions, dim):
        calls.append((len(actions), dim))
        return _coinv(actions, dim)

    monkeypatch.setattr(stability, "_coinv", recorded)
    ranks = range(1, 6)
    stability_scan(Tensor(Std(), DualStd()), 1, ranks)
    main = [(len(gl_generators(r)), r * r) for r in ranks]
    mid = [(len(scan_generators(r)), (r + 1) ** 2) for r in ranks[:-1]]
    assert calls == main + mid
    assert [n for n, _ in mid] == [1, 3, 4, 4]


def test_scan_constant():
    rep = stability_scan(Const(1), 3, range(1, 4))
    assert [e.presentation for e in rep.entries] == [FinAbPresentation(1, ())] * 3
    assert rep.stabilized_from == 1
    assert all(e.map_to_next_is_iso for e in rep.entries[:-1])


def test_scan_standard_values():
    rep = stability_scan(Std(), 1, range(1, 5))
    expected = [FinAbPresentation(0, (2,))] + [FinAbPresentation(0, ())] * 3
    assert [e.presentation for e in rep.entries] == expected
    assert rep.stabilized_from == 2
    assert rep.entries[0].map_to_next_is_iso is False
    assert rep.entries[1].map_to_next_is_iso is True


def test_scan_class_independence():
    # the action factors through the abelianization, so classes agree
    for spec in (Std(), Tensor(Std(), DualStd())):
        rep1 = stability_scan(spec, 1, range(1, 5))
        rep2 = stability_scan(spec, 2, range(1, 5))
        rep3 = stability_scan(spec, 3, range(1, 5))
        values = [e.presentation for e in rep1.entries]
        assert [e.presentation for e in rep2.entries] == values
        assert [e.presentation for e in rep3.entries] == values
        assert rep1.stabilized_from == rep2.stabilized_from == rep3.stabilized_from


def test_scan_report_formats():
    rep = stability_scan(Std(), 1, range(1, 4))
    obj = rep.to_json_obj()
    assert [row["r"] for row in obj] == [1, 2, 3]
    assert set(obj[0]) == {"r", "free_rank", "invariant_factors", "map_to_next_is_iso"}
    assert obj[-1]["map_to_next_is_iso"] is None
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "r,free_rank,invariant_factors,map_to_next_is_iso"
    text = rep.to_text()
    assert "stabilized from r = 2" in text


def test_scan_gap_in_range():
    rep = stability_scan(Const(1), 1, [1, 3])
    assert all(e.map_to_next_is_iso is None for e in rep.entries)
    assert rep.stabilized_from is None


def test_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        stability_scan(Std(), 1, [])
    with pytest.raises(ValueError):
        stability_scan(Std(), 1, [2, 2])
    with pytest.raises(ValueError):
        stability_scan(Std(), 1, [3, 2])
    with pytest.raises(ValueError):
        stability_scan(Std(), 0, [1, 2])


def test_kernel_homology_rank_examples():
    assert kernel_homology_rank(1, 0, Const(1), 2) == 1
    assert kernel_homology_rank(1, 2, Const(1), 2) == 1
    assert kernel_homology_rank(2, 1, Std(), 2) == 8
    for c in (1, 2):
        for t in (0, 1, 2):
            for r in (1, 2, 3):
                for coeff in (Const(1), Std()):
                    assert kernel_homology_rank(c, t, coeff, r) == (
                        kernel_homology_rank_predicted(c, t, coeff, r)
                    )


def test_scan_middle_term_diagnostics():
    # the free summand on the new coordinate breaks the coefficient leg while
    # the composite map stays an isomorphism
    rep = stability_scan(Std(), 1, range(2, 4))
    entry = rep.entries[0]
    assert entry.map_to_next_is_iso is True
    assert entry.stab_leg_is_iso is False
    assert entry.group_leg_is_iso is False


_onto_cases = st.integers(1, 7).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=8),
        st.lists(st.integers(0, dim - 1), unique=True),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_onto_cases)
def test_onto_by_projection_matches_unit_vectors(case):
    """Z^dim / (L + span e_i, i in S) is Z^rest / pi(L), pi dropping the rows in S;
    oracle: the unit vectors stacked onto the echelon basis of L."""
    dim, cols, stab_index = case
    basis = lattice_basis(sparse(cols), dim)
    units = [tuple(int(k == i) for k in range(dim)) for i in stab_index]
    expected = cokernel_presentation(sparse(units + basis), dim)
    rest = [i for i in range(dim) if i not in stab_index]
    projected = [tuple(col[i] for i in rest) for col in basis]
    assert cokernel_presentation(sparse(projected), len(rest)) == expected
    # the scan's onto test, from a source with the zero lattice and the same type
    target = _Coinv(dim, intlinalg._pivots(basis), cokernel_presentation(sparse(cols), dim))
    source = _Coinv(len(stab_index), {}, target.presentation)
    assert _induced_iso(tuple(stab_index), source, target) is expected.is_trivial()


def test_induced_iso_between_trivial_presentations(monkeypatch):
    def refuse(*_):
        raise AssertionError("a trivial target needs no lattice work")

    monkeypatch.setattr(stability, "_reduce", refuse)
    monkeypatch.setattr(stability, "cokernel_presentation", refuse)
    trivial = FinAbPresentation(0, ())
    unit = {i: tuple(int(i == j) for j in range(3)) for i in range(3)}
    source = _Coinv(2, {0: (1, 0), 1: (0, 1)}, trivial)
    assert _induced_iso((0, 2), source, _Coinv(3, unit, trivial)) is True
    # only the source trivial: the target is Z, or Z/2 with a pivot 2
    free = _Coinv(3, {0: unit[0], 1: unit[1]}, FinAbPresentation(1, ()))
    torsion = _Coinv(3, {**free.pivots, 2: (0, 0, 2)}, FinAbPresentation(0, (2,)))
    assert _induced_iso((0, 2), source, free) is False
    assert _induced_iso((0, 2), source, torsion) is False
    # the scan's own coinvariants of a module with H_0 = 0 at both ranks
    mods = [eval_module(Tensor(LieLayer(3), DualStd()), r) for r in (3, 4)]
    small, big = (
        _coinv([m.action(a) for a in gl_generators(m.rank_of_group)], m.rank) for m in mods
    )
    assert _induced_iso(mods[0].stab_index, small, big) is True


def test_coinv_echelons_once(monkeypatch):
    calls = []

    def counted(cols, dim):
        calls.append(dim)
        return lattice_basis(cols, dim)

    monkeypatch.setattr(intlinalg, "lattice_basis", counted)
    monkeypatch.setattr(stability, "lattice_basis", counted)
    mod = eval_module(Tensor(Std(), DualStd()), 3)
    coinv = _coinv([mod.action(a) for a in gl_generators(3)], mod.rank)
    assert calls == [9] and coinv.presentation == FinAbPresentation(1, ())


def test_scan_never_calls_lattice_contains(monkeypatch):
    def refuse(*_):
        raise AssertionError("lattice_contains called")

    monkeypatch.setattr(intlinalg, "lattice_contains", refuse)
    rep = stability_scan(Tensor(Std(), DualStd()), 1, range(1, 5))
    assert [e.map_to_next_is_iso for e in rep.entries] == [True, True, True, None]


def test_echelon_entries_stay_small_on_lie_layers():
    # unreduced, the echelon of this lattice reaches 26-bit entries
    mod = eval_module(LieLayer(5), 3)
    cols = [_minus_unit(col, j) for a in gl_generators(3) for j, col in enumerate(mod.action(a))]
    basis = lattice_basis(cols, mod.rank)
    assert max(abs(x).bit_length() for col in basis for x in col) <= 8


def test_scan_lie_six():
    # unreduced echelon entries grow past 280,000 bits here, and the scan takes minutes
    rep = stability_scan(LieLayer(6), 1, range(1, 4))
    assert [str(e.presentation) for e in rep.entries] == ["0", "Z/2 + Z/2", "Z/6"]

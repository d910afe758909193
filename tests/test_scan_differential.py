"""Whole stability scans against a dense reference.

The reference shares none of lattice_basis, _cokernel or _induced_iso.  For
each rank it stacks the columns of g - 1 over the dense action matrices
(BasedModule.matrix) of every element of gl_generators(r), and reads the
coinvariants off snf, whose U*A*V = D it checks.  A comparison map is an
isomorphism when source and target have the same type and the map is onto;
onto means that the unit vectors at stab_index, stacked onto the target's
relation columns, leave a trivial snf cokernel.  The legs are the ones that
stability_scan reports: coefficient stabilization at rank r, then the group
enlarged along diag(a, 1), and their composite.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilstab.intlinalg import FinAbPresentation, freeze, matmul, snf
from nilstab.modules import (
    Const,
    DualStd,
    Ext,
    Hom,
    LieLayer,
    ModuleSpec,
    Std,
    Sum,
    Tensor,
    eval_module,
    module_rank,
)
from nilstab.stability import ScanEntry, gl_generators, stability_scan

MAX_MODULE_RANK = 20

LEAVES = st.sampled_from([Std(), DualStd(), Const(), Const(2), LieLayer(2), LieLayer(3)])


def _combine(inner):
    return st.one_of(
        st.builds(Sum, inner, inner),
        st.builds(Tensor, inner, inner),
        st.builds(Hom, inner, inner),
        st.builds(Ext, st.integers(1, 3), inner),
    )


DEPTH_ONE = st.one_of(LEAVES, _combine(LEAVES))
SPECS = st.one_of(DEPTH_ONE, _combine(DEPTH_ONE))
RANKS = st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True).map(sorted)


def _parts(spec):
    yield spec
    for part in vars(spec).values():
        if isinstance(part, ModuleSpec):
            yield from _parts(part)


@st.composite
def _scans(draw):
    """A rank list within 1..4 and a spec whose every part has rank <= 20 there;
    module ranks never fall with r, so the top rank bounds them."""
    ranks = draw(RANKS)

    def small(spec):
        return all(module_rank(p, ranks[-1]) <= MAX_MODULE_RANK for p in _parts(spec))

    return draw(SPECS.filter(small)), ranks


def _presentation(columns, dim: int) -> FinAbPresentation:
    """Z^dim modulo the span of the columns, by a dense snf; zero and repeated
    columns are dropped first, as they span nothing new."""
    columns = sorted(set(columns) - {(0,) * dim})
    if not columns:
        return FinAbPresentation(dim, ())
    a = freeze([[col[i] for col in columns] for i in range(dim)])
    res = snf(a)
    assert matmul(matmul(res.U, a), res.V) == res.D
    diagonal = res.diagonal()
    assert all(x == 0 or i == j for i, row in enumerate(res.D) for j, x in enumerate(row))
    nonzero = [d for d in diagonal if d]
    assert all(d > 0 for d in nonzero) and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    return FinAbPresentation(dim - len(nonzero), tuple(d for d in nonzero if d > 1))


def _relations(mod, matrices) -> list:
    """Every column of g - 1, for the dense action g of each matrix."""
    n = mod.rank
    columns = []
    for a in matrices:
        g = mod.matrix(a)
        columns += [tuple(g[i][j] - (i == j) for i in range(n)) for j in range(n)]
    return columns


def _block(a):
    r = len(a)
    return tuple(tuple(row) + (0,) for row in a) + ((0,) * r + (1,),)


def _iso(stab_index, source, target) -> bool:
    """Whether coordinate j -> stab_index[j] induces an isomorphism of the
    coinvariants; source and target are (relation columns, dim)."""
    (source_rels, source_dim), (target_rels, dim) = source, target
    units = [tuple(int(i == k) for i in range(dim)) for k in stab_index]
    return (
        _presentation(source_rels, source_dim) == _presentation(target_rels, dim)
        and _presentation(units + target_rels, dim) == FinAbPresentation(0, ())
    )


def reference_scan(spec, ranks) -> tuple:
    """(entries, stabilized_from) as stability_scan defines them."""
    coinv = {}
    for r in ranks:
        mod = eval_module(spec, r)
        coinv[r] = (_relations(mod, gl_generators(r)), mod.rank)
    entries, flags = [], {}
    for r in ranks:
        presentation = _presentation(*coinv[r])
        if r + 1 not in coinv:
            entries.append(ScanEntry(r, presentation, None, None, None))
            continue
        mod, next_mod = eval_module(spec, r), eval_module(spec, r + 1)
        mid = (_relations(next_mod, [_block(a) for a in gl_generators(r)]), next_mod.rank)
        stab_leg = _iso(mod.stab_index, coinv[r], mid)
        group_leg = _iso(range(next_mod.rank), mid, coinv[r + 1])
        flags[r] = _iso(mod.stab_index, coinv[r], coinv[r + 1])
        entries.append(ScanEntry(r, presentation, flags[r], stab_leg, group_leg))
    stabilized_from = None
    for r in sorted(flags, reverse=True):
        if not flags[r]:
            break
        stabilized_from = r
    return tuple(entries), stabilized_from


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_scans())
@example((Std(), [2, 3]))
@example((DualStd(), [2, 3]))
@example((Ext(3, Std()), [3, 4]))  # H_0 at r=3 is Z/2 under GL_3(Z), Z under SL_3(Z)
@example((Sum(Std(), LieLayer(2)), [1, 2]))  # Z/2 -> Z/2, same type but the zero map
def test_scan_matches_dense_reference(case):
    spec, ranks = case
    report = stability_scan(spec, 1, ranks)
    assert (report.entries, report.stabilized_from) == reference_scan(spec, ranks)

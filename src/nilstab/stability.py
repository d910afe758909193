"""Degree-0 homological stability harness.

Coinvariants of a based module under a group given by generator matrices are
the cokernel of the lattice spanned by the columns of every (g - 1).  The
automorphism group of the free nilpotent group acts on a polynomial module
through its abelianization, which maps onto GL_r(Z), so scans take the
coinvariants of GL_r(Z) and their values do not depend on the class.
Coinvariants need only a generating set, since the relation lattice is I*M
for any set: the rank-r terms take gl_generators(r), and the middle term of
a comparison, GL_r acting on the rank-(r+1) coefficients, takes the four
scan_generators(r) embedded along diag(a, 1).

For a consecutive pair of ranks the composite comparison map on
coinvariants is induced by the module stabilization; it is an isomorphism
precisely when the two groups are abstractly isomorphic and the map is onto
(finitely generated abelian groups are Hopfian).  The map includes basis
coordinates, so it is onto iff the target relations, with those coordinates
dropped, span the rest.  Each relation lattice is echelonned once, and its
pivot table serves the presentation and both tests.  The two factor maps
(coefficient stabilization at a fixed group, then enlarging the group along
diag(a, 1)) are computed as well and reported as diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import intlinalg
from .autos import HomMap, endo_from_matrix, lift_to_class, sharp
from .intlinalg import FinAbPresentation, cokernel_presentation, lattice_basis, sparse_columns
from .intlinalg import _cokernel, _pivots, _reduce
from .modules import ModuleSpec, _block_embed, eval_module, kernel_homology_module
from .words import witt_rank


def gl_generators(r: int) -> list:
    """Elementary matrices E_ij(1), the transpositions, and diag(-1, 1, ..., 1)."""
    if r < 1:
        raise ValueError("need r >= 1")
    gens = []
    for i in range(r):
        for j in range(r):
            if i != j:
                m = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
                m[i][j] = 1
                gens.append(intlinalg.freeze(m))
    for i in range(r):
        for j in range(i + 1, r):
            m = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
            gens.append(intlinalg.freeze(m))
    flip = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
    flip[0][0] = -1
    gens.append(intlinalg.freeze(flip))
    return gens


def scan_generators(r: int) -> list:
    """E_12(1), the transposition (1 2), the r-cycle and diag(-1, 1, ..., 1),
    which generate GL_r(Z) (Coxeter and Moser, ch. 7; Trott 1962).  The
    cycle is the transposition at r = 2, and only the sign is left at r = 1.
    E_12, (1 2) and the sign are gl_generators' first elementary matrix,
    first transposition and last matrix."""
    gens = gl_generators(r)
    if r == 1:
        return gens
    out = [gens[0], gens[r * (r - 1)]]
    if r > 2:
        out.append(intlinalg.freeze([[1 if b == (a + 1) % r else 0 for b in range(r)] for a in range(r)]))
    return out + [gens[-1]]


@lru_cache(maxsize=None)
def aut_generators(r: int, c: int) -> tuple:
    """Generators of the automorphism group: lifted GL generators plus the
    kernel translations collected at every intermediate class."""
    if r < 1 or c < 1:
        raise ValueError("need r >= 1 and c >= 1")
    gens = [endo_from_matrix(a, r, c) for a in gl_generators(r)]
    for k in range(2, c + 1):
        rows = witt_rank(r, k)
        for row in range(rows):
            for col in range(r):
                beta = HomMap.basis_element(r, k, row, col)
                gens.append(lift_to_class(sharp(beta), c))
    return tuple(gens)


def coinvariants(action_matrices, ambient_rank: int) -> FinAbPresentation:
    """Presentation of Z^k modulo the columns of every (g - 1), for dense matrices g."""
    matrices = list(action_matrices)
    for g in matrices:
        if len(g) != ambient_rank or any(len(row) != ambient_rank for row in g):
            raise ValueError("action matrix has wrong size")
    actions = [sparse_columns(intlinalg.freeze(g)) for g in matrices]
    return _coinv(actions, ambient_rank).presentation


@dataclass(frozen=True)
class _Coinv:
    """A coinvariant group with the pivot table of its relation lattice."""

    dim: int
    pivots: dict  # echelon pivot row -> column, in row order
    presentation: FinAbPresentation


def _minus_unit(col: tuple, j: int) -> tuple:
    """A sparse column minus the unit vector e_j."""
    for k, (i, x) in enumerate(col):
        if i == j:
            return col[:k] + col[k + 1 :] if x == 1 else col[:k] + ((j, x - 1),) + col[k + 1 :]
        if i > j:
            return col[:k] + ((j, -1),) + col[k:]
    return col + ((j, -1),)


def _coinv(actions, dim: int) -> _Coinv:
    """Coinvariants under the actions, each given by its sparse columns; every
    column of every g - 1 goes to the echelon, zero columns included."""
    cols = [_minus_unit(col, j) for g in actions for j, col in enumerate(g)]
    pivots = _pivots(lattice_basis(cols, dim))
    return _Coinv(dim, pivots, _cokernel(pivots, dim))


def _induced_iso(stab_index: tuple, source: _Coinv, target: _Coinv) -> bool:
    """Whether the basis inclusion sending source coordinate j to target
    coordinate stab_index[j] induces an isomorphism of the presented cokernels.

    Needs the image of the source lattice inside the target lattice; then
    iso = same type + onto.  The image is generated by the classes of the
    unit vectors e_i, i in stab_index, so onto means Z^dim / (L + span e_i)
    = 0, and that quotient is Z^rest / pi(L), pi dropping the stab_index rows.
    A trivial target presentation means L = Z^dim, which settles both.
    """
    if source.presentation != target.presentation:
        return False
    if target.presentation.is_trivial():
        return True
    for col in source.pivots.values():
        image = [0] * target.dim
        for i, x in zip(stab_index, col):
            image[i] = x
        if any(_reduce(target.pivots, image)):
            raise AssertionError("comparison map does not respect the relation lattices")
    rest = sorted(set(range(target.dim)).difference(stab_index))
    projected = [
        tuple((k, col[i]) for k, i in enumerate(rest) if col[i]) for col in target.pivots.values()
    ]
    return cokernel_presentation(projected, len(rest)).is_trivial()


@dataclass(frozen=True)
class ScanEntry:
    r: int
    presentation: FinAbPresentation
    map_to_next_is_iso: bool | None
    stab_leg_is_iso: bool | None
    group_leg_is_iso: bool | None


@dataclass(frozen=True)
class ScanReport:
    spec_text: str
    class_bound: int
    entries: tuple
    stabilized_from: int | None

    def stabilized(self) -> bool:
        return self.stabilized_from is not None

    def to_json_obj(self) -> list:
        return [
            {
                "r": e.r,
                "free_rank": e.presentation.free_rank,
                "invariant_factors": list(e.presentation.invariant_factors),
                "map_to_next_is_iso": e.map_to_next_is_iso,
            }
            for e in self.entries
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["r,free_rank,invariant_factors,map_to_next_is_iso"]
        for e in self.entries:
            factors = "|".join(str(d) for d in e.presentation.invariant_factors)
            iso = "" if e.map_to_next_is_iso is None else str(e.map_to_next_is_iso).lower()
            lines.append(f"{e.r},{e.presentation.free_rank},{factors},{iso}")
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = [f"scan {self.spec_text} at class {self.class_bound}"]
        for e in self.entries:
            line = f"  r={e.r}: H_0 = {e.presentation}"
            if e.map_to_next_is_iso is not None:
                line += f"; map to r={e.r + 1} iso: {e.map_to_next_is_iso}"
                line += f" (coefficient leg {e.stab_leg_is_iso}, group leg {e.group_leg_is_iso})"
            lines.append(line)
        if self.stabilized_from is not None:
            lines.append(f"  stabilized from r = {self.stabilized_from}")
        else:
            lines.append("  not stabilized in range")
        return "\n".join(lines)


def stability_scan(spec: ModuleSpec, c: int, r_range) -> ScanReport:
    """Coinvariants of the automorphism groups on the module across a rank range,
    with the composite comparison map tested per consecutive pair.  They are
    the coinvariants of gl_generators(r), since automorphisms act through the
    abelianization, so they do not depend on c, which is validated and reported.
    The middle term of each pair, GL_r on the rank-(r+1) coefficients, takes
    the four scan_generators(r): any generating set gives the same lattice."""
    ranks = list(r_range)
    if c < 1:
        raise ValueError("need c >= 1")
    if not ranks:
        raise ValueError("empty rank range")
    if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[0] < 1:
        raise ValueError("rank range must be strictly increasing and start at >= 1")

    gens = {r: gl_generators(r) for r in ranks}
    per_rank: dict = {}
    for r in ranks:
        mod = eval_module(spec, r)
        per_rank[r] = (mod, _coinv([mod.action(a) for a in gens[r]], mod.rank))

    entries = []
    iso_flags: dict = {}
    for idx, r in enumerate(ranks):
        mod, coinv_r = per_rank[r]
        if idx + 1 == len(ranks) or ranks[idx + 1] != r + 1:
            entries.append(ScanEntry(r, coinv_r.presentation, None, None, None))
            continue
        mod_next, coinv_next = per_rank[r + 1]
        # middle term: the smaller group, acting on the stabilized coefficients
        mid = [mod_next.action(_block_embed(a)) for a in scan_generators(r)]
        coinv_mid = _coinv(mid, mod_next.rank)
        stab_leg = _induced_iso(mod.stab_index, coinv_r, coinv_mid)
        group_leg = _induced_iso(tuple(range(mod_next.rank)), coinv_mid, coinv_next)
        composite = _induced_iso(mod.stab_index, coinv_r, coinv_next)
        iso_flags[r] = composite
        entries.append(ScanEntry(r, coinv_r.presentation, composite, stab_leg, group_leg))

    stabilized_from = None
    for r in reversed([r for r in ranks[:-1] if r + 1 in ranks]):
        if not iso_flags[r]:
            break
        stabilized_from = r
    return ScanReport(str(spec), c, tuple(entries), stabilized_from)


def kernel_homology_rank(c: int, t: int, coefficients: ModuleSpec, r: int) -> int:
    """Rank of the degree-t kernel homology module evaluated at rank r."""
    return eval_module(kernel_homology_module(c, t, coefficients), r).rank


def kernel_homology_rank_predicted(c: int, t: int, coefficients: ModuleSpec, r: int) -> int:
    """Binomial count: exterior power of the free kernel times the coefficient rank."""
    hom_rank = r * witt_rank(r, c + 1)
    return comb(hom_rank, t) * eval_module(coefficients, r).rank

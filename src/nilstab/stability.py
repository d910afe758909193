"""Degree-0 homological stability harness.

Coinvariants of a based module under a group given by generator matrices are
the cokernel of the lattice spanned by the columns of every (g - 1).  The
automorphism group of the free nilpotent group acts on a polynomial module
through its abelianization, which maps onto GL_r(Z), so scans take the
coinvariants of the GL_r(Z) generators and their values do not depend on the
class.  For a consecutive pair of ranks the composite comparison map on
coinvariants is induced by the module stabilization; it is an isomorphism
precisely when the two groups are abstractly isomorphic and the map is onto
(finitely generated abelian groups are Hopfian).  The two factor maps
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
from .intlinalg import FinAbPresentation, cokernel_presentation, lattice_basis
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
    """Presentation of Z^k modulo the columns of every (g - 1)."""
    matrices = list(action_matrices)
    for g in matrices:
        if len(g) != ambient_rank or any(len(row) != ambient_rank for row in g):
            raise ValueError("action matrix has wrong size")
    return _coinv([intlinalg.freeze(g) for g in matrices], ambient_rank).presentation


@dataclass(frozen=True)
class _Coinv:
    """A coinvariant group with its relation lattice kept for map computations."""

    dim: int
    lattice: tuple  # echelon basis columns
    presentation: FinAbPresentation


def _coinv(action_matrices, dim: int) -> _Coinv:
    cols = []
    for g in action_matrices:
        for j, col in enumerate(zip(*g)):  # column j of g - 1
            col = list(col)
            col[j] -= 1
            cols.append(tuple(col))
    basis = tuple(lattice_basis(cols, dim))
    return _Coinv(dim, basis, cokernel_presentation(basis, dim))


def _induced_iso(stab_index: tuple | None, source: _Coinv, target: _Coinv) -> bool:
    """Whether the basis inclusion sending source coordinate j to target
    coordinate stab_index[j] (None: the identity) induces an isomorphism of
    the presented cokernels.

    Needs the image of the lattice inside the target lattice; then iso = same
    type + onto, and onto means the image coordinates plus the lattice leave
    a trivial cokernel.  The identity is always onto.
    """
    if source.presentation != target.presentation:
        return False
    for col in source.lattice:
        if stab_index is None:
            image = col
        else:
            image = [0] * target.dim
            for i, x in zip(stab_index, col):
                image[i] = x
        if any(image) and not intlinalg.lattice_contains(target.lattice, image):
            raise AssertionError("comparison map does not respect the relation lattices")
    if stab_index is None:
        return True
    units = [tuple(1 if k == i else 0 for k in range(target.dim)) for i in stab_index]
    return cokernel_presentation(units + list(target.lattice), target.dim).is_trivial()


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
    abelianization, so they do not depend on c, which is validated and reported."""
    ranks = list(r_range)
    if c < 1:
        raise ValueError("need c >= 1")
    if not ranks:
        raise ValueError("empty rank range")
    if any(b <= a for a, b in zip(ranks, ranks[1:])) or ranks[0] < 1:
        raise ValueError("rank range must be strictly increasing and start at >= 1")

    per_rank: dict = {}
    for r in ranks:
        mod = eval_module(spec, r)
        per_rank[r] = (mod, _coinv([mod.action(a) for a in gl_generators(r)], mod.rank))

    entries = []
    iso_flags: dict = {}
    for idx, r in enumerate(ranks):
        mod, coinv_r = per_rank[r]
        if idx + 1 == len(ranks) or ranks[idx + 1] != r + 1:
            entries.append(ScanEntry(r, coinv_r.presentation, None, None, None))
            continue
        mod_next, coinv_next = per_rank[r + 1]
        # middle term: the smaller group, acting on the stabilized coefficients
        mid = [mod_next.action(_block_embed(a)) for a in gl_generators(r)]
        coinv_mid = _coinv(mid, mod_next.rank)
        stab_leg = _induced_iso(mod.stab_index, coinv_r, coinv_mid)
        group_leg = _induced_iso(None, coinv_mid, coinv_next)
        composite = _induced_iso(mod.stab_index, coinv_r, coinv_next)
        iso_flags[r] = composite
        entries.append(ScanEntry(r, coinv_r.presentation, composite, stab_leg, group_leg))

    stabilized_from = None
    pair_ranks = [r for r in ranks[:-1] if r + 1 in ranks]
    if pair_ranks and all(r in iso_flags for r in pair_ranks):
        candidate = None
        for r in reversed(pair_ranks):
            if iso_flags[r]:
                candidate = r
            else:
                break
        stabilized_from = candidate
    spec_text = str(spec)
    return ScanReport(spec_text, c, tuple(entries), stabilized_from)


def kernel_homology_rank(c: int, t: int, coefficients: ModuleSpec, r: int) -> int:
    """Rank of the degree-t kernel homology module evaluated at rank r."""
    return eval_module(kernel_homology_module(c, t, coefficients), r).rank


def kernel_homology_rank_predicted(c: int, t: int, coefficients: ModuleSpec, r: int) -> int:
    """Binomial count: exterior power of the free kernel times the coefficient rank."""
    hom_rank = r * witt_rank(r, c + 1)
    return comb(hom_rank, t) * eval_module(coefficients, r).rank

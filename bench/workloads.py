"""Workloads: seeded inputs, the timed operations, and their output checks.

`build(workload, seed, rep)` does the set-up: it generates a repetition's
inputs and returns a list of `(kind, run, check)` operations.  The timed phase
calls each `run()` in order (one client, closed loop, no threads); afterwards
`check(output)` must return True.

Operations call the library through its module attributes at call time
(`group.mul`, not a name bound here), so a traced run that wraps those
attributes sees the benchmark's own calls too.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial

from nilstab import autos, group, modules, series, stability, verify

GROUP_RANK, GROUP_CLASS, GROUP_OPS = 3, 6, 360
TOWER_RANK, TOWER_CLASS, TOWER_POOL, TOWER_POOL_SEED = 4, 4, 3, "tower-pool"
SCAN_RANKS = range(1, 7)
SCANS = {
    "scan-wide": (("tensor(lie(3), dual)", 1),),
    "scan-deep": (
        ("std", 4),
        ("dual", 4),
        ("tensor(std, dual)", 4),
        ("hom(std, ext(2, dual))", 4),
    ),
}
WORKLOADS = ("group", "tower", *SCANS)
EXPECTED_SCANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_scans.json")


def build(workload: str, seed: int, rep: int) -> list:
    rng = random.Random(f"{workload}/{seed}/{rep}")
    if workload == "group":
        return _group_ops(rng)
    if workload == "tower":
        return _tower_ops(rng)
    return _scan_ops(workload)


# --- group: fresh mul / inv / comm at (3, 6) -----------------------------------


def _group_op(kind: str, *operands):
    return getattr(group, kind)(*operands)


def _fresh_series(g):
    """Series of a fresh copy of g, so the oracle never reuses a cached embedding."""
    copy = group.GroupElement.from_exponents(g.rank, g.class_bound, g.exponents)
    return group.magnus_embed(copy).coefficients


def _group_check(kind: str, operands: tuple, out) -> bool:
    """Re-parse the printed result, re-embed it and compare with the series oracle."""
    reparsed = group.parse_element(group.element_to_text(out), out.rank, out.class_bound)
    c = out.class_bound
    fresh = [_fresh_series(x) for x in operands]
    if kind == "mul":
        oracle = series.poly_mul(*fresh, c)
    elif kind == "inv":
        oracle = series.poly_unit_inverse(*fresh, c)
    else:
        oracle = series.poly_group_commutator(*fresh, c)
    return group.magnus_embed(reparsed).coefficients == oracle


def _group_ops(rng) -> list:
    r, c = GROUP_RANK, GROUP_CLASS
    ops = []
    for i in range(GROUP_OPS):
        kind = ("mul", "inv", "comm")[i % 3]
        operands = tuple(
            verify.random_group_element(rng, r, c) for _ in range(1 if kind == "inv" else 2)
        )
        ops.append(
            (kind, partial(_group_op, kind, *operands), partial(_group_check, kind, operands))
        )
    return ops


# --- tower: invert, conjugate + flat, apply_endo at (4, 4) ----------------------


def _tower_step(e, beta, g):
    f = autos.invert(e)
    alpha = autos.sharp(beta)
    moved = autos.flat(autos.conjugate(e, alpha))
    return f, alpha, moved, autos.apply_endo(e, g)


def _step_ok(e, g, out) -> bool:
    f, alpha, moved, image = out
    identity = autos.Endo.identity(e.rank, e.class_bound)
    expected = autos.hom_gl_action(autos.abelianization_matrix(e), autos.flat(alpha))
    return (
        autos.compose(e, f) == identity
        and autos.compose(f, e) == identity
        and moved == expected
        and autos.apply_endo(f, image) == g
    )


def _tower_steps(inputs):
    return [_tower_step(e, beta, g) for e, beta, g in inputs]


def _tower_check(inputs, outs) -> bool:
    return all(_step_ok(e, g, out) for (e, _, g), out in zip(inputs, outs))


def _tower_ops(rng) -> list:
    """One operation: a step for each automorphism of a fixed pool.

    A step costs from 0.01 s to 3 s depending on the automorphism, and a run
    has time for six to nine steps.  Automorphisms drawn from the seed would
    make a run measure the luck of the draw, and so would the median of so
    few unequal steps.  The pool is drawn once by verify.random_automorphism
    from its own fixed seed, as the scans have fixed specs; the kernel maps
    and the group elements come from the run's seed.
    """
    r, c = TOWER_RANK, TOWER_CLASS
    pool_rng = random.Random(TOWER_POOL_SEED)
    inputs = [
        (
            verify.random_automorphism(pool_rng, r, c),
            verify.random_hom_map(rng, r, c),
            verify.random_group_element(rng, r, c),
        )
        for _ in range(TOWER_POOL)
    ]
    return [("steps", partial(_tower_steps, inputs), partial(_tower_check, inputs))]


# --- scans: fixed specs over ranks 1..6, checked against recorded reports -------


def _scans(specs):
    return [stability.stability_scan(spec, c, SCAN_RANKS) for spec, c in specs]


def _scans_check(expected: list, reports) -> bool:
    return [r.to_json() for r in reports] == expected


def _scan_ops(workload: str) -> list:
    """One operation: every scan of the workload, in one process, so later
    scans reuse the caches the earlier ones filled."""
    with open(EXPECTED_SCANS) as fh:
        recorded = json.load(fh)
    specs = [(modules.parse_module_spec(text), c) for text, c in SCANS[workload]]
    expected = [recorded[f"{text} @ c={c}"] for text, c in SCANS[workload]]
    return [("scans", partial(_scans, specs), partial(_scans_check, expected))]

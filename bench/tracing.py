"""Span recorder for the traced benchmark run (`--trace 1`).

`Tracer.install()` wraps the measured functions of each layer at every
`nilstab` module namespace that binds them, and the method
`BasedModule.action`.  Binding by name matters: `poly_mul` is imported into
`group`, `lie`, `autos`, `cli` and `verify`, so patching `series` alone would
miss most calls.  While recording, every wrapped call is a span (name, start,
end, parent span, operation id) kept in flat arrays; `write()` dumps them as
CSV.  A span's self time is its duration minus the time its direct children
cover.  The `lru_cache` counters are read through `cache_info()` when
recording starts and stops.

An untraced run never imports this module, so it runs with no wrappers.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from time import perf_counter

# (metric name, module, attribute): functions recorded as spans.
SPANS = (
    ("series.poly_mul", "series", "poly_mul"),
    ("series.poly_unit_inverse", "series", "poly_unit_inverse"),
    ("series.poly_unit_pow", "series", "poly_unit_pow"),
    ("group.peel", "group", "_peel"),
    ("group.magnus_embed", "group", "magnus_embed"),
    ("lie.lyndon_coordinates", "lie", "lyndon_coordinates"),
    ("lie.lie_layer_matrix", "lie", "lie_layer_matrix"),
    ("autos.apply_endo", "autos", "apply_endo"),
    ("autos.compose", "autos", "compose"),
    ("autos.invert", "autos", "invert"),
    ("autos.sharp", "autos", "sharp"),
    ("autos.flat", "autos", "flat"),
    ("autos.is_automorphism", "autos", "is_automorphism"),
    ("modules.restrict_action", "modules", "restrict_action"),
    ("intlinalg.lattice_basis", "intlinalg", "lattice_basis"),
    ("intlinalg.snf", "intlinalg", "snf"),
    ("intlinalg.lattice_contains", "intlinalg", "lattice_contains"),
    ("intlinalg.dense_build", "intlinalg", "identity"),
    ("intlinalg.dense_build", "intlinalg", "mat_sub"),
    ("intlinalg.dense_build", "intlinalg", "columns"),
    ("intlinalg.dense_build", "intlinalg", "matvec"),
    ("intlinalg.kron", "intlinalg", "kron"),
    ("stability.aut_generators", "stability", "aut_generators"),
    ("stability.coinv", "stability", "_coinv"),
    ("stability.induced_iso", "stability", "_induced_iso"),
)
# Functions whose calls are only counted.
COUNTED = (
    ("group.mul", "group", "mul"),
    ("group.inv", "group", "inv"),
    ("group.comm", "group", "comm"),
    ("autos.lift_to_class", "autos", "lift_to_class"),
    ("intlinalg.det", "intlinalg", "det"),
    ("intlinalg.int_inverse", "intlinalg", "int_inverse"),
)
CACHES = (
    ("group.basic_series", "group", "_basic_series"),
    ("lie.envelope_polynomial", "lie", "envelope_polynomial"),
    ("modules.eval_module", "modules", "eval_module"),
    ("stability.aut_generators", "stability", "aut_generators"),
)

# One echelon lattice built by lattice_basis: its input and output sizes.
Lattice = namedtuple("Lattice", "dim cols_in nonzero rank_out unit_pivots max_bits in_coinv")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span id, start, time covered by children]
        self._op = -1
        self.recording = False
        self.t0 = 0.0
        self._cache_fns: dict = {}
        self._cache_before: dict = {}
        self._cache_after: dict = {}
        # layer counters filled by the hooks below
        self.terms_out = 0
        self.compose_in_invert = 0
        self.action_misses = 0
        self.module_rank_max = 0
        self.lattices: list = []
        self.snf_cells = 0
        self.coinv_matrices = 0
        self.generators_built = 0
        self.generator_count: dict = {}  # (r, c) -> generators returned
        self._generator_key: dict = {}  # id(generator) -> (r, c)
        self.restricted: dict = {}  # (spec, r, c) -> [calls, distinct action matrices]

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _open(self, nid: int) -> None:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([sid, start, 0.0])

    def _close(self) -> None:
        end = perf_counter()
        sid, start, covered = self._stack.pop()
        self.span_end[sid] = end
        duration = end - start
        nid = self.span_name[sid]
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def _current(self) -> str | None:
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def begin_op(self, op: int, kind: str) -> None:
        """Open the root span of one benchmark operation; its calls share the id."""
        self._op = op
        self._open(self._name_id(f"op.{kind}"))

    def end_op(self) -> None:
        self._close()

    def _span(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, out, state)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            if self.recording:
                self.calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- layer hooks: args, result, and what `before` returned --------------

    def _after_poly_mul(self, args, out, _):
        self.terms_out += len(out)

    def _after_compose(self, args, out, _):
        if self._current() == "autos.invert":
            self.compose_in_invert += 1

    def _before_action(self, args):
        return len(args[0]._action_cache)

    def _after_action(self, args, out, cached_before):
        module = args[0]
        self.action_misses += len(module._action_cache) > cached_before
        self.module_rank_max = max(self.module_rank_max, module.rank)

    def _after_restrict(self, args, out, _):
        key = self._generator_key.get(id(args[1]))
        if key is not None:
            entry = self.restricted.setdefault((str(args[0]), *key), [0, set()])
            entry[0] += 1
            entry[1].add(out)

    def _after_lattice(self, args, out, _):
        cols, dim = args[0], args[1]
        leads = [next(x for x in col if x) for col in out]
        self.lattices.append(
            Lattice(
                dim=dim,
                cols_in=len(cols),
                nonzero=sum(len(col) - col.count(0) for col in cols),
                rank_out=len(out),
                unit_pivots=sum(abs(x) == 1 for x in leads),
                max_bits=max((abs(x).bit_length() for col in out for x in col), default=0),
                in_coinv=self._current() == "stability.coinv",
            )
        )

    def _after_snf(self, args, out, _):
        a = args[0]
        self.snf_cells += len(a) * (len(a[0]) if a else 0)

    def _after_coinv(self, args, out, _):
        self.coinv_matrices += len(args[0])

    def _after_generators(self, args, out, _):
        key = tuple(args)
        if key not in self.generator_count:
            self.generator_count[key] = len(out)
            self.generators_built += len(out)
            for g in out:
                self._generator_key[id(g)] = key

    # --- install, start, stop -----------------------------------------------

    def install(self) -> None:
        """Wrap every target at every nilstab namespace that binds it."""
        packages = [
            m for n, m in list(sys.modules.items()) if n == "nilstab" or n.startswith("nilstab.")
        ]
        mods = {m.__name__.rpartition(".")[2]: m for m in packages}
        hooks = {
            "series.poly_mul": (None, self._after_poly_mul),
            "autos.compose": (None, self._after_compose),
            "modules.restrict_action": (None, self._after_restrict),
            "intlinalg.lattice_basis": (None, self._after_lattice),
            "intlinalg.snf": (None, self._after_snf),
            "stability.coinv": (None, self._after_coinv),
            "stability.aut_generators": (None, self._after_generators),
        }
        for name, mod, attr in CACHES:
            self._cache_fns[name] = getattr(mods[mod], attr)
        for name, mod, attr in SPANS + COUNTED:
            fn = getattr(mods[mod], attr, None)
            if fn is None:  # the layer no longer has this function; its metrics stay 0
                self._name_id(name)
                print(f"trace: nilstab.{mod}.{attr} not found", file=sys.stderr)
                continue
            if (name, mod, attr) in COUNTED:
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn, *hooks.get(name, (None, None)))
            for ns in packages:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
        based = mods["modules"].BasedModule
        based.action = self._span(
            "modules.action", based.action, self._before_action, self._after_action
        )

    def _cache_counts(self) -> dict:
        return {name: fn.cache_info() for name, fn in self._cache_fns.items()}

    def start(self) -> None:
        self._cache_before = self._cache_counts()
        self.recording = True
        self.t0 = perf_counter()

    def stop(self) -> None:
        self.recording = False
        self._cache_after = self._cache_counts()

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times over the recorded phase; 0 where a layer did no work."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        for name, after in self._cache_after.items():
            before = self._cache_before[name]
            out[f"{name}.hits"] = after.hits - before.hits
            out[f"{name}.misses"] = after.misses - before.misses
        out["series.poly_mul.terms_out"] = self.terms_out
        out["autos.invert.compose_per_call"] = _ratio(
            self.compose_in_invert, out["autos.invert.calls"]
        )
        actions = out["modules.action.calls"]
        out["modules.action.hit_ratio"] = _ratio(actions - self.action_misses, actions)
        out["modules.module_rank.max"] = self.module_rank_max
        lat = self.lattices
        out["intlinalg.lattice_basis.cols_in"] = sum(x.cols_in for x in lat)
        out["intlinalg.lattice_basis.rank_out"] = sum(x.rank_out for x in lat)
        out["intlinalg.relation_density"] = _ratio(
            sum(x.nonzero for x in lat), sum(x.cols_in * x.dim for x in lat)
        )
        out["intlinalg.unit_pivot_ratio"] = _ratio(
            sum(x.unit_pivots for x in lat), out["intlinalg.lattice_basis.rank_out"]
        )
        out["intlinalg.max_coeff_bits"] = max((x.max_bits for x in lat), default=0)
        out["intlinalg.snf.cells"] = self.snf_cells
        out["stability.generators_built"] = self.generators_built
        out["stability.distinct_action_ratio"] = _ratio(
            self.coinv_matrices, out["modules.restrict_action.calls"]
        )
        return out

    def self_test(self, workload: str) -> tuple:
        """Exact counts from the ROADMAP Baseline, for the scan workloads.

        Returns (failures, skipped).  A workload's checks are skipped only when
        the stage they count made no calls at all, so a program that no longer
        takes that path is not reported wrong; once the stage runs, every
        count must match.
        """
        from nilstab.words import witt_rank

        failures = []
        if workload == "scan-wide":
            if not self.calls[self._ids["stability.coinv"]]:
                return failures, ["scan-wide: stability.coinv made no calls"]
            coinv = [x for x in self.lattices if x.in_coinv]
            if self.module_rank_max != 420:
                failures.append(f"module rank max {self.module_rank_max} != 420")
            for r in (5, 6):
                dim = witt_rank(r, 3) * r
                gl_gens = r * (r - 1) + r * (r - 1) // 2 + 1  # 46 at r=6: 19,320 columns
                main = [x for x in coinv if x.dim == dim and x.cols_in == gl_gens * dim]
                if len(main) != 1:
                    failures.append(f"r={r}: {len(main)} lattices of {gl_gens}x{dim} columns")
                    continue
                lattice = main[0]
                if lattice.unit_pivots != lattice.rank_out:
                    failures.append(f"r={r}: unit pivots {lattice.unit_pivots}/{lattice.rank_out}")
                density = lattice.nonzero / (lattice.cols_in * dim)
                if r == 6 and not 0.002 <= density <= 0.003:
                    failures.append(f"r=6: relation density {density:.5f} is not about 0.25%")
        elif workload == "scan-deep":
            if not self.calls[self._ids["stability.aut_generators"]]:
                return failures, ["scan-deep: stability.aut_generators made no calls"]
            built = self.generator_count.get((5, 4))
            if built != 1031:
                failures.append(f"aut_generators(5, 4) built {built} generators, not 1031")
            per_spec = {k: v for k, v in self.restricted.items() if k[1:] == (5, 4)}
            if len(per_spec) != 4:
                failures.append(f"{len(per_spec)} specs restricted the (5, 4) generators, not 4")
            for (spec, _, _), (calls, distinct) in per_spec.items():
                if (calls, len(distinct)) != (1031, 32):
                    failures.append(f"{spec}: {calls} generators, {len(distinct)} distinct actions")
        return failures, []

    def write(self, path: str) -> None:
        """Write every span as CSV; times are seconds from the start of recording."""
        names, t0 = self.names, self.t0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid},{names[self.span_name[sid]]},{self.span_start[sid] - t0:.7f},"
                    f"{self.span_end[sid] - t0:.7f},{self.span_parent[sid]},{self.span_op[sid]}\n"
                )


def _ratio(num, den) -> float:
    return num / den if den else 0.0

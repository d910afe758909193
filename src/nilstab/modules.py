"""Polynomial coefficient modules for the general linear groups over Z.

A ModuleSpec is a rank-independent expression tree over the constructors
constant, standard, inverse-transpose dual, direct sum, tensor, exterior
power, Hom, and the graded Lie layers.  Evaluating at a rank r produces a
based free abelian group with a multiplicative GL_r(Z)-action.  Every rank-r
basis label is also a rank-(r+1) label, and the stabilization into the rank
r+1 evaluation is the inclusion of labels (stab_index); the equivariant
retraction back (costab) is its transpose.

Automorphisms of the free nilpotent groups act through their abelianization,
so restriction along that map is just evaluation at the abelianized matrix.

An action is held sparse: a tuple of columns, column j the image of basis
vector j as (row, value) pairs in row order with no zeros (see intlinalg).
BasedModule.matrix gives the dense matrix.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from functools import cache, cached_property, lru_cache
from itertools import combinations
from math import comb

from . import intlinalg
from .group import read_int
from .intlinalg import Matrix, int_inverse, sparse_columns, sparse_compound, sparse_kron
from .intlinalg import sparse_transpose, transpose
from .lie import lie_layer_matrix
from .words import lyndon_words, witt_rank


class ModuleSpec:
    """Base class for the constructor algebra; instances are immutable.

    A constructor's grammar word is its class attribute name, and its
    dataclass fields are its arguments in grammar order: an int field is a
    number, any other field a spec.  The printer, the parser and the argument
    check all read that one description; const is the one irregular form.
    """

    name = ""
    minimum = None  # (least value, message) for the int field, if bounded

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if type(value) is not int:
                    raise ValueError(f"{self.name} needs an integer {f.name}, not {value!r}")
                if self.minimum and value < self.minimum[0]:
                    raise ValueError(self.minimum[1])
            elif not isinstance(value, ModuleSpec):
                raise ValueError(f"{self.name} needs a module spec as {f.name}, not {value!r}")

    def __str__(self):  # canonical grammar form
        args = ", ".join(str(getattr(self, f.name)) for f in fields(self))
        return f"{self.name}({args})" if args else self.name


@dataclass(frozen=True)
class Const(ModuleSpec):
    name = "const"
    minimum = (0, "constant module needs rank >= 0")
    rank: int = 1

    def __str__(self):
        return "const" if self.rank == 1 else f"const(Z^{self.rank})"


@dataclass(frozen=True)
class Std(ModuleSpec):
    name = "std"


@dataclass(frozen=True)
class DualStd(ModuleSpec):
    name = "dual"


@dataclass(frozen=True)
class Sum(ModuleSpec):
    name = "sum"
    left: ModuleSpec
    right: ModuleSpec


@dataclass(frozen=True)
class Tensor(ModuleSpec):
    name = "tensor"
    left: ModuleSpec
    right: ModuleSpec


@dataclass(frozen=True)
class Ext(ModuleSpec):
    name = "ext"
    minimum = (0, "exterior power needs t >= 0")
    power: int
    inner: ModuleSpec


@dataclass(frozen=True)
class Hom(ModuleSpec):
    name = "hom"
    source: ModuleSpec
    target: ModuleSpec


@dataclass(frozen=True)
class LieLayer(ModuleSpec):
    name = "lie"
    minimum = (1, "Lie layer needs degree >= 1")
    degree: int


def _block_embed(a: Matrix) -> Matrix:
    """diag(a, 1): the standard embedding of GL_r into GL_{r+1}."""
    r = len(a)
    out = [row + (0,) for row in a]
    out.append((0,) * r + (1,))
    return tuple(out)


class BasedModule:
    """Evaluation of a spec at a fixed rank: ordered basis, action, stab, costab."""

    def __init__(self, spec: ModuleSpec, rank_of_group: int):
        self.spec = spec
        self.rank_of_group = rank_of_group
        self.basis = _basis(spec, rank_of_group)
        self._action_cache: dict = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def stab_index(self) -> tuple:
        """Position of each basis label in the rank-(r+1) basis."""
        next_basis = _basis(self.spec, self.rank_of_group + 1)
        position = {label: i for i, label in enumerate(next_basis)}
        return tuple(position[label] for label in self.basis)

    @cached_property
    def stab(self) -> Matrix:
        """0/1 matrix of the stabilization: each basis label goes to itself at rank r+1."""
        next_rank = module_rank(self.spec, self.rank_of_group + 1)
        rows = [[0] * self.rank for _ in range(next_rank)]
        for j, i in enumerate(self.stab_index):
            rows[i][j] = 1
        return intlinalg.freeze(rows)

    @cached_property
    def costab(self) -> Matrix:
        return transpose(self.stab, self.rank)

    def action(self, a: Matrix) -> tuple:
        """Sparse columns of the action of a (cached per matrix)."""
        a = intlinalg.freeze(a)
        if len(a) != self.rank_of_group or any(len(row) != self.rank_of_group for row in a):
            raise ValueError("matrix size does not match the group rank")
        cached = self._action_cache.get(a)
        if cached is None:
            cached = _action(self.spec, lambda: a, cache(lambda: int_inverse(a)))
            self._action_cache[a] = cached
        return cached

    def matrix(self, a: Matrix) -> Matrix:
        """Dense matrix of the action of a."""
        return intlinalg.dense_matrix(self.action(a), self.rank)


@lru_cache(maxsize=None)
def eval_module(spec: ModuleSpec, r: int) -> BasedModule:
    if r < 1:
        raise ValueError("evaluation rank must be >= 1")
    return BasedModule(spec, r)


def _basis(spec: ModuleSpec, r: int) -> tuple:
    if isinstance(spec, Const):
        return tuple(("c", i) for i in range(spec.rank))
    if isinstance(spec, Std):
        return tuple(range(1, r + 1))
    if isinstance(spec, DualStd):
        return tuple(("*", i) for i in range(1, r + 1))
    if isinstance(spec, Sum):
        left = _basis(spec.left, r)
        right = _basis(spec.right, r)
        return tuple(("L", x) for x in left) + tuple(("R", x) for x in right)
    if isinstance(spec, Tensor):
        left = _basis(spec.left, r)
        right = _basis(spec.right, r)
        return tuple((x, y) for x in left for y in right)
    if isinstance(spec, Ext):
        inner = _basis(spec.inner, r)
        return tuple(combinations(inner, spec.power))
    if isinstance(spec, Hom):
        src = _basis(spec.source, r)
        tgt = _basis(spec.target, r)
        return tuple((row, col) for row in tgt for col in src)
    if isinstance(spec, LieLayer):
        return tuple(lyndon_words(r, spec.degree))
    raise TypeError(f"unknown spec {spec!r}")


def module_rank(spec: ModuleSpec, r: int) -> int:
    """Rank of the evaluation at r, in closed form, without building a basis."""
    if isinstance(spec, Const):
        return spec.rank
    if isinstance(spec, (Std, DualStd)):
        return r
    if isinstance(spec, Sum):
        return module_rank(spec.left, r) + module_rank(spec.right, r)
    if isinstance(spec, Tensor):
        return module_rank(spec.left, r) * module_rank(spec.right, r)
    if isinstance(spec, Hom):
        return module_rank(spec.target, r) * module_rank(spec.source, r)
    if isinstance(spec, Ext):
        return comb(module_rank(spec.inner, r), spec.power)
    if isinstance(spec, LieLayer):
        return witt_rank(r, spec.degree)
    raise TypeError(f"unknown spec {spec!r}")


def _action(spec: ModuleSpec, a, a_inv) -> tuple:
    """Sparse columns of the action at the matrix a() returns.

    a and a_inv are thunks for the matrix and its inverse (a_inv cached, so
    each action inverts at most once); a Hom swaps them for its source, so a
    dual there reads the matrix itself.
    """
    if isinstance(spec, Const):
        return tuple(((i, 1),) for i in range(spec.rank))
    if isinstance(spec, Std):
        return sparse_columns(a())
    if isinstance(spec, DualStd):
        # the inverse transpose: its columns are the rows of the inverse
        return sparse_columns(transpose(a_inv()))
    if isinstance(spec, Sum):
        left = _action(spec.left, a, a_inv)
        right = _action(spec.right, a, a_inv)
        shift = len(left)
        return left + tuple(tuple((i + shift, x) for i, x in col) for col in right)
    if isinstance(spec, Tensor):
        return sparse_kron(_action(spec.left, a, a_inv), _action(spec.right, a, a_inv))
    if isinstance(spec, Ext):
        return sparse_compound(_action(spec.inner, a, a_inv), spec.power)
    if isinstance(spec, Hom):
        # f goes to T(a) f S(a)^-1; row-major vec turns that into T(a) (x) S(a^-1)^T
        tgt = _action(spec.target, a, a_inv)
        src_inv = _action(spec.source, a_inv, a)
        return sparse_kron(tgt, sparse_transpose(src_inv, len(src_inv)))
    if isinstance(spec, LieLayer):
        return lie_layer_matrix(a(), len(a()), spec.degree)
    raise TypeError(f"unknown spec {spec!r}")


def restrict_action(spec: ModuleSpec, e) -> Matrix:
    """Action of an automorphism of the nilpotent group, through its abelianization."""
    from .autos import abelianization_matrix, is_automorphism

    if not is_automorphism(e):
        raise ValueError("restriction is defined for automorphisms only")
    return eval_module(spec, e.rank).matrix(abelianization_matrix(e))


def kernel_homology_module(c: int, t: int, coefficients: ModuleSpec) -> ModuleSpec:
    """Degree-t homology of the free abelian kernel of the class-(c+1) tower step.

    The kernel is the free abelian group of maps from the abelianization to the
    degree-(c+1) Lie layer, so its homology is the t-th exterior power tensored
    with the coefficients.
    """
    if c < 1 or t < 0:
        raise ValueError("need c >= 1 and t >= 0")
    return Tensor(Ext(t, Hom(Std(), LieLayer(c + 1))), coefficients)


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(_label_text(x) for x in label) + ")"
    return str(label)


def based_module_to_json(mod: BasedModule, matrices=()) -> dict:
    """JSON-ready export of an evaluated module: basis labels, stabilization,
    and the action on any requested matrices."""
    return {
        "spec": str(mod.spec),
        "rank_of_group": mod.rank_of_group,
        "basis": [_label_text(lbl) for lbl in mod.basis],
        "stab": [list(row) for row in mod.stab],
        "actions": [
            {
                "matrix": [list(row) for row in a],
                "action": [list(row) for row in mod.matrix(a)],
            }
            for a in matrices
        ],
    }


# --- spec grammar -------------------------------------------------------------

# the regular constructors, by grammar word: name(field, ...), or bare name
_CONSTRUCTORS = {cls.name: cls for cls in (Std, DualStd, Sum, Tensor, Ext, Hom, LieLayer)}

_TOKEN = re.compile(r"\(x\)|[a-z]+|[0-9]+|Z|[\^(),]")

# Deepest spec that parse_module_spec accepts, one level per constructor:
# 'std' has depth 1 and 'tensor(std, dual)' depth 2.  The parser, str and
# evaluation all recurse over the tree, so this stays far inside Python's
# recursion limit.
MAX_SPEC_DEPTH = 100
_TOO_DEEP = f"nested more than {MAX_SPEC_DEPTH} levels deep"


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    compact = text.strip()
    while pos < len(compact):
        if compact[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(compact, pos)
        if not m:
            raise ValueError(f"bad character {compact[pos]!r} in module spec")
        tokens.append(m.group())
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def number(self) -> int:
        tok = self.take()
        value = read_int(tok)
        if value is None:
            raise ValueError(f"expected a number, found {tok!r}")
        if value > sys.maxsize:
            raise ValueError(f"number {tok} is too large")
        return value

    def parse(self) -> ModuleSpec:
        spec = self.expr(1)
        if self.peek() is not None:
            raise ValueError(f"trailing tokens starting at {self.peek()!r}")
        # a chain a (x) b (x) ... nests to the left without nesting the parser
        level, depth = [spec], 0
        while level:
            depth += 1
            level = [p for s in level for p in vars(s).values() if isinstance(p, ModuleSpec)]
        if depth > MAX_SPEC_DEPTH:
            raise ValueError(_TOO_DEEP)
        return spec

    def expr(self, depth: int) -> ModuleSpec:
        if depth > MAX_SPEC_DEPTH:
            raise ValueError(_TOO_DEEP)
        left = self.primary(depth)
        while self.peek() == "(x)":
            self.take("(x)")
            left = Tensor(left, self.primary(depth))
        return left

    def primary(self, depth: int) -> ModuleSpec:
        name = self.take()
        if name == "const":
            if self.peek() != "(":
                return Const(1)
            self.take("(")
            self.take("Z")
            k = 1
            if self.peek() == "^":
                self.take("^")
                k = self.number()
            self.take(")")
            return Const(k)
        cls = _CONSTRUCTORS.get(name)
        if cls is None:
            raise ValueError(f"unknown module constructor {name!r}")
        args = []
        for f in fields(cls):
            self.take("," if args else "(")
            args.append(self.number() if f.type == "int" else self.expr(depth + 1))
        if args:
            self.take(")")
        return cls(*args)


def parse_module_spec(text: str) -> ModuleSpec:
    """Parse the textual spec grammar, e.g. 'ext(2, hom(std, lie(3))) (x) const(Z)'.

    A spec nested more than MAX_SPEC_DEPTH levels deep is a ValueError."""
    return _Parser(_tokenize(text)).parse()

"""Command-line front end.

Subcommands: witt, lyndon, mul, inv, comm, verify, aut-lift, kernel-iso,
scan, snf.  Exit codes: 0 on success, 1 on a failed verification or an
unstabilized scan, 2 on usage errors (bad bounds, parse errors), 3 on a broken
internal invariant.  Output is deterministic for a fixed configuration and seed.
Integer results print exactly at any size; integer input is refused past
group.MAX_INPUT_DIGITS digits, and a module spec past modules.MAX_SPEC_DEPTH
levels of nesting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import intlinalg, verify
from .autos import endo_from_json, endo_to_json, is_automorphism, lift_to_class, project
from .group import comm as group_comm
from .group import _word_to_text, element_to_json, element_to_text, inv as group_inv
from .group import NotAGroupElement, magnus_embed, mul as group_mul, parse_element, read_int
from .lie import LieSpanError
from .modules import LieLayer, ModuleSpec, module_rank, parse_module_spec
from .series import poly_group_commutator, poly_mul, poly_unit_inverse
from .stability import stability_scan
from .verify import check_action_remark, check_aut_extension
from .words import lyndon_words, witt_rank

DEFAULT_MAX_RANK = 6
DEFAULT_MAX_CLASS = 6
# largest module rank that scan accepts without --unsafe-bounds: the rank of the
# largest module in the benchmark scans, tensor(lie(3), dual) at r = 6
DEFAULT_MAX_MODULE_RANK = 420
# most trials kernel-iso runs: 100 trials take about 0.35 s at r = c = 2
MAX_TRIALS = 10_000


class UsageError(Exception):
    pass


def _max_class_from_env() -> int:
    raw = os.environ.get("NILSTAB_MAX_CLASS")
    if raw is None:
        return DEFAULT_MAX_CLASS
    value = read_int(raw)
    if value is None:
        raise UsageError(f"NILSTAB_MAX_CLASS must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"NILSTAB_MAX_CLASS must be >= 1, got {raw!r}")
    return value


def _bounds(args, rank: int, class_bound: int = 1) -> int:
    """Check a rank and class against their bounds; return the class bound in force.

    Both must be >= 1.  Unless --unsafe-bounds is given, the rank is at most
    DEFAULT_MAX_RANK and the class at most the bound in force, NILSTAB_MAX_CLASS
    or DEFAULT_MAX_CLASS.
    """
    max_class = _max_class_from_env()
    if rank < 1:
        raise UsageError("rank must be >= 1")
    if class_bound < 1:
        raise UsageError("class must be >= 1")
    if not args.unsafe_bounds:
        if rank > DEFAULT_MAX_RANK:
            raise UsageError(
                f"rank {rank} exceeds the bound {DEFAULT_MAX_RANK}; "
                "use --unsafe-bounds to override"
            )
        if class_bound > max_class:
            raise UsageError(
                f"class {class_bound} exceeds the bound {max_class}; "
                "use --unsafe-bounds or NILSTAB_MAX_CLASS to override"
            )
    return max_class


def _parse_range(text: str) -> range:
    lo_text, sep, hi_text = text.partition("..")
    lo = read_int(lo_text)
    hi = read_int(hi_text) if sep else lo
    if lo is None or hi is None:
        raise UsageError(f"bad rank range {text!r}")
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    # a range, not a list: the rank bound is checked on its end before any use
    return range(lo, hi + 1)


def _int_option(text: str) -> int:
    """The argparse type of every integer option: read_int's grammar and digit bound."""
    try:
        value = read_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_json_arg(text: str) -> dict:
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {text[1:]}: {exc.strerror or exc}") from None
    try:
        return json.loads(text, parse_int=read_int)
    except RecursionError:
        raise UsageError("JSON input is nested too deeply") from None


# --- subcommand bodies ----------------------------------------------------


def cmd_witt(args) -> int:
    limit = max(DEFAULT_MAX_CLASS, _bounds(args, args.rank))
    if args.degree < 1:
        raise UsageError("witt needs -n >= 1")
    if args.degree > limit and not args.unsafe_bounds:
        raise UsageError("witt degree exceeds the bound; use --unsafe-bounds")
    rows = []
    for r in range(1, args.rank + 1):
        for n in range(1, args.degree + 1):
            rank = witt_rank(r, n)
            if rank != len(lyndon_words(r, n)):
                print(f"cross-check failed at r={r}, n={n}", file=sys.stderr)
                return 1
            rows.append((r, n, rank))
    if args.format == "csv":
        print("r,n,rank")
        for r, n, rank in rows:
            print(f"{r},{n},{rank}")
    elif args.format == "json":
        print(_emit_json([{"r": r, "n": n, "rank": rank} for r, n, rank in rows]))
    else:
        for r in range(1, args.rank + 1):
            line = " ".join(str(witt_rank(r, n)) for n in range(1, args.degree + 1))
            print(f"r={r}: {line}")
    return 0


def cmd_lyndon(args) -> int:
    limit = _bounds(args, args.rank)
    if args.degree < 1:
        raise UsageError("lyndon needs -n >= 1")
    if args.degree > limit and not args.unsafe_bounds:
        raise UsageError("lyndon degree exceeds the bound; use --unsafe-bounds")
    texts = [_word_to_text(w) for w in lyndon_words(args.rank, args.degree)]
    if args.format == "csv":
        print("r,n,word")
        for t in texts:
            print(f"{args.rank},{args.degree},{t}")
    elif args.format == "json":
        print(_emit_json(texts))
    else:
        for t in texts:
            print(t)
    return 0


def _element_command(args, operation, series_operation) -> int:
    """Run a group operation; under --oracle, recheck it against the series one."""
    r, c = args.rank, args.class_bound
    _bounds(args, r, c)
    operands = [parse_element(text, r, c) for text in args.elements]
    result = operation(*operands)
    if args.oracle:
        oracle_series = series_operation(*(magnus_embed(g).coefficients for g in operands), c)
        fresh = magnus_embed(
            parse_element(element_to_text(result), r, c)
        ).coefficients
        if fresh != oracle_series:
            print("oracle disagreement: collected form does not match series", file=sys.stderr)
            return 1
    if args.format == "json":
        print(_emit_json(element_to_json(result)))
    else:
        print(element_to_text(result))
    return 0


def cmd_mul(args) -> int:
    return _element_command(args, group_mul, poly_mul)


def cmd_inv(args) -> int:
    return _element_command(args, group_inv, poly_unit_inverse)


def cmd_comm(args) -> int:
    return _element_command(args, group_comm, poly_group_commutator)


def _print_results(results) -> int:
    """One PASS or FAIL line per check, a failure with its detail; the number failed."""
    for res in results:
        detail = f" ({res.detail})" if res.detail and not res.passed else ""
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}{detail}")
    return sum(not res.passed for res in results)


def cmd_verify(args) -> int:
    _bounds(args, args.rank, args.class_bound)
    results = verify.run_suite(args.rank, args.class_bound, args.seed)
    failed = _print_results(results)
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_aut_lift(args) -> int:
    if args.images is not None:
        if args.rank is None or args.class_bound is None:
            raise UsageError("--images needs -r and -c for the source endomorphism")
        if len(args.images) != args.rank:
            raise UsageError("need exactly one image per generator")
        # parsing collects each image, so the source bounds come first
        _bounds(args, args.rank, args.class_bound)
        from .autos import endo_from_images

        endo = endo_from_images(
            parse_element(text, args.rank, args.class_bound) for text in args.images
        )
    elif args.endo is not None:
        endo = endo_from_json(_read_json_arg(args.endo))
        _bounds(args, endo.rank, endo.class_bound)
    else:
        raise UsageError("give an endomorphism JSON or --images")
    if not is_automorphism(endo):
        print("input endomorphism is not an automorphism", file=sys.stderr)
        return 1
    target = args.to_class if args.to_class is not None else endo.class_bound + 1
    if target < endo.class_bound:
        raise UsageError("target class is below the input class")
    _bounds(args, endo.rank, target)
    lifted = lift_to_class(endo, target)
    check = lifted
    while check.class_bound > endo.class_bound:
        check = project(check)
    if check != endo:
        raise AssertionError("projection of the lift is not the input")
    print(_emit_json(endo_to_json(lifted)))
    return 0


def cmd_kernel_iso(args) -> int:
    _bounds(args, args.rank, args.class_bound)
    if args.class_bound < 2:
        raise UsageError("kernel-iso needs -c >= 2")
    if args.trials < 1:
        raise UsageError("kernel-iso needs --trials >= 1")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"kernel-iso needs --trials <= {MAX_TRIALS}")
    import random as random_module

    rng = random_module.Random(args.seed)
    res = check_aut_extension(args.rank, args.class_bound, rng, trials=args.trials)
    res2 = check_action_remark(args.rank, args.class_bound, rng)
    return 1 if _print_results((res, res2)) else 0


def _subspecs(spec):
    yield spec
    for part in vars(spec).values():
        if isinstance(part, ModuleSpec):
            yield from _subspecs(part)


def cmd_scan(args) -> int:
    try:
        spec = parse_module_spec(args.spec)
    except ValueError as err:
        raise UsageError(f"bad module spec: {err}") from None
    ranks = _parse_range(args.range)
    max_class = _bounds(args, ranks[-1], args.class_bound)
    if not args.unsafe_bounds:
        parts = list(_subspecs(spec))
        if max((p.degree for p in parts if isinstance(p, LieLayer)), default=0) > max_class:
            raise UsageError("lie degree exceeds the class bound; use --unsafe-bounds")
        # every part's basis and action is built, and ranks never fall with r;
        # reversed, each part comes after the parts inside it, so no closed
        # form takes comb of an unbounded inner rank
        for part in reversed(parts):
            if module_rank(part, ranks[-1]) > DEFAULT_MAX_MODULE_RANK:
                raise UsageError(
                    f"module rank of {part} at r={ranks[-1]} exceeds the bound "
                    f"{DEFAULT_MAX_MODULE_RANK}; use --unsafe-bounds"
                )
    report = stability_scan(spec, args.class_bound, ranks)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_text())
    if not report.stabilized() and not args.allow_unstable:
        return 1
    return 0


def cmd_snf(args) -> int:
    obj = _read_json_arg(args.matrix)
    if not (
        isinstance(obj, list)
        and all(isinstance(row, list) and len(row) == len(obj[0]) for row in obj)
    ):
        raise UsageError("snf expects a JSON list of equal-length rows of integers")
    matrix = intlinalg.freeze(obj)
    res = intlinalg.snf(matrix)
    if args.format == "json":
        print(
            _emit_json(
                {
                    "U": [list(row) for row in res.U],
                    "D": [list(row) for row in res.D],
                    "V": [list(row) for row in res.V],
                    "invariant_factors": list(res.invariant_factors()),
                }
            )
        )
    else:
        print("invariant factors:", list(res.invariant_factors()))
        for name, mat in (("U", res.U), ("D", res.D), ("V", res.V)):
            print(f"{name}:")
            for row in mat:
                print(" ", list(row))
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilstab",
        description="Exact arithmetic for free nilpotent groups and their automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, fmt=True, oracle=False):
        p.add_argument("-r", "--rank", type=_int_option, default=2)
        p.add_argument("-c", "--class", dest="class_bound", type=_int_option, default=2)
        if seed:
            p.add_argument("--seed", type=_int_option, default=0)
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if oracle:
            p.add_argument("--oracle", action="store_true")
        p.add_argument("--unsafe-bounds", action="store_true")

    p = sub.add_parser("witt", help="table of free Lie ring layer ranks")
    p.add_argument("-r", "--rank", type=_int_option, required=True, help="maximum rank")
    p.add_argument("-n", "--degree", type=_int_option, required=True, help="maximum degree")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--unsafe-bounds", action="store_true")
    p.set_defaults(func=cmd_witt)

    p = sub.add_parser("lyndon", help="Lyndon words of one degree")
    p.add_argument("-r", "--rank", type=_int_option, required=True)
    p.add_argument("-n", "--degree", type=_int_option, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--unsafe-bounds", action="store_true")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("mul", help="product of two elements in collected form")
    add_common(p, oracle=True)
    p.add_argument("elements", nargs=2)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", help="inverse of an element")
    add_common(p, oracle=True)
    p.add_argument("elements", nargs=1)
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("comm", help="group commutator of two elements")
    add_common(p, oracle=True)
    p.add_argument("elements", nargs=2)
    p.set_defaults(func=cmd_comm)

    p = sub.add_parser("verify", help="run the invariant suite at one rank and class")
    add_common(p, seed=True, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("aut-lift", help="lift an automorphism to a higher class")
    p.add_argument("endo", nargs="?", default=None, help="endomorphism JSON, @file, or - for stdin")
    p.add_argument("--images", nargs="+", default=None, help="generator images in element syntax")
    p.add_argument("-r", "--rank", type=_int_option, default=None)
    p.add_argument("-c", "--class", dest="class_bound", type=_int_option, default=None)
    p.add_argument("--to-class", type=_int_option, default=None)
    p.add_argument("--unsafe-bounds", action="store_true")
    p.set_defaults(func=cmd_aut_lift)

    p = sub.add_parser("kernel-iso", help="verify the kernel/maps correspondence")
    add_common(p, seed=True, fmt=False)
    p.add_argument("--trials", type=_int_option, default=25)
    p.set_defaults(func=cmd_kernel_iso)

    p = sub.add_parser("scan", help="degree-0 stability scan over a rank range")
    p.add_argument("--spec", required=True, help="module spec, e.g. 'hom(std, ext(2, dual))'")
    p.add_argument("-c", "--class", dest="class_bound", type=_int_option, required=True)
    p.add_argument("-r", "--range", required=True, help="rank range like 1..5")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--allow-unstable", action="store_true")
    p.add_argument("--unsafe-bounds", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("matrix", help="matrix JSON, @file, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_snf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # results of any size print; integer input is bounded by read_int
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (AssertionError, NotAGroupElement, LieSpanError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as err:
        print(f"error: bad JSON input ({err})", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

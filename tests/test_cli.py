"""Command-line contract: formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilstab.cli import main
from nilstab.group import MAX_INPUT_DIGITS, element_to_text, parse_element
from nilstab.modules import MAX_SPEC_DEPTH
from nilstab import verify
from nilstab.verify import random_group_element


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_csv(capsys):
    code, out, _ = run(capsys, "witt", "-r", "2", "-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,n,rank"
    assert "2,1,2" in lines and "2,2,1" in lines and "2,3,2" in lines and "2,4,3" in lines


def test_witt_text_rows(capsys):
    code, out, _ = run(capsys, "witt", "-r", "2", "-n", "4")
    assert code == 0
    assert "r=2: 2 1 2 3" in out
    code, out, _ = run(capsys, "witt", "-r", "1", "-n", "3")
    assert code == 0
    assert "r=1: 1 0 0" in out


def test_witt_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "witt", "-r", "0", "-n", "3")
    assert code == 2
    assert "error" in err


def test_lyndon_listing(capsys):
    code, out, _ = run(capsys, "lyndon", "-r", "2", "-n", "4")
    assert code == 0
    assert out.split() == ["aaab", "aabb", "abbb"]
    code, out, _ = run(capsys, "lyndon", "-r", "2", "-n", "3", "--format", "json")
    assert json.loads(out) == ["aab", "abb"]


def test_mul_heisenberg(capsys):
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "2", "b", "a")
    assert code == 0
    assert out.strip() == "a * b * [ab]^-1"
    # factors multiply in the order written
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "2", "b * a", "1")
    assert code == 0
    assert out.strip() == "a * b * [ab]^-1"


def test_mul_with_oracle(capsys):
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "2", "--oracle", "b", "a")
    assert code == 0
    assert out.strip() == "a * b * [ab]^-1"


def test_element_commands_skip_series_without_oracle(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("series oracle computed without --oracle")

    for name in ("magnus_embed", "poly_mul", "poly_unit_inverse", "poly_group_commutator"):
        monkeypatch.setattr(f"nilstab.cli.{name}", refuse)
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "2", "b", "a")
    assert code == 0 and out.strip() == "a * b * [ab]^-1"
    code, out, _ = run(capsys, "inv", "-r", "2", "-c", "2", "a")
    assert code == 0 and out.strip() == "a^-1"
    code, out, _ = run(capsys, "comm", "-r", "2", "-c", "2", "a", "b")
    assert code == 0 and out.strip() == "[ab]"


def test_inv_and_comm(capsys):
    code, out, _ = run(capsys, "inv", "-r", "2", "-c", "2", "a")
    assert code == 0 and out.strip() == "a^-1"
    code, out, _ = run(capsys, "comm", "-r", "2", "-c", "2", "a", "b")
    assert code == 0 and out.strip() == "[ab]"


def test_element_json_format(capsys):
    code, out, _ = run(capsys, "comm", "-r", "2", "-c", "2", "--format", "json", "a", "b")
    assert code == 0
    assert json.loads(out) == {"class": 2, "exponents": [["ab", 1]], "rank": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "-r", "2", "-c", "2", "b", "a"],
        ["inv", "-r", "2", "-c", "2", "a"],
        ["comm", "-r", "2", "-c", "2", "a", "b"],
        ["snf", "[[2, 0], [0, 3]]"],
    ],
)
def test_csv_is_refused_where_it_has_no_layout(capsys, argv):
    # only witt, lyndon and scan write csv; elsewhere it is a bad choice, not text
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "invalid choice: 'csv'" in out.err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "mul", "-r", "2", "-c", "2", "a *", "b")
    assert code == 2
    assert "error" in err


def test_element_round_trip_through_cli_syntax():
    rng = random.Random(71)
    for _ in range(10):
        g = random_group_element(rng, 3, 3)
        assert parse_element(element_to_text(g), 3, 3) == g


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "-r", "2", "-c", "2", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_passes_at_rank_one(capsys):
    # rank 1 has no Lie layer above degree 1; the suite still runs every check
    code, out, err = run(capsys, "verify", "-r", "1", "-c", "3")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "-r", "0", "-c", "1")
    assert code == 2
    assert "rank" in err


def test_class_bound_guard_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "-r", "2", "-c", "7")
    assert code == 2 and "class" in err
    monkeypatch.setenv("NILSTAB_MAX_CLASS", "7")
    code, out, _ = run(capsys, "lyndon", "-r", "2", "-n", "2")
    assert code == 0  # env var parsed without complaint
    code, _, err = run(capsys, "mul", "-r", "2", "-c", "7", "1", "1")
    assert code == 0
    monkeypatch.delenv("NILSTAB_MAX_CLASS")
    code, _, err = run(capsys, "mul", "-r", "2", "-c", "7", "1", "1")
    assert code == 2


def test_unsafe_bounds_flag(capsys):
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "7", "--unsafe-bounds", "a", "b")
    assert code == 0
    assert out.strip() == "a * b"


def test_scan_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "scan", "--spec", "std", "-c", "1", "-r", "1..4", "--format", "json")
    code2, out2, _ = run(capsys, "scan", "--spec", "std", "-c", "1", "-r", "1..4", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)
    assert [row["invariant_factors"] for row in rows] == [[2], [], [], []]


def test_scan_text_and_exit_codes(capsys):
    code, out, _ = run(capsys, "scan", "--spec", "const", "-c", "3", "-r", "1..3")
    assert code == 0
    assert "stabilized from r = 1" in out
    # a single failing pair cannot stabilize
    code, out, _ = run(capsys, "scan", "--spec", "std", "-c", "1", "-r", "1..2")
    assert code == 1
    code, out, _ = run(
        capsys, "scan", "--spec", "std", "-c", "1", "-r", "1..2", "--allow-unstable"
    )
    assert code == 0


README_SCAN = ["scan", "--spec", "hom(std, ext(2, dual))", "-c", "2", "-r", "1..5"]
EXT2_SCAN = [
    "scan", "--spec", "ext(2, hom(std, lie(2)))", "-c", "1", "-r", "1..5", "--unsafe-bounds",
]

SCAN_GOLDEN = [
    (
        README_SCAN + ["--format", "json"],
        '[{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":true,"r":1},'
        '{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":false,"r":2},'
        '{"free_rank":0,"invariant_factors":[2],"map_to_next_is_iso":false,"r":3},'
        '{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":true,"r":4},'
        '{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":null,"r":5}]\n',
    ),
    (
        README_SCAN + ["--format", "csv"],
        "r,free_rank,invariant_factors,map_to_next_is_iso\n"
        "1,0,,true\n"
        "2,0,,false\n"
        "3,0,2,false\n"
        "4,0,,true\n"
        "5,0,,\n",
    ),
    (
        README_SCAN,
        "scan hom(std, ext(2, dual)) at class 2\n"
        "  r=1: H_0 = 0; map to r=2 iso: True (coefficient leg False, group leg False)\n"
        "  r=2: H_0 = 0; map to r=3 iso: False (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = Z/2; map to r=4 iso: False (coefficient leg True, group leg False)\n"
        "  r=4: H_0 = 0; map to r=5 iso: True (coefficient leg True, group leg True)\n"
        "  r=5: H_0 = 0\n"
        "  stabilized from r = 4\n",
    ),
    (
        ["scan", "--spec", "std", "-c", "3", "-r", "1..4"],
        "scan std at class 3\n"
        "  r=1: H_0 = Z/2; map to r=2 iso: False (coefficient leg False, group leg False)\n"
        "  r=2: H_0 = 0; map to r=3 iso: True (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = 0; map to r=4 iso: True (coefficient leg False, group leg False)\n"
        "  r=4: H_0 = 0\n"
        "  stabilized from r = 2\n",
    ),
    (
        [
            "scan", "--spec", "hom(hom(std, dual), std)", "-c", "1", "-r", "1..4",
            "--format", "text", "--allow-unstable",
        ],
        "scan hom(hom(std, dual), std) at class 1\n"
        "  r=1: H_0 = Z/2; map to r=2 iso: False (coefficient leg False, group leg False)\n"
        "  r=2: H_0 = Z/2; map to r=3 iso: False (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = Z/2; map to r=4 iso: False (coefficient leg False, group leg False)\n"
        "  r=4: H_0 = 0\n"
        "  not stabilized in range\n",
    ),
    # rank 1,225 at r=5, above the module rank bound; recorded with the dense
    # actions and relation columns (about 4 minutes and 770 MiB then)
    (
        EXT2_SCAN,
        "scan ext(2, hom(std, lie(2))) at class 1\n"
        "  r=1: H_0 = 0; map to r=2 iso: False (coefficient leg False, group leg True)\n"
        "  r=2: H_0 = Z/2; map to r=3 iso: True (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = Z/2; map to r=4 iso: False (coefficient leg False, group leg False)\n"
        "  r=4: H_0 = 0; map to r=5 iso: True (coefficient leg False, group leg False)\n"
        "  r=5: H_0 = 0\n"
        "  stabilized from r = 4\n",
    ),
    (
        EXT2_SCAN + ["--format", "json"],
        '[{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":false,"r":1},'
        '{"free_rank":0,"invariant_factors":[2],"map_to_next_is_iso":true,"r":2},'
        '{"free_rank":0,"invariant_factors":[2],"map_to_next_is_iso":false,"r":3},'
        '{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":true,"r":4},'
        '{"free_rank":0,"invariant_factors":[],"map_to_next_is_iso":null,"r":5}]\n',
    ),
    # Lie layers past degree 3; recorded with each layer taken from one
    # substitution into the envelopes of its basis monomials
    (
        ["scan", "--spec", "lie(4)", "-c", "4", "-r", "1..6"],
        "scan lie(4) at class 4\n"
        "  r=1: H_0 = 0; map to r=2 iso: False (coefficient leg False, group leg False)\n"
        "  r=2: H_0 = Z/2; map to r=3 iso: False (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = 0; map to r=4 iso: True (coefficient leg False, group leg False)\n"
        "  r=4: H_0 = 0; map to r=5 iso: True (coefficient leg True, group leg True)\n"
        "  r=5: H_0 = 0; map to r=6 iso: True (coefficient leg True, group leg True)\n"
        "  r=6: H_0 = 0\n"
        "  stabilized from r = 3\n",
    ),
    (
        ["scan", "--spec", "lie(5)", "-c", "5", "-r", "1..4"],
        "scan lie(5) at class 5\n"
        "  r=1: H_0 = 0; map to r=2 iso: False (coefficient leg False, group leg False)\n"
        "  r=2: H_0 = Z/2; map to r=3 iso: False (coefficient leg False, group leg False)\n"
        "  r=3: H_0 = 0; map to r=4 iso: True (coefficient leg False, group leg False)\n"
        "  r=4: H_0 = 0\n"
        "  stabilized from r = 3\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    SCAN_GOLDEN,
    ids=[
        "readme-json", "readme-csv", "readme-text", "std-text", "nested-hom-text",
        "ext2-hom-lie2-text", "ext2-hom-lie2-json", "lie4-text", "lie5-text",
    ],
)
def test_scan_golden_output(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_scan_bad_spec(capsys):
    code, _, err = run(capsys, "scan", "--spec", "frob(std)", "-c", "1", "-r", "1..3")
    assert code == 2
    assert "module spec" in err


@pytest.mark.parametrize("text", ["1..x", "..3", "1..2..3", "3..", "x", ""])
def test_scan_bad_rank_range(capsys, text):
    code, out, err = run(capsys, "scan", "--spec", "std", "-c", "1", "-r", text)
    assert code == 2
    assert out == ""
    assert err == f"error: bad rank range {text!r}\n"


def test_snf_json(capsys):
    code, out, _ = run(capsys, "snf", "[[2, 0], [0, 3]]", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["invariant_factors"] == [1, 6]
    code, out, _ = run(capsys, "snf", "[[-2]]")
    assert code == 0
    assert "[2]" in out


def test_aut_lift_round_trip(capsys):
    endo = {
        "rank": 2,
        "class": 1,
        "images": [
            {"rank": 2, "class": 1, "exponents": [["b", 1]]},
            {"rank": 2, "class": 1, "exponents": [["a", 1]]},
        ],
    }
    code, out, _ = run(capsys, "aut-lift", json.dumps(endo), "--to-class", "3")
    assert code == 0
    lifted = json.loads(out)
    assert lifted["class"] == 3
    assert lifted["images"][0]["exponents"] == [["b", 1]]


def test_aut_lift_text_images(capsys):
    code, out, _ = run(
        capsys, "aut-lift", "--images", "b", "a * [ab]", "-r", "2", "-c", "2", "--to-class", "3"
    )
    assert code == 0
    lifted = json.loads(out)
    assert lifted["class"] == 3
    assert lifted["images"][1]["exponents"] == [["a", 1], ["ab", 1]]
    code, _, err = run(capsys, "aut-lift", "--images", "b", "-r", "2", "-c", "2")
    assert code == 2  # one image per generator


def test_aut_lift_rejects_non_automorphism(capsys):
    endo = {
        "rank": 2,
        "class": 1,
        "images": [
            {"rank": 2, "class": 1, "exponents": [["a", 2]]},
            {"rank": 2, "class": 1, "exponents": [["b", 1]]},
        ],
    }
    code, _, err = run(capsys, "aut-lift", json.dumps(endo))
    assert code == 1
    assert "not an automorphism" in err


def _endo_json(rank, class_bound, columns):
    """An endomorphism JSON whose image i has exponents columns[i], identity past them."""
    images = [
        {"rank": rank, "class": class_bound, "exponents": columns[i] if i < len(columns) else []}
        for i in range(rank)
    ]
    return json.dumps({"rank": rank, "class": class_bound, "images": images})


@pytest.mark.parametrize(
    "rank, class_bound, columns, message",
    [
        (300, 1, [[["a", 2]]], "rank 300 exceeds the bound"),
        (2, 50, [[["a", 2]], [["b", 1]]], "class 50 exceeds the bound"),
        (2, 50, [[["b", 1]], [["a", 1]]], "class 50 exceeds the bound"),
    ],
)
def test_aut_lift_checks_json_bounds_first(capsys, rank, class_bound, columns, message):
    # a JSON source out of bounds is a usage error before any determinant is
    # taken, automorphism or not, as with --images
    result = run(capsys, "aut-lift", _endo_json(rank, class_bound, columns))
    assert _usage_error(result) and message in result[2]


def test_kernel_iso(capsys):
    code, out, _ = run(capsys, "kernel-iso", "-r", "2", "-c", "2", "--seed", "3")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_kernel_iso_needs_class_two(capsys):
    code, _, err = run(capsys, "kernel-iso", "-r", "2", "-c", "1")
    assert code == 2


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "-r", "2", "-c", "2", "--seed", "9")
    _, out2, _ = run(capsys, "verify", "-r", "2", "-c", "2", "--seed", "9")
    assert out1 == out2


def _usage_error(result):
    code, _, err = result
    return code == 2 and err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "matrix", ["[[2.5]]", "[[true, 0], [0, 3]]", "[[1, 2], [3]]", '[["1"]]', "[[null]]", "[1, 2]"]
)
def test_snf_rejects_non_integer_or_ragged_matrices(capsys, matrix):
    assert _usage_error(run(capsys, "snf", matrix))


@pytest.mark.parametrize(
    "endo",
    [
        '{"rank": 2}',
        "[1]",
        '{"rank": 2, "class": 1, "images": 5}',
        '{"rank": 2, "class": 1, "images": [1, 2]}',
        '{"rank": "2", "class": 1, "images": []}',
        '{"rank": 2, "class": 1, "images": ['
        '{"rank": 2, "class": 1, "exponents": [["b", 1.5]]},'
        '{"rank": 2, "class": 1, "exponents": [["a", 1]]}]}',
    ],
)
def test_aut_lift_rejects_malformed_json(capsys, endo):
    assert _usage_error(run(capsys, "aut-lift", endo))


def test_aut_lift_refuses_a_repeated_json_word(capsys):
    # JSON exponents are a collected form, not a product: a word may appear once
    image = '{"rank": 1, "class": 2, "exponents": [["a", 1], ["a", -2]]}'
    result = run(capsys, "aut-lift", '{"rank": 1, "class": 2, "images": [' + image + "]}")
    assert _usage_error(result) and "word 'a' appears twice in the exponents" in result[2]


@pytest.mark.parametrize("value", ["-3", "0"])
def test_max_class_env_below_one(capsys, monkeypatch, value):
    monkeypatch.setenv("NILSTAB_MAX_CLASS", value)
    argv = ["scan", "--spec", "std", "-c", "1", "-r", "1..2", "--allow-unstable"]
    for extra in ([], ["--unsafe-bounds"]):
        result = run(capsys, *argv, *extra)
        assert _usage_error(result) and "NILSTAB_MAX_CLASS must be >= 1" in result[2]


def test_scan_rejects_oversized_spec_number(capsys):
    spec = "ext(99999999999999999999, std)"
    result = run(capsys, "scan", "--spec", spec, "-c", "1", "-r", "1..2")
    assert _usage_error(result) and "module spec" in result[2]


@pytest.mark.parametrize("spec", ["lie(7)", "hom(std, tensor(dual, lie(7)))"])
def test_scan_bounds_lie_degree_by_class_bound(capsys, monkeypatch, spec):
    argv = ["scan", "--spec", spec, "-c", "1", "-r", "1..1", "--allow-unstable"]
    result = run(capsys, *argv)
    assert _usage_error(result) and "lie degree" in result[2]
    assert run(capsys, *argv, "--unsafe-bounds")[0] == 0
    monkeypatch.setenv("NILSTAB_MAX_CLASS", "7")
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "spec, message",
    [
        ("const(Z^99999999999999999999)", "too large"),
    ],
)
def test_scan_bounds_const_rank(capsys, spec, message):
    result = run(capsys, "scan", "--spec", spec, "-c", "1", "-r", "1", "--allow-unstable")
    assert _usage_error(result) and message in result[2]


def test_scan_const_rank_at_the_bound_and_unsafe(capsys):
    argv = ["scan", "-c", "1", "-r", "1", "--allow-unstable"]
    assert run(capsys, *argv, "--spec", "const(Z^420)")[0] == 0
    code, out, _ = run(capsys, *argv, "--spec", "const(Z^421)", "--unsafe-bounds")
    assert code == 0 and "H_0 = Z^421" in out


@pytest.mark.parametrize(
    "spec",
    [
        "const(Z^421)",
        "tensor(std, const(Z^500))",
        "tensor(const(Z^420), const(Z^420))",
        "ext(200, const(Z^420))",
        "ext(99999999999, ext(200, const(Z^420)))",
        "ext(2, hom(std, lie(2)))",
    ],
)
def test_scan_bounds_module_rank(capsys, spec):
    # refused from the closed-form rank; none of these modules is built
    result = run(capsys, "scan", "--spec", spec, "-c", "1", "-r", "1..5", "--allow-unstable")
    assert _usage_error(result) and "module rank" in result[2]


def test_scan_module_rank_at_the_bound(capsys):
    argv = ["scan", "--spec", "tensor(lie(3), dual)", "-c", "1", "-r", "6", "--allow-unstable"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "r=6: H_0 = 0" in out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_kernel_iso_refuses_no_trials(capsys, trials):
    # a vacuous aut-extension check must not print PASS
    result = run(capsys, "kernel-iso", "-r", "2", "-c", "2", "--trials", trials)
    assert _usage_error(result) and "--trials >= 1" in result[2]


def test_kernel_iso_caps_the_trials(capsys, monkeypatch):
    from nilstab import cli

    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs["trials"])
        raise RuntimeError("trials reached the check")

    # refuse before any trial runs; at the cap the check is reached
    monkeypatch.setattr(verify, "check_aut_extension", record)
    monkeypatch.setattr(cli, "check_aut_extension", record)
    for too_many in (cli.MAX_TRIALS + 1, 10**9):
        result = run(capsys, "kernel-iso", "-r", "2", "-c", "2", "--trials", str(too_many))
        assert _usage_error(result) and f"--trials <= {cli.MAX_TRIALS}" in result[2]
    assert not calls
    with pytest.raises(RuntimeError, match="reached the check"):
        main(["kernel-iso", "-r", "2", "-c", "2", "--trials", str(cli.MAX_TRIALS)])
    assert calls == [cli.MAX_TRIALS]


def _internal_error(result):
    code, _, err = result
    return code == 3 and err.startswith("internal error: ") and len(err.strip().splitlines()) == 1


def test_broken_peel_is_an_internal_error(capsys, monkeypatch):
    from nilstab.group import NotAGroupElement

    def broken(*args):
        raise NotAGroupElement("nonzero residual after peeling all degrees")

    monkeypatch.setattr("nilstab.group._peel", broken)
    assert _internal_error(run(capsys, "mul", "-r", "2", "-c", "2", "a", "b"))


def test_failed_assertion_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("comparison map does not respect the relation lattices")

    monkeypatch.setattr("nilstab.cli.stability_scan", broken)
    assert _internal_error(run(capsys, "scan", "--spec", "std", "-c", "1", "-r", "1..2"))


def test_broken_invert_below_the_top_is_an_internal_error(capsys, monkeypatch):
    from nilstab import autos

    correct = autos._sharp_after

    def wrong_at_class_two(beta, f):
        if beta.class_of_target == 2:
            return f
        return correct(beta, f)

    monkeypatch.setattr(autos, "_sharp_after", wrong_at_class_two)
    result = run(capsys, "verify", "-r", "3", "-c", "4")
    assert _internal_error(result)
    assert "inverse climbed to class 3: not in kernel" in result[2]


def test_snf_reports_bad_json(capsys):
    result = run(capsys, "snf", "[[1,2")
    assert _usage_error(result) and "bad JSON input" in result[2]


@pytest.mark.parametrize("command", ["snf", "aut-lift"])
def test_unreadable_json_file_is_a_usage_error(capsys, tmp_path, command):
    missing = tmp_path / "missing.json"
    result = run(capsys, command, f"@{missing}")
    assert _usage_error(result)
    assert f"cannot read {missing}: No such file or directory" in result[2]
    result = run(capsys, command, f"@{tmp_path}")  # a directory
    assert _usage_error(result) and f"cannot read {tmp_path}: " in result[2]


# --- nesting depth and integer size at the input boundary ---------------------


def _nested_spec(depth):
    return "tensor(const, " * (depth - 1) + "std" + ")" * (depth - 1)


def test_deeply_nested_spec_is_a_usage_error(capsys):
    scan = ["scan", "-c", "1", "-r", "1..2", "--allow-unstable", "--spec"]
    for spec in (_nested_spec(400), _nested_spec(600), " (x) ".join(["std"] * 101)):
        result = run(capsys, *scan, spec)
        assert _usage_error(result)
        assert f"nested more than {MAX_SPEC_DEPTH} levels deep" in result[2]
    for spec in (_nested_spec(MAX_SPEC_DEPTH), " (x) ".join(["const"] * MAX_SPEC_DEPTH)):
        code, out, _ = run(capsys, *scan, spec)
        assert code == 0 and "r=2: H_0 = " in out


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, monkeypatch):
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    for source in (deep, f"@{path}", "-"):
        result = run(capsys, "snf", source)
        assert _usage_error(result) and "nested too deeply" in result[2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exact_results_of_any_size_print(capsys, fmt):
    n = "1" + "0" * 2500  # [a^n, b^n] = [ab]^(n^2), 5,001 digits
    code, out, _ = run(capsys, "comm", "-r", "2", "-c", "2", "--format", fmt, f"a^{n}", f"b^{n}")
    big = "1" + "0" * 5000
    assert code == 0
    if fmt == "json":
        assert out == '{"class":2,"exponents":[["ab",' + big + ']],"rank":2}\n'
    else:
        assert out == f"[ab]^{big}\n"
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() != 0  # lifted only while main runs


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_long_integer_input_is_a_usage_error(capsys, fmt):
    longest = "7" * MAX_INPUT_DIGITS
    code, out, _ = run(capsys, "mul", "-r", "2", "-c", "2", "--format", fmt, f"a^{longest}", "1")
    assert code == 0 and longest in out
    too_long = longest + "7"
    for argv in (
        ["mul", "-r", "2", "-c", "2", "--format", fmt, f"a^{too_long}", "1"],
        ["inv", "-r", "2", "-c", "2", "--format", fmt, f"[ab]^-{too_long}"],
        ["snf", "--format", fmt, f"[[{too_long}]]"],
        ["scan", "--spec", "std", "-c", "1", "-r", f"1..{too_long}", "--format", fmt],
        ["scan", "--spec", f"const(Z^{too_long})", "-c", "1", "-r", "1..2", "--format", fmt],
    ):
        result = run(capsys, *argv)
        assert _usage_error(result)
        assert result[2].endswith(f": integer input has more than {MAX_INPUT_DIGITS} digits\n")


# --- one integer grammar: an optional sign and ASCII digits ------------------


def _argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code == 2 and not out.out and out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mul", "-r", "2", "-c", "2", "a^1_0", "b"], "bad exponent in 'a^1_0'"),
        (["mul", "-r", "2", "-c", "2", "a^٣", "b"], "bad exponent in 'a^٣'"),
        (["scan", "--spec", "std", "-c", "1", "-r", "0_1..0_2"], "bad rank range '0_1..0_2'"),
        (["scan", "--spec", "std", "-c", "1", "-r", "1..２"], "bad rank range '1..２'"),
        (["scan", "--spec", "lie(٣)", "-c", "3", "-r", "1..2"], "bad character '٣' in module spec"),
        (["scan", "--spec", "const(Z^1_0)", "-c", "1", "-r", "1..2"], "bad character '_' in"),
        (["snf", "[[٣]]"], "bad JSON input"),
    ],
)
def test_integer_text_is_ascii_digits(capsys, argv, message):
    result = run(capsys, *argv)
    assert _usage_error(result) and message in result[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["witt", "-r", "{}", "-n", "2"],
        ["lyndon", "-r", "2", "-n", "{}"],
        ["mul", "-r", "{}", "-c", "2", "a", "b"],
        ["inv", "-r", "2", "-c", "{}", "a"],
        ["verify", "-r", "2", "-c", "2", "--seed", "{}"],
        ["kernel-iso", "-r", "2", "-c", "2", "--trials", "{}"],
        ["aut-lift", "--images", "a", "b", "-r", "2", "-c", "1", "--to-class", "{}"],
        ["scan", "--spec", "std", "-c", "{}", "-r", "1..2"],
    ],
)
@pytest.mark.parametrize("value", ["1_0", "٣", "３", "0x2"])
def test_integer_options_read_the_same_grammar(capsys, argv, value):
    argv = [value if token == "{}" else token for token in argv]
    assert f"invalid int value: '{value}'" in _argparse_error(argv, capsys)


def test_integer_options_take_a_sign_and_are_bounded(capsys):
    code, out, _ = run(capsys, "witt", "-r", "+2", "-n", " 2 ")
    assert code == 0 and out == "r=1: 1 0\nr=2: 2 1\n"
    too_long = "1" * (MAX_INPUT_DIGITS + 1)
    err = _argparse_error(["witt", "-r", too_long, "-n", "2"], capsys)
    assert f"integer input has more than {MAX_INPUT_DIGITS} digits" in err
    assert too_long not in err


@pytest.mark.parametrize("value", ["٧", "1_0", "７"])
def test_max_class_env_is_ascii_digits(capsys, monkeypatch, value):
    monkeypatch.setenv("NILSTAB_MAX_CLASS", value)
    result = run(capsys, "mul", "-r", "2", "-c", "2", "a", "b")
    assert _usage_error(result)
    assert f"NILSTAB_MAX_CLASS must be an integer, got {value!r}" in result[2]


# --- fuzzed argv: every malformed input is an exit code and a message ---------

_HUGE = "99999999999999999999"
# mostly integers argparse accepts, so most argvs reach main
_NUMBERS = st.sampled_from(
    ["0", "1", "1", "1", "2", "2", "2", "2", "-1", "7", _HUGE, "x", "1.5"]
)
_ELEMENTS = st.one_of(
    st.sampled_from(
        ["1", "", "a", "b^-1", "[ab]^3", "a^-2 * [ab]", f"b^{_HUGE} * a", "a * b^2 * [abb]^-4",
         "a *", "[ba]", "[abab]", "z", "a^x", "a^", "^2", f"a^{_HUGE}", "[ab", "**", "c"]
    ),
    st.text(alphabet="abcz[]^*-10 ", max_size=12),
)
_SPECS = st.one_of(
    st.sampled_from(
        ["", "std", "dual", "const", "lie(", "lie(0)", "lie(2)", "lie(7)", "const(Z^0)",
         "const(Z^-1)", "const(Z^421)", f"const(Z^{_HUGE})", "ext(-1, std)", "ext(0, std)",
         f"ext({_HUGE}, std)", "hom(std, dual", "tensor(std)", "sum(std, const)", "std)",
         "std (x) dual", "hom(std, ext(2, dual))", "ext(200, const(Z^420))"]
    ),
    st.text(alphabet="stdualconZ^()(x),0123 ", max_size=20),
)
_RANGES = st.sampled_from(
    ["1..2", "2..1", "1..", "..3", "a..b", "0..1", "-1..1", f"1..{_HUGE}", "1..1000000000",
     "3", "1...2", "", "..", " 1..2", "2..3"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
).map(json.dumps)
_IMAGES = '[{"rank":2,"class":1,"exponents":[["a",1],["b",1]]},{"rank":2,"class":1,"exponents":[["b",1]]}]'
_MATRICES = st.one_of(
    st.sampled_from(
        ["[[1,2],[3,4]]", "[]", "[[]]", "[[1,2],[3]]", "[[1.5]]", "[[true]]", "{}", "[1,2]",
         "null", "[[1,2", "@/nonexistent/m.json", f"[[{_HUGE},0],[0,1]]", '"x"', "[[0,0],[0,0]]",
         "-"]
    ),
    _JSON,
)
_ENDOS = st.one_of(
    st.sampled_from(
        ['{"rank":2,"class":1,"images":' + _IMAGES + "}", '{"rank":2,"class":1,"images":[]}',
         '{"rank":0,"class":1,"images":[]}', '{"rank":2,"class":0,"images":' + _IMAGES + "}",
         '{"rank":2,"class":1,"images":[{"rank":2,"class":1,"exponents":[["c",1]]},{}]}',
         '{"rank":2,"class":1,"images":[[], 1]}', '{"rank":2}', "[]", "null", "-",
         "@/nonexistent/e.json", "[[1,2]"]
    ),
    _JSON,
)
_FORMAT = st.sampled_from(
    [[], [], [], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]]
)


def _flag(name):
    return st.sampled_from([[], [], [name], [name], [name], ["--bogus"]])



@st.composite
def _argvs(draw):
    """Argument lists of every subcommand, mostly malformed; never --unsafe-bounds."""
    n = draw(_NUMBERS)
    command = draw(
        st.sampled_from(
            ["witt", "lyndon", "mul", "inv", "comm", "verify", "kernel-iso", "aut-lift",
             "scan", "snf", "junk"]
        )
    )
    if command in ("witt", "lyndon"):
        return [command, "-r", n, "-n", draw(_NUMBERS), *draw(_FORMAT)]
    if command in ("mul", "inv", "comm"):
        operands = [draw(_ELEMENTS) for _ in range(1 if command == "inv" else 2)]
        flag = draw(_flag("--oracle"))
        return [command, "-r", n, "-c", draw(_NUMBERS), *flag, *draw(_FORMAT), *operands]
    if command in ("verify", "kernel-iso"):
        extra = ["--trials", draw(st.sampled_from(["0", "1", "2", "-1", "x"]))]
        return [command, "-r", n, "-c", draw(_NUMBERS), "--seed", draw(_NUMBERS)] + (
            extra if command == "kernel-iso" else []
        )
    if command == "aut-lift":
        target = ["--to-class", draw(_NUMBERS)]
        if draw(st.booleans()):
            return [command, draw(_ENDOS), *target]
        images = draw(st.lists(_ELEMENTS, max_size=3))
        return [command, "--images", *images, "-r", n, "-c", draw(_NUMBERS), *target]
    if command == "scan":
        spec, rng = draw(_SPECS), draw(_RANGES)
        flag = draw(_flag("--allow-unstable"))
        return [command, "--spec", spec, "-c", n, "-r", rng, *flag, *draw(_FORMAT)]
    if command == "snf":
        return [command, draw(_MATRICES), *draw(_FORMAT)]
    tokens = ["witt", "scan", "-r", "-c", "-n", "--format", "json", "--spec", "std", "a", "1",
              "2", "1..2", "--images", "--to-class", "--seed", "-h", "--bogus", "-"]
    return draw(st.lists(st.sampled_from(tokens), max_size=8))


def _run_main(argv, stdin_text):
    """(exit code, stdout, stderr, whether argparse exited) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, from_argparse = main(argv), False
            except SystemExit as exc:
                code, from_argparse = exc.code, True
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), from_argparse


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    argv=_argvs(),
    stdin_text=_MATRICES | _ENDOS,
    max_class=st.sampled_from([None, None, None, None, None, "0", "x", "-1", "2", "1"]),
)
@example(argv=["scan", "--spec", "std", "-c", "1", "-r", "1..1000000000"], stdin_text="", max_class=None)
@example(argv=["scan", "--spec", "std", "-c", "1", "-r", f"1..{_HUGE}"], stdin_text="", max_class=None)
@example(argv=["verify", "-r", "1", "-c", "2"], stdin_text="", max_class=None)
@example(argv=["lyndon", "-r", "27", "-n", "1", "--unsafe-bounds"], stdin_text="", max_class=None)
@example(argv=["aut-lift", "--images", "a", "-r", "1", "-c", _HUGE], stdin_text="", max_class=None)
def test_fuzzed_argv_exits_cleanly(argv, stdin_text, max_class):
    saved = os.environ.pop("NILSTAB_MAX_CLASS", None)
    if max_class is not None:
        os.environ["NILSTAB_MAX_CLASS"] = max_class
    try:
        code, out, err, from_argparse = _run_main(argv, stdin_text)
        again = _run_main(argv, stdin_text)
    finally:
        os.environ.pop("NILSTAB_MAX_CLASS", None)
        if saved is not None:
            os.environ["NILSTAB_MAX_CLASS"] = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 3 or (code == 2 and not from_argparse):
        assert len(err.splitlines()) == 1, err
    assert again[:2] == (code, out)


# --- grammar-based fuzz: specs, integers and JSON built from their grammars ---

# integer text: small values, or a sign or whitespace, '_' separators,
# non-ASCII digits, or either side of the digit bound
_SMALL_INTEGER_TEXTS = st.sampled_from(["1", "2", "3"])
_ODD_INTEGER_TEXTS = st.sampled_from(
    ["0", "+2", " 1", "-1", "1_0", "٣", "３", "1" * MAX_INPUT_DIGITS, "1" * (MAX_INPUT_DIGITS + 1)]
)
# one nesting level each that keeps the module's rank
_RANK_KEEPING_LEVELS = ["tensor(const, {})", "{} (x) const", "ext(1, {})", "sum({}, const(Z^0))"]


def _spec_leaves(integers):
    return (
        st.sampled_from(["std", "dual", "const"])
        | integers.map("const(Z^{})".format)
        | integers.map("lie({})".format)
    )


def _spec_trees(integers):
    """Module specs over every constructor, with (x) chains, their numbers drawn from integers."""
    return st.recursive(
        _spec_leaves(integers),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["sum", "tensor", "hom"]), inner, inner).map(
                lambda t: f"{t[0]}({t[1]}, {t[2]})"
            ),
            st.tuples(integers, inner).map(lambda t: f"ext({t[0]}, {t[1]})"),
            st.lists(inner, min_size=2, max_size=3).map(" (x) ".join),
        ),
        max_leaves=4,
    )


def _nested_json(draw, doc):
    """doc, sometimes inside lists or objects nested past the recursion limit."""
    depth = draw(st.sampled_from([0, 0, 0, 2, 900, 1100, 5000]))
    opening, closing = draw(st.sampled_from([("[", "]"), ('{"x":', "}")]))
    return opening * depth + doc + closing * depth


@st.composite
def _grammar_argvs(draw):
    """Argument lists of scan, mul, inv, witt, snf and aut-lift.  Half of them
    write only small integers, so that deep specs and lifts get computed; the
    rest draw each integer from every shape."""
    clean = draw(st.booleans())
    integers = _SMALL_INTEGER_TEXTS if clean else _SMALL_INTEGER_TEXTS | _ODD_INTEGER_TEXTS
    number = lambda: draw(integers)  # noqa: E731
    command = draw(st.sampled_from(["scan", "scan", "scan", "mul", "inv", "witt", "snf", "aut-lift"]))
    if command == "scan":
        if draw(st.booleans()):
            spec = draw(_spec_trees(integers))
        else:
            # a leaf at depth 1 wrapped to a depth on either side of MAX_SPEC_DEPTH
            spec = draw(_spec_leaves(integers))
            for _ in range(draw(st.sampled_from(range(MAX_SPEC_DEPTH - 2, MAX_SPEC_DEPTH + 1)))):
                spec = draw(st.sampled_from(_RANK_KEEPING_LEVELS)).format(spec)
        rng = draw(st.sampled_from(["1..", "2..", ""])) + draw(st.sampled_from(["2", "3"]) | integers)
        fmt = draw(st.sampled_from(["text", "json", "csv"]))
        return [command, "--spec", spec, "-c", number(), "-r", rng, "--allow-unstable",
                "--format", fmt]
    if command in ("mul", "inv"):
        operands = [f"a^{number()} * [ab]^{number()}", f"b^{number()}"][: 2 if command == "mul" else 1]
        return [command, "-r", "2", "-c", number(), *draw(_flag("--oracle")), *operands]
    if command == "witt":
        return [command, "-r", number(), "-n", number()]
    if command == "snf":
        rows = draw(st.lists(st.lists(integers, min_size=1, max_size=3), max_size=3))
        doc = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
        return [command, _nested_json(draw, doc), *draw(_FORMAT)]
    # aut-lift: each image is its generator times powers of other basic commutators
    rank, klass = (draw(st.sampled_from(["2", "3"])), number()) if clean else (number(), number())
    images = []
    for letter in "abc"[: int(rank) if clean else draw(st.integers(0, 3))]:
        words = st.sampled_from(["ab", "abb", "ac"] if clean else ["a", "ab", "ba", "c"])
        others = st.lists(st.tuples(words, integers), max_size=2, unique_by=lambda t: t[0])
        entries = [(letter, "1"), *draw(others)]
        exps = ",".join(f'["{w}",{n}]' for w, n in entries)
        images.append(f'{{"rank":{rank},"class":{klass},"exponents":[{exps}]}}')
    doc = f'{{"rank":{rank},"class":{klass},"images":[{",".join(images)}]}}'
    return [command, _nested_json(draw, doc), "--to-class", number()]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(argv=_grammar_argvs())
@example(argv=["scan", "--spec", "lie(٣)", "-c", "3", "-r", "1..2"])
@example(argv=["witt", "-r", "٣", "-n", "2"])
@example(argv=["snf", "[" * 5000 + "]" * 5000])
@example(argv=["scan", "--spec", "ext(1, " * (MAX_SPEC_DEPTH - 1) + "std" + ")" * (MAX_SPEC_DEPTH - 1),
               "-c", "1", "-r", "1..2"])
@example(argv=["scan", "--spec", "ext(1, " * MAX_SPEC_DEPTH + "std" + ")" * MAX_SPEC_DEPTH,
               "-c", "1", "-r", "1..2"])
@example(argv=["mul", "-r", "2", "-c", "3", "a^" + "1" * MAX_INPUT_DIGITS, "b^-" + "1" * 4000])
@example(argv=["mul", "-r", "2", "-c", "3", "a^" + "1" * (MAX_INPUT_DIGITS + 1), "b"])
def test_grammar_fuzzed_input_exits_cleanly(argv):
    code, out, err, from_argparse = _run_main(argv, "")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2 and not from_argparse:
        assert len(err.splitlines()) == 1, err
    assert _run_main(argv, "")[:2] == (code, out)

"""Command-line behavior: output schemas, exit codes, determinism."""

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import soupdiv
import soupdiv.core as core
import soupdiv.periodic as periodic
from soupdiv.cli import _dump_json, run

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_DIR = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qinf_text_digits(capsys):
    code, out, _ = invoke(capsys, "qinf", "--tol", "1e-7")
    assert code == 0
    assert out == "0.5845751\n"


def test_qinf_json(capsys):
    code, out, _ = invoke(capsys, "qinf", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["q_inf"] - 0.5845751) <= 5e-7
    assert abs(payload["poly_residual"]) <= 1e-11


def test_classify_infeasible_json_and_exit(capsys):
    code, out, _ = invoke(capsys, "classify", "--q", "0.4")
    assert code == 1
    payload = json.loads(out)
    assert payload["class"] == "Infeasible"
    assert payload["witness_gap"] == pytest.approx(0.4 / 3.0, abs=1e-10)


def test_classify_positive_exit(capsys):
    code, out, _ = invoke(capsys, "classify", "--q", "0.75")
    assert code == 0
    assert json.loads(out)["class"] == "BoundedFairGreedy"
    code, out, _ = invoke(capsys, "classify", "--q", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "BoundedFairCertificate"
    assert payload["certificate"]["N"] >= 1


def test_classify_unknown_exit(capsys):
    code, out, _ = invoke(capsys, "classify", "--q", "0.56")
    assert code == 1
    assert json.loads(out)["class"] == "Unknown"


def test_classify_periodic_exit(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--q", "0.5436890126916784", "--search-degree", "8"
    )
    assert code == 0
    assert json.loads(out)["class"] == "PeriodicFair"


def test_classify_text_mode(capsys):
    code, out, _ = invoke(capsys, "classify", "--q", "0.4", "--format", "text")
    assert code == 1
    assert out.startswith("Infeasible")


def test_periodic_search_finds_golden(capsys):
    code, out, _ = invoke(capsys, "periodic-search", "--max-degree", "6")
    assert code == 0
    rows = json.loads(out)
    golden = [row for row in rows if row["pattern"] == "+---++"]
    assert len(golden) == 1
    assert golden[0]["degree"] == 6
    assert abs(golden[0]["roots"][0] - 0.618034) <= 1e-5
    assert golden[0]["negation_partner"] == "-+++--"


# SHA-256 of `periodic-search --max-degree 14` (1,482 rows), a degree past
# the golden files
PERIODIC_SEARCH_14_DIGESTS = {
    "json": "c7146af2298058da6aa3109986d263c3df9a3b19814050a6984017a24325e8c0",
    "text": "843412b1fd8f23ac8a5c72246e3f0ff62be9a8e42b6f88aa3de17c7a9085cbff",
}


@pytest.mark.parametrize("fmt", sorted(PERIODIC_SEARCH_14_DIGESTS))
def test_periodic_search_14_is_pinned(capsys, fmt):
    code, out, _ = invoke(capsys, "periodic-search", "--max-degree", "14", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PERIODIC_SEARCH_14_DIGESTS[fmt]


def test_periodic_search_empty_is_negative(capsys):
    code, out, _ = invoke(capsys, "periodic-search", "--max-degree", "4")
    assert code == 1
    assert json.loads(out) == []


def test_periodic_search_grid_option_is_gone(capsys):
    code, _, err = invoke(capsys, "periodic-search", "--max-degree", "6", "--grid", "8")
    assert code == 2
    assert "--grid" in err


def test_root_tol_option_is_gone(capsys):
    # roots are always bisected to core.TOL
    for value in ("1e-6", "inf", "nan"):
        code, out, err = invoke(capsys, "periodic-search", "--max-degree", "8", "--root-tol", value)
        assert code == 2
        assert out == ""
        assert "--root-tol" in err


def test_exponential_searches_refused_up_front(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("searched before checking the budget")

    monkeypatch.setattr(periodic, "enumerate_balanced", refuse)
    monkeypatch.setattr(periodic, "_excluded", refuse)
    monkeypatch.setattr(periodic, "_power_table", refuse)
    for argv, reason in (
        (["periodic-search", "--max-degree", "20"], "exceeds the cap of 18"),
        (["periodic-search", "--max-degree", "40"], "exceeds the cap of 18"),
        (["classify", "--q", "0.55", "--search-degree", "66"], "exceeds the cap of 64"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert reason in err


def test_periodic_search_too_small_degree_exits_two(capsys):
    for degree in ("1", "0", "-4"):
        code, out, err = invoke(capsys, "periodic-search", "--max-degree", degree)
        assert code == 2, degree
        assert out == ""
        assert err == (
            f"soupdiv: error: periodic search degree {degree} must be an integer of at least 2\n"
        )


def test_classify_node_budget_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(periodic, "MAX_MEMBERSHIP_NODES", 40)
    code, out, err = invoke(capsys, "classify", "--q", "0.56")
    assert code == 2
    assert out == ""
    assert "prefix nodes" in err


def test_greedy_subcommand(capsys):
    code, out, _ = invoke(capsys, "greedy", "--q", "0.75", "--scoops", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["signs"].startswith("+-")
    assert len(payload["signs"]) == 10
    assert payload["max_abs_sign_sum"] == 1
    assert abs(payload["final_residual"]) <= payload["final_residual_bound"] + 1e-10


def test_greedy_edge_band_is_admitted(capsys):
    # a decimal entry of 1/sqrt(2) that the threshold admits gets a division
    code, out, err = invoke(capsys, "greedy", "--q", "0.70710678118555", "--scoops", "4")
    assert code == 0, err
    assert json.loads(out)["signs"] == "+--+"


def test_classify_edge_band_is_greedy(capsys):
    # the q that greedy admits above is classified in the greedy regime too
    code, out, _ = invoke(capsys, "classify", "--q", "0.70710678118555")
    assert code == 0
    assert json.loads(out)["class"] == "BoundedFairGreedy"


def test_greedy_below_threshold_is_domain_error(capsys):
    code, _, err = invoke(capsys, "greedy", "--q", "0.6", "--scoops", "10")
    assert code == 2
    assert "error" in err


def test_certify_success_and_failure(capsys):
    code, out, _ = invoke(capsys, "certify", "--q", "0.7", "--N", "8")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["N"] == 8
    assert cert["A"] == pytest.approx(0.9862346696219748, rel=1e-9)
    assert len(cert["pn_values"]) == 8
    assert set(cert["checks"]) == {"base", "endpoint", "gap", "ratio", "p_limit"}

    code, out, _ = invoke(capsys, "certify", "--q", "0.55")
    assert code == 1
    failure = json.loads(out)["failure"]
    assert failure["family"] == "gap"
    assert failure["N"] == 64


def test_construct_emits_plan(capsys):
    code, out, _ = invoke(capsys, "construct", "--q", "0.62", "--scoops", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["scoops"] >= 50
    assert len(payload["signs"]) == payload["scoops"]
    assert payload["blocks"][0] == {"end": 0, "residual": 0.0, "bound": payload["certificate"]["A"]}
    for block in payload["blocks"]:
        assert abs(block["residual"]) <= block["bound"] + 1e-11


def test_construct_failure_exit(capsys):
    code, out, _ = invoke(capsys, "construct", "--q", "0.55", "--scoops", "50")
    assert code == 1
    assert json.loads(out)["failure"]["family"] == "gap"


def test_construct_text_failure_matches_certify(capsys):
    for extra in ((), ("--N", "4")):
        code, out, _ = invoke(
            capsys, "construct", "--q", "0.55", "--scoops", "10", *extra, "--format", "text"
        )
        certify_code, certify_out, _ = invoke(
            capsys, "certify", "--q", "0.55", *extra, "--format", "text"
        )
        assert code == certify_code == 1
        assert out == certify_out
        assert out.startswith("not certified: gap inequality fails at n=1")


def test_simulate_csv(capsys):
    code, out, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs", "+-+-")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,sign,stuff1_plus,stuff1_minus,stuff2_plus,stuff2_minus,imbalance1,imbalance2"
    assert lines[1] == "1,1,1,0,0.5,0,1,0.5"
    assert lines[4] == "4,-1,2,2,0.625,0.3125,0,0.3125"


def test_simulate_csv_to_file(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = invoke(
        capsys, "simulate", "--q", "0.5", "--signs", "+-+-", "--out", str(out_csv)
    )
    assert code == 0
    assert out == ""
    assert out_csv.read_text().startswith("i,sign,")


def test_simulate_csv_option_is_gone(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    code, out, err = invoke(
        capsys, "simulate", "--q", "0.5", "--signs", "+-+-", "--csv", str(out_csv)
    )
    assert code == 2
    assert out == ""
    assert "--csv" in err
    assert not out_csv.exists()


def test_simulate_signs_from_file(tmp_path, capsys):
    sign_file = tmp_path / "signs.txt"
    sign_file.write_text("+\n-\n+\n-\n")
    code_inline, out_inline, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs", "+-+-")
    code_file, out_file, _ = invoke(
        capsys, "simulate", "--q", "0.5", "--signs", str(sign_file)
    )
    assert code_inline == code_file == 0
    assert out_inline == out_file


def test_simulate_signs_reading_both_ways_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "+-").write_text("-\n+\n")
    code, out, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", "+-")
    assert code == 2
    assert out == ""
    assert "inline signs '+-'" in err and "existing file '+-'" in err
    code_file, out_file, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs", "./+-")
    code_inline, out_inline, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs=-+")
    assert code_file == code_inline == 0
    assert out_file == out_inline


def test_simulate_signs_leading_minus_needs_equals(tmp_path, capsys):
    # argparse reads a detached value starting with '-' as an option
    code, out, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", "-+")
    assert code == 2
    assert out == ""
    assert "expected one argument" in err
    sign_file = tmp_path / "signs.txt"
    sign_file.write_text("-\n+\n")
    code_inline, out_inline, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs=-+")
    code_file, out_file, _ = invoke(capsys, "simulate", "--q", "0.5", "--signs", str(sign_file))
    assert code_inline == code_file == 0
    assert out_inline == out_file
    assert out_inline.splitlines()[1].startswith("1,-1,")


def test_simulate_checks_each_sign_once(tmp_path, monkeypatch, capsys):
    # the signs reach simulate as text, so parse_signs is their only check
    checked = []
    for name in ("parse_signs", "_validated_signs"):
        def spy(signs, check=getattr(core, name), name=name):
            result = check(signs)
            checked.append((name, len(result)))
            return result

        monkeypatch.setattr(core, name, spy)
    sign_file = tmp_path / "signs.txt"
    sign_file.write_text("+\n-1\n\u2212\n+1\n-\n", encoding="utf-8")
    for signs, count in ((str(sign_file), 5), ("+-+-", 4)):
        checked.clear()
        code, _, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", signs)
        assert code == 0, err
        assert checked == [("parse_signs", count)]


def test_simulate_sign_file_with_bom_and_crlf(tmp_path, capsys):
    # editors on some systems save UTF-8 with a byte-order mark and CRLF ends
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"+\n-1\n\xe2\x88\x92\n+1\n")
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf+\r\n-1\r\n\xe2\x88\x92\r\n+1\r\n")
    code_plain, out_plain, _ = invoke(capsys, "simulate", "--q", "0.6", "--signs", str(plain))
    code_bom, out_bom, err = invoke(capsys, "simulate", "--q", "0.6", "--signs", str(bom))
    assert code_plain == code_bom == 0, err
    assert out_bom == out_plain
    assert out_plain.splitlines()[1].startswith("1,1,")


def test_simulate_empty_sign_file(tmp_path, capsys):
    sign_file = tmp_path / "signs.txt"
    sign_file.write_text("\n\n", encoding="utf-8")
    code, out, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", str(sign_file))
    assert code == 2
    assert out == ""
    assert err == "soupdiv: error: cannot simulate an empty sign sequence\n"


def test_simulate_sign_file_unknown_token(tmp_path, capsys):
    sign_file = tmp_path / "signs.txt"
    sign_file.write_text("+\n-\n\n+2\n", encoding="utf-8")
    code, out, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", str(sign_file))
    assert code == 2
    assert out == ""
    assert f"{sign_file}:4: expected one sign per line, got '+2'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--q", "0.5", "--signs", "."], "Is a directory: '.'"),
        (["simulate", "--q", "0.5", "--signs", "latin1.txt"], "latin1.txt: not a UTF-8 text file"),
        (["qinf", "--out", "."], "Is a directory: '.'"),
    ],
    ids=["signs-directory", "signs-not-utf8", "out-directory"],
)
def test_unusable_paths_exit_two(tmp_path, monkeypatch, capsys, argv, message):
    # a path that cannot be read or written is a usage error, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes(b"+\n\xe9\n")
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("soupdiv: error: ") and message in err, err


def child_env():
    return {**os.environ, "PYTHONPATH": str(Path(soupdiv.__file__).resolve().parent.parent)}


def test_import_leaves_out_dataclasses_and_inspect():
    # every soupdiv process pays for what the package imports
    probe = (
        "import sys, soupdiv, soupdiv.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=child_env(), capture_output=True, text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


# Prints the soupdiv, json and csv modules that a child has loaded after
# ``import soupdiv, soupdiv.cli`` and, when it has an argv, one run of it.
_CENSUS = (
    "import sys, soupdiv, soupdiv.cli\n"
    "if sys.argv[1:]:\n"
    "    soupdiv.cli.run(sys.argv[1:])\n"
    "print(*(m for m in sys.modules if m.split('.')[0] in ('soupdiv', 'json', 'csv')),\n"
    "      file=sys.stderr)\n"
)


def loaded_modules(*argv):
    result = subprocess.run(
        [sys.executable, "-S", "-c", _CENSUS, *argv],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return set(result.stderr.split())


def test_import_loads_only_the_command_line():
    assert loaded_modules() == {"soupdiv", "soupdiv.cli", "soupdiv.core"}


def test_package_imports_a_module_on_its_first_read():
    # as when the package imported every module up front
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import soupdiv; print(soupdiv.periodic.__name__)"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    assert result.stdout == "soupdiv.periodic\n"


def test_subcommands_load_only_what_they_run():
    assert not {"soupdiv.sim", "soupdiv.periodic", "soupdiv.greedy"} & loaded_modules("qinf")
    greedy_text = loaded_modules("greedy", "--q", "0.75", "--scoops", "10", "--format", "text")
    assert not {
        "soupdiv.approx", "soupdiv.sim", "soupdiv.periodic", "soupdiv.poly", "json"
    } & greedy_text


def test_simulate_json_summary(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--q", "0.5", "--signs", "+-+-", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["imbalance2"] == pytest.approx(0.3125, abs=1e-12)
    assert payload["steps"] == 4


def test_simulate_steps_validation(capsys):
    # a trace is always the whole division it was given, so --steps is refused
    code, out, err = invoke(capsys, "simulate", "--q", "0.5", "--signs", "+-", "--steps", "5")
    assert code == 2
    assert out == ""
    assert "error" in err and "--steps" in err


def test_domain_errors_exit_two(capsys):
    for argv in (
        ["classify", "--q", "1.5"],
        ["classify", "--q", "0"],
        ["qinf", "--tol", "-1"],
        ["qinf", "--tol", "inf"],
        ["qinf", "--tol", "nan"],
        ["simulate", "--q", "0.5", "--signs", "abcdef"],
        ["certify", "--q", "0.7", "--N", "65"],
        ["construct", "--q", "0.7", "--scoops", "4", "--N", "65"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err
    # q is checked by the library function that uses it, once
    for argv, bad in (
        (["certify", "--q", "1.5"], "1.5"),
        (["construct", "--q", "1.5", "--scoops", "10"], "1.5"),
        (["greedy", "--q", "1.5", "--scoops", "10"], "1.5"),
        (["simulate", "--q", "1.5", "--signs", "+-"], "1.5"),
        (["classify", "--q", "zzz"], "'zzz'"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "q" in err and bad in err, err


_TEXT_RUNS = {
    "qinf": (["qinf"], 0),
    "classify": (["classify", "--q", "0.5436890126916784", "--format", "text"], 0),
    "greedy": (["greedy", "--q", "0.75", "--scoops", "40", "--format", "text"], 0),
    "construct": (["construct", "--q", "0.62", "--scoops", "40", "--format", "text"], 0),
    "certify": (["certify", "--q", "0.62", "--format", "text"], 0),
    "periodic-search": (["periodic-search", "--max-degree", "8", "--format", "text"], 0),
    "simulate": (["simulate", "--q", "0.75", "--signs", "+--+"], 0),
    "domain error": (["classify", "--q", "1.5", "--format", "text"], 2),
}


_JSON_RUNS = {
    f"{name} json": ([*argv, "--format", "json"], 0)
    for name, argv in (
        ("qinf", ["qinf"]),
        ("classify", ["classify", "--q", "0.5436890126916784"]),
        ("greedy", ["greedy", "--q", "0.75", "--scoops", "40"]),
        ("construct", ["construct", "--q", "0.62", "--scoops", "40"]),
        ("certify", ["certify", "--q", "0.62"]),
        ("periodic-search", ["periodic-search", "--max-degree", "8"]),
        ("simulate", ["simulate", "--q", "0.75", "--signs", "+--+"]),
    )
}


@pytest.mark.parametrize("name", [*_TEXT_RUNS, *_JSON_RUNS])
def test_run_leaves_no_cyclic_garbage(capsys, name):
    # the parser is built once per process, so after a first call a run
    # leaves nothing for the cyclic collector, in either output format;
    # usage errors still do (argparse's exit path), and are not checked here
    argv, expected_code = {**_TEXT_RUNS, **_JSON_RUNS}[name]
    run(argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run(argv) == expected_code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "classify", "--q", "zzz")[0] == 2
    assert invoke(capsys, "classify")[0] == 2
    assert invoke(capsys, "classify", "--q", "0.4", "--bogus")[0] == 2
    # auto_certificate always tries N = 1, 2, 4, ..., DEFAULT_N_MAX
    assert invoke(capsys, "certify", "--q", "0.62", "--n-max", "64")[0] == 2


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = invoke(capsys, "classify", "--q", "0.4", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert json.loads(out_path.read_text())["class"] == "Infeasible"


def test_byte_identical_reruns(capsys):
    for argv in (
        ["classify", "--q", "0.6"],
        ["periodic-search", "--max-degree", "6"],
        ["construct", "--q", "0.7", "--scoops", "20"],
        ["qinf"],
    ):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second


# Pinned stdout bytes and exit codes, text and failure paths included;
# tests/golden/simulate_signs.txt is an input that mixes every sign token.
GOLDEN_CASES = [
    (["certify", "--q", "0.62"], "certify_q0.62.json", 0),
    (["certify", "--q", "0.62", "--format", "text"], "certify_q0.62.txt", 0),
    (["construct", "--q", "0.62", "--scoops", "12"], "construct_q0.62_scoops12.json", 0),
    (["construct", "--q", "0.62", "--scoops", "12", "--format", "text"], "construct_q0.62_scoops12.txt", 0),
    (["classify", "--q", "0.6"], "classify_q0.6.json", 0),
    (["qinf"], "qinf.txt", 0),
    (["qinf", "--format", "json"], "qinf.json", 0),
    *[
        (["classify", "--q", q, *fmt], f"classify_q{q}.{ext}", code)
        for q, code in (("0.4", 1), ("0.56", 1), ("0.618033988749895", 0), ("0.75", 0))
        for fmt, ext in (((), "json"), (("--format", "text"), "txt"))
    ],
    (["greedy", "--q", "0.75", "--scoops", "10"], "greedy_q0.75_scoops10.json", 0),
    (["greedy", "--q", "0.75", "--scoops", "10", "--format", "text"], "greedy_q0.75_scoops10.txt", 0),
    (["periodic-search", "--max-degree", "8"], "periodic_search_8.json", 0),
    (["periodic-search", "--max-degree", "8", "--format", "text"], "periodic_search_8.txt", 0),
    (["periodic-search", "--max-degree", "4", "--format", "text"], "periodic_search_4.txt", 1),
    (["periodic-search", "--max-degree", "12"], "periodic_search_12.json", 0),
    (["periodic-search", "--max-degree", "12", "--format", "text"], "periodic_search_12.txt", 0),
    (["certify", "--q", "0.55"], "certify_q0.55.json", 1),
    (["certify", "--q", "0.55", "--format", "text"], "certify_q0.55.txt", 1),
    (
        ["construct", "--q", "0.55", "--scoops", "10", "--N", "4", "--format", "text"],
        "construct_q0.55_scoops10_N4.txt",
        1,
    ),
    (["simulate", "--q", "0.6", "--signs", str(GOLDEN_DIR / "simulate_signs.txt")], "simulate_q0.6.csv", 0),
    (
        ["simulate", "--q", "0.6", "--signs", str(GOLDEN_DIR / "simulate_signs.txt"), "--format", "json"],
        "simulate_q0.6.json",
        0,
    ),
]


@pytest.mark.parametrize(
    "argv, golden, expected_code", GOLDEN_CASES, ids=[case[1] for case in GOLDEN_CASES]
)
def test_outputs_match_golden_bytes(capsys, argv, golden, expected_code):
    code, out, err = invoke(capsys, *argv)
    assert code == expected_code, err
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


# One golden per subcommand, run in a fresh ``python -m soupdiv.cli``: in
# this process every module is loaded already, so a missing import in a
# subcommand shows only in a child.
_FRESH_GOLDENS = (
    "qinf.json", "classify_q0.56.txt", "greedy_q0.75_scoops10.json", "periodic_search_8.txt",
    "certify_q0.55.json", "construct_q0.62_scoops12.json", "simulate_q0.6.csv",
)


_FRESH_CASES = [case for case in GOLDEN_CASES if case[1] in _FRESH_GOLDENS]


@pytest.mark.parametrize(
    "argv, golden, expected_code", _FRESH_CASES, ids=[case[1] for case in _FRESH_CASES]
)
def test_fresh_process_matches_golden_bytes(argv, golden, expected_code):
    result = subprocess.run(
        [sys.executable, "-S", "-m", "soupdiv.cli", *argv],
        env=child_env(), capture_output=True, check=False,
    )
    assert (result.returncode, result.stdout) == (
        expected_code, (GOLDEN_DIR / golden).read_bytes()
    ), result.stderr


# SHA-256 of outputs at workload sizes: a 4,295-block construct, 10^4 greedy
# scoops, 5,736 periodic-search rows and a seeded 5,000-scoop trace
WORKLOAD_DIGESTS = {
    "construct": (
        ["construct", "--q", "0.823452", "--scoops", "8588", "--format", "json"],
        "93f002529961d9e23f1d5beeb2d2a235962eda8bb7b146a20d2cb278408fb734",
    ),
    "greedy": (
        ["greedy", "--q", "0.99", "--scoops", "10000", "--format", "json"],
        "ac4fa9c2c62bfa99af3d66ff426bb6a328e669d16daf64adaf63be7218c4b44d",
    ),
    "periodic-search": (
        ["periodic-search", "--max-degree", "16", "--format", "json"],
        "38447b61e94f70b86b0cd918355bd2a84fc5201d74682bdd373b649a6df4bb98",
    ),
    "simulate": (
        ["simulate", "--q", "0.9", "--signs"],
        "f3af3aca0d90ad2198a760f831543266930720948681120f73358ff7073379cc",
    ),
}


@pytest.mark.parametrize("name", list(WORKLOAD_DIGESTS))
def test_workload_size_outputs_are_pinned(tmp_path, capsys, name):
    argv, digest = WORKLOAD_DIGESTS[name]
    if name == "simulate":
        rng = random.Random(5000)
        sign_file = tmp_path / "signs.txt"
        sign_file.write_text("".join(rng.choice("+-") + "\n" for _ in range(5000)))
        argv = [*argv, str(sign_file)]
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_round_trips(capsys):
    for argv in (
        ["classify", "--q", "0.6"],
        ["certify", "--q", "0.7"],
        ["construct", "--q", "0.62", "--scoops", "10"],
        ["periodic-search", "--max-degree", "6"],
        ["qinf", "--format", "json"],
    ):
        _, out, _ = invoke(capsys, *argv)
        assert json.dumps(json.loads(out)) == json.dumps(json.loads(out))


def round_floats(obj):
    """Every float of a payload rounded to 15 significant digits, and each
    named tuple as the dict of its fields: the CLI's JSON rendering before
    it wrote JSON itself, when it handed this to ``json.dumps``."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


class Record(NamedTuple):
    value: Any
    other: Any


_JSON_FLOATS = st.floats() | st.sampled_from([
    0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e16, -1.2345678901234567e16, 9.999999999999999e15,
    123456789012345.67, 0.1 + 0.2, math.nan, math.inf, -math.inf,
])
_JSON_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\u2212+-", "\"\\/", "\ud83c\udf72"])
_JSON_LEAVES = st.none() | st.booleans() | st.integers() | _JSON_FLOATS | _JSON_TEXT
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_JSON_TEXT, children, max_size=4)
        | st.builds(Record, children, children)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_rendering_matches_json_dumps(payload):
    assert _dump_json(payload) == json.dumps(round_floats(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [{1, 2}, b"+-", object(), {"a": [complex(1, 2)]}, {1: 2}])
def test_json_rendering_refuses_other_types(payload):
    with pytest.raises(TypeError):
        _dump_json(payload)

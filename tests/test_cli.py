"""Command-line behavior: output schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soupdiv
import soupdiv.core as core
import soupdiv.periodic as periodic
from soupdiv.cli import run

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


def test_import_leaves_out_dataclasses_and_inspect():
    # every soupdiv process pays for what the package imports
    probe = (
        "import sys, soupdiv, soupdiv.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(soupdiv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


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

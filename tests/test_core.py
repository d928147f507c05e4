"""Core types and evaluation against naive term-by-term oracles."""

import ast
import math
import random
import re
import tracemalloc
import types
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import soupdiv
from soupdiv import (
    DomainError,
    InputError,
    PMPattern,
    as_signs,
    eval_pm,
    geometric_fair_division,
    geometric_tail,
    parse_signs,
    pattern_roots,
    prefix_diagnostics,
    signs_to_text,
    simulate,
)
from soupdiv.core import bisect_root

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def naive_eval(signs, q):
    """Independent oracle: explicit powers, summed term by term."""
    return sum(s * q**i for i, s in enumerate(as_signs(signs), start=1))


def test_eval_forced_arithmetic():
    assert eval_pm("+-", 0.5) == pytest.approx(0.25, abs=1e-15)
    # "++--" factors as q(1+q)(1-q^2), strictly positive on (0,1)
    q = 0.3
    assert eval_pm("++--", q) == pytest.approx(q * (1 + q) * (1 - q * q), rel=1e-13)


def test_eval_against_naive_oracle_example():
    # frozen from the oracle: 0.5 - 0.25 + 0.125 - 0.0625
    assert naive_eval("+-+-", 0.5) == 0.3125
    assert eval_pm("+-+-", 0.5) == pytest.approx(0.3125, abs=1e-15)


def test_eval_golden_period_vanishes():
    assert abs(eval_pm("+---++", 0.6180339887)) <= 1e-9
    assert abs(eval_pm("+---++", PHI_INV)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_eval_matches_naive_summation(n):
    rng = random.Random(1234 + n)
    for _ in range(25):
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        q = rng.uniform(0.01, 0.99)
        assert abs(eval_pm(signs, q) - naive_eval(signs, q)) <= 1e-13 * n


@pytest.mark.parametrize("bad_q", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_eval_rejects_bad_q(bad_q):
    with pytest.raises(DomainError):
        eval_pm("+-", bad_q)


def test_eval_rejects_empty():
    with pytest.raises(InputError):
        eval_pm("", 0.5)
    with pytest.raises(InputError, match="cannot diagnose an empty sign sequence"):
        prefix_diagnostics("", 0.5)
    with pytest.raises(InputError, match="cannot find roots of an empty sign sequence"):
        pattern_roots("")


def test_prefix_diagnostics_sign_sums():
    sums, _ = prefix_diagnostics("+-", 0.3)
    assert sums == [1, 0]
    sums, _ = prefix_diagnostics("+---++", 0.3)
    assert sums == [1, 0, -1, -2, -1, 0]


def test_prefix_diagnostics_residuals():
    _, residuals = prefix_diagnostics("+-", 0.5)
    assert residuals == pytest.approx([0.5, 0.25], abs=1e-15)


def test_prefix_diagnostics_final_matches_eval():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 30)
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        q = rng.uniform(0.05, 0.95)
        _, residuals = prefix_diagnostics(signs, q)
        for k in range(1, n + 1):
            assert residuals[k - 1] == pytest.approx(
                eval_pm(signs[:k], q), abs=1e-13 * n
            )


def whole_loop_diagnostics(signs, q):
    """prefix_diagnostics as one loop over every scoop, without the settled
    residual's early stop: the reference for bit identity."""
    sign_sums, residuals = [], []
    total = 0
    residual = 0.0
    power = 1.0
    for s in signs:
        power *= q
        total += s
        residual += s * power
        sign_sums.append(total)
        residuals.append(residual)
    return sign_sums, residuals


def test_prefix_diagnostics_is_bit_identical_to_the_whole_loop(settle_q, sign_cases):
    q = settle_q
    rng = random.Random(5)
    for kind, signs in sign_cases(q).items():
        n = len(signs)
        full_sums, full_residuals = whole_loop_diagnostics(signs, q)
        full_bytes = array("d", full_residuals).tobytes()
        for m in (1, 2, 3, rng.randint(4, 200), rng.randint(201, n), n):
            sums, residuals = prefix_diagnostics(signs[:m], q)
            assert sums == full_sums[:m], (kind, m)
            assert array("d", residuals).tobytes() == full_bytes[: 8 * m], (kind, m)
            assert residuals[-1].hex() == full_residuals[m - 1].hex(), (kind, m)


def test_prefix_diagnostics_peak_memory():
    # two columns of 10^5 references; the settled residual is one float
    q = 0.75
    signs = geometric_fair_division(q, 100_000)
    tracemalloc.start()
    try:
        sums, residuals = prefix_diagnostics(signs, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == len(residuals) == 100_000
    assert peak <= 2 * 2**20, peak / 2**20


def test_geometric_tail_values():
    assert geometric_tail(0.5, 0) == pytest.approx(1.0, abs=1e-15)
    assert geometric_tail(0.5, 1) == pytest.approx(0.5, abs=1e-15)


def test_geometric_tail_against_partial_sum_oracle():
    # partial sums to machine convergence
    total, term, i = 0.0, 0.0, 2
    while True:
        term = 0.4**i
        if total + term == total:
            break
        total += term
        i += 1
    assert geometric_tail(0.4, 1) == pytest.approx(total, rel=1e-14)


def test_geometric_tail_telescopes():
    rng = random.Random(99)
    for _ in range(50):
        q = rng.uniform(0.01, 0.99)
        k = rng.randint(0, 40)
        lhs = geometric_tail(q, k)
        rhs = geometric_tail(q, k + 1) + q ** (k + 1)
        assert abs(lhs - rhs) <= 1e-14 * max(lhs, rhs)


def test_geometric_tail_validation():
    with pytest.raises(DomainError):
        geometric_tail(1.0, 0)
    with pytest.raises(InputError):
        geometric_tail(0.5, -1)


def test_pattern_requires_balance():
    with pytest.raises(InputError):
        PMPattern.from_text("+--")
    with pytest.raises(InputError):
        PMPattern.from_text("++")
    with pytest.raises(InputError):
        PMPattern(())
    with pytest.raises(InputError):
        PMPattern((2, -2))  # sum zero, but not signs
    assert PMPattern.from_text("+-").degree == 2


def test_pattern_is_its_sign_tuple():
    pattern = PMPattern.from_text("+--+")
    assert pattern == (1, -1, -1, 1)
    assert hash(pattern) == hash((1, -1, -1, 1))
    assert pattern.signs is pattern
    assert as_signs(pattern) is pattern
    assert repr(pattern) == "PMPattern(signs=(1, -1, -1, 1))"
    with pytest.raises(AttributeError):
        pattern.signs = (1, -1)
    with pytest.raises(AttributeError):
        pattern.extra = 1
    with pytest.raises(TypeError):
        pattern[0] = -1
    assert pattern == (1, -1, -1, 1)


def test_pattern_negation():
    pattern = PMPattern.from_text("+---++")
    assert pattern.negated().to_text() == "-+++--"
    assert pattern.negated().negated() == pattern


def test_sign_parsing_round_trip():
    assert parse_signs("+--+") == (1, -1, -1, 1)
    assert signs_to_text((1, -1, -1, 1)) == "+--+"
    # the Unicode minus from typeset sources is accepted on input
    assert parse_signs("+−−+") == (1, -1, -1, 1)
    assert PMPattern.from_text("+-").to_text() == "+-"


def test_sign_parsing_rejects_junk():
    with pytest.raises(InputError):
        parse_signs("+0-")
    with pytest.raises(InputError):
        PMPattern((1, 2))
    with pytest.raises(InputError):
        as_signs([1, 0, -1])


@pytest.mark.parametrize("call", [
    as_signs,
    PMPattern,
    lambda signs: simulate(0.6, signs),
    lambda signs: prefix_diagnostics(signs, 0.6),
    lambda signs: eval_pm(signs, 0.6),
], ids=["as_signs", "PMPattern", "simulate", "prefix_diagnostics", "eval_pm"])
@pytest.mark.parametrize("signs, pos", [
    ([1.5, -1.7], 0),
    ([1.5, -1.5], 0),
    ([1.9, -1.2], 0),
    (["1", "-1"], 0),
    ([0.5, -1], 0),
    ([None, -1], 0),
    (["+", "-"], 0),
    ([math.nan, -1], 0),
    ([1, -1.5], 1),
])
def test_signs_are_checked_as_given(call, signs, pos):
    # a value is refused, never truncated or parsed, with its position
    message = f"sign at position {pos} must be +1 or -1, got {signs[pos]!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        call(signs)


def test_signs_equal_to_one_are_kept_as_ints():
    # True and 1.0 equal 1, so they pass and are stored as int
    signs = as_signs([True, -1.0, 1, -1])
    assert signs == (1, -1, 1, -1)
    assert all(type(s) is int for s in signs)
    plain = (1, -1, -1, 1)
    assert as_signs(plain) is plain


def test_eval_accepts_all_sign_forms():
    pattern = PMPattern.from_text("+-")
    for form in (pattern, "+-", (1, -1), [1, -1]):
        assert eval_pm(form, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_tolerances_declared_only_in_policy_block():
    # each tolerance literal of the package appears once, as a core constant
    policy = {"TOL": 1e-12, "TRACE_TOL_PER_SCOOP": 1e-15, "ROOT_MATCH_WINDOW": 1e-9}
    assert {name: getattr(soupdiv.core, name) for name in policy} == policy
    literals = []
    for path in sorted(Path(soupdiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in policy.values():
                literals.append((path.name, node.value))
    assert sorted(literals) == sorted(("core.py", v) for v in policy.values())


def test_package_all_lists_every_public_name():
    exported = soupdiv.__all__
    assert exported == sorted(set(exported))
    bound = {
        name for name, value in vars(soupdiv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def test_bisect_root_brackets():
    root = bisect_root(lambda x: x * x - 0.5, 0.5, 1.0, 1e-12)
    assert abs(root - math.sqrt(0.5)) <= 1e-12
    # either sign orientation of the bracket works
    assert abs(bisect_root(lambda x: 0.5 - x * x, 0.5, 1.0, 1e-12) - root) <= 1e-12
    # exact zeros at the left end or at a midpoint are returned as is
    assert bisect_root(lambda x: x - 0.25, 0.25, 1.0, 1e-12) == 0.25
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12) == 0.5


def test_bisect_root_with_zero_tol_stops_at_float_resolution():
    # the sign is exact and 1/3 is no float, so no midpoint is a zero; with
    # tol = 0 the bracket shrinks until no float lies strictly inside it
    calls = []

    def f(x):
        calls.append(x)
        return Fraction(x) - Fraction(1, 3)

    root = bisect_root(f, 0.0, 1.0, 0.0)
    assert abs(root - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
    assert len(calls) <= 60

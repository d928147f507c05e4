"""Greedy pairing of the geometric series: admission, signs and the pair-tail bound."""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from soupdiv import (
    DomainError,
    INV_SQRT2,
    InputError,
    PMPattern,
    geometric_fair_division,
    prefix_diagnostics,
)
from soupdiv.core import TOL


def closed_form_tail(q, k):
    return q ** (2 * k + 1) / (1.0 + q)


def pair_residuals(q, n_scoops):
    """Residuals r_2k after each pair, k = 1 .. n_scoops/2."""
    _, residuals = prefix_diagnostics(geometric_fair_division(q, n_scoops), q)
    return residuals[1::2]


def test_condition1_geometric_holds_above_threshold():
    # above the threshold every gap is strictly below its tail, so the
    # residual stays within the tail with no headroom while the tail is
    # far above the double-precision noise floor
    for q in (0.75, 0.9):
        for k, r in enumerate(pair_residuals(q, 60), start=1):
            assert abs(r) <= closed_form_tail(q, k), (q, k)


def test_condition1_equality_at_threshold():
    # (1-q)(1+q) = q^2 exactly when q^2 = 1/2, so gap and tail coincide and
    # the greedy residual meets its bound with equality: every pair after
    # the first is '-'
    q = INV_SQRT2
    seq = geometric_fair_division(q, 40)
    assert seq.to_text() == "+-" + "-+" * 19
    for k, r in enumerate(pair_residuals(q, 40), start=1):
        assert r == pytest.approx(closed_form_tail(q, k), rel=1e-6)


def test_greedy_symmetric_cancellation():
    # the second pair opposes the first across the whole admitted range
    for q in (INV_SQRT2 - TOL, INV_SQRT2, 0.75, 0.99):
        assert geometric_fair_division(q, 4).to_text() == "+--+"


def whole_greedy(q, scoops):
    """Test-local replay of the pairing rule over every pair: '-+' when the
    residual is positive, '+-' otherwise."""
    signs, residual = [], 0.0
    for k in range(1, scoops // 2 + 1):
        sign = -1 if residual > 0.0 else 1
        signs += (sign, -sign)
        residual += sign * q ** (2 * k - 1) * (1.0 - q)
    return tuple(signs)


def test_greedy_returns_pattern_of_recomputed_pairs():
    seq = geometric_fair_division(0.75, 10_000)
    assert type(seq) is PMPattern
    assert seq.signs == whole_greedy(0.75, 10_000)


# the first repeated pair ends at scoop 2,150 for q = 0.7072 and 7,052 for
# q = 0.9, so draws with q up to about 0.96 and enough pairs cross the scoop
# where the loop stops; the last two examples end exactly there
@settings(deadline=None)
@given(q=st.floats(min_value=INV_SQRT2 - TOL, max_value=0.99), n_pairs=st.integers(1, 10_000))
@example(q=INV_SQRT2 - TOL, n_pairs=10_000)
@example(q=0.7072, n_pairs=1_075)
@example(q=0.9, n_pairs=3_526)
def test_greedy_matches_whole_loop(q, n_pairs):
    assert geometric_fair_division(q, 2 * n_pairs).signs == whole_greedy(q, 2 * n_pairs)


# SHA-256 of the sign string of geometric_fair_division(q, 10^5). These
# bits are the printed divisions; a change to them is a behaviour change.
GREEDY_DIGESTS = {
    0.75: "30b0af8b6770887f0c84b1b3d8992fdf4fe97f3a20e9dded94317281d7689f8d",
    0.9: "2bde0e3f5f78c5d1033b0daeabf3a49498855df539e9d2be8ed416d097db64d8",
    0.99: "6a607224214ca0276353fa7b4eb30accc4ee74ae9c5b8e4f338a561f66c5e3ee",
}


@pytest.mark.parametrize("q", sorted(GREEDY_DIGESTS))
def test_greedy_is_bit_identical_at_1e5_scoops(q):
    text = geometric_fair_division(q, 100_000).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GREEDY_DIGESTS[q]


def test_greedy_hand_executed():
    # q = 3/4: gaps 3/16, 27/256, 243/4096 are exact in binary
    q = 0.75
    seq = geometric_fair_division(q, 6)
    assert seq.to_text() == "+--+-+"
    assert pair_residuals(q, 6) == [0.1875, 0.08203125, 0.022705078125]


def test_greedy_bound_geometric():
    q = 0.75
    for k, r in enumerate(pair_residuals(q, 200), start=1):
        assert abs(r) <= closed_form_tail(q, k) + 1e-10


def test_greedy_bound_random_geometric_families():
    # gaps c * r^k with r >= 1/2 satisfy the pairing condition at every k;
    # the soup's gaps are that family with r = q^2 and c = (1-q)/q
    rng = random.Random(2024)
    for _ in range(20):
        q = math.sqrt(rng.uniform(0.55, 0.95))
        n_pairs = rng.randint(3, 60)
        for k, r in enumerate(pair_residuals(q, 2 * n_pairs), start=1):
            assert abs(r) <= closed_form_tail(q, k) + 1e-10, (q, k)


@settings(deadline=None)
@given(
    q=st.floats(min_value=INV_SQRT2 - TOL, max_value=0.999),
    n_pairs=st.integers(1, 2000),
    extra_pairs=st.integers(1, 500),
)
def test_greedy_pair_tail_bound_property(q, n_pairs, extra_pairs):
    n = 2 * n_pairs
    seq = geometric_fair_division(q, n)
    sums, residuals = prefix_diagnostics(seq, q)
    assert all(s in (-1, 0, 1) for s in sums)
    assert all(s == 0 for s in sums[1::2])
    for k, r in enumerate(residuals[1::2], start=1):
        assert abs(r) <= closed_form_tail(q, k) + 1e-11, (q, k)
    # the rule is online: a longer division extends the shorter one
    longer = geometric_fair_division(q, n + 2 * extra_pairs)
    assert longer.signs[:n] == seq.signs


def test_geometric_division_starts_plus_minus():
    seq = geometric_fair_division(0.75, 10)
    assert seq.to_text().startswith("+-")


def test_geometric_division_pair_structure():
    seq = geometric_fair_division(0.8, 200)
    sums, _ = prefix_diagnostics(seq, 0.8)
    assert all(s in (-1, 0, 1) for s in sums)
    assert all(sums[k] == 0 for k in range(1, 200, 2))


def test_geometric_division_residual_bound():
    q = 0.7071068
    seq = geometric_fair_division(q, 2000)
    _, residuals = prefix_diagnostics(seq, q)
    for k in range(1, 1001):
        assert abs(residuals[2 * k - 1]) <= closed_form_tail(q, k) + 1e-10


def test_geometric_division_threshold():
    with pytest.raises(DomainError) as excinfo:
        geometric_fair_division(0.6, 10)
    assert "construct" in str(excinfo.value)
    # exact threshold and barely-below-threshold decimals are accepted
    geometric_fair_division(INV_SQRT2, 4)
    geometric_fair_division(INV_SQRT2 - 5e-13, 4)
    with pytest.raises(DomainError):
        geometric_fair_division(0.70710, 4)


def test_geometric_division_edge_band():
    # the whole band the threshold admits yields a division, and its bound
    # holds to 1e-11; the next float down is refused
    q = INV_SQRT2 - 1e-12
    seq = geometric_fair_division(q, 2000)
    sums, residuals = prefix_diagnostics(seq, q)
    assert all(s in (-1, 0, 1) for s in sums)
    for k in range(1, 1001):
        assert abs(residuals[2 * k - 1]) <= closed_form_tail(q, k) + 1e-11, k
    with pytest.raises(DomainError):
        geometric_fair_division(math.nextafter(INV_SQRT2 - TOL, 0.0), 4)


def test_geometric_division_scoop_validation():
    with pytest.raises(InputError):
        geometric_fair_division(0.75, 7)
    with pytest.raises(InputError):
        geometric_fair_division(0.75, 0)
    with pytest.raises(InputError, match="n_scoops must be a positive even integer"):
        geometric_fair_division(0.75, 10.0)

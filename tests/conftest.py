"""Divisions shared by the bit-identity tests of the per-scoop loops."""

import functools
import random

import pytest

from soupdiv import construct_bounded, geometric_fair_division


@functools.lru_cache(maxsize=None)
def _fixed_cases(n):
    rng = random.Random(20_240 + n)
    return {
        "random": tuple(rng.choices((1, -1), k=n)),
        "all plus": (1,) * n,
        "all minus": (-1,) * n,
        "alternating": (1, -1) * (n // 2),
        "greedy": geometric_fair_division(0.9, n),
        "blocks": construct_bounded(0.6, n).seq[:n],
    }


@functools.lru_cache(maxsize=None)
def _steered_to_one(q, n):
    # '-' while the residual is at least 1.0, '+' below: where 1.0 is in
    # reach, the residual comes to rest on it, a power of two, at which
    # r + p == r starts to hold while r - p == r still fails
    signs = []
    residual = 0.0
    power = 1.0
    for _ in range(n):
        power *= q
        s = -1 if residual >= 1.0 else 1
        residual += s * power
        signs.append(s)
    return tuple(signs)


# The per-scoop loops settle within a few scoops at q = 1e-3, after tens of
# thousands at 0.999, and not within 10^5 scoops at 1 - 1e-7.
@pytest.fixture(params=(1e-3, 0.3, 0.5, 0.6, 0.9, 0.999, 1 - 1e-7))
def settle_q(request):
    return request.param


@pytest.fixture
def sign_cases():
    """``sign_cases(q)`` maps a kind of division to its signs: seeded
    random, all '+', all '-', alternating, the greedy pairing at q = 0.9,
    the block construction at q = 0.6, and signs that steer the residual at
    q toward 1.0. They are 10^5 scoops long at q = 0.999, where a residual
    of order one settles after about 37,000 scoops, and 20,000 otherwise:
    enough for every other q to settle, or at 1 - 1e-7 to show that
    nothing does."""

    def cases(q):
        n = 100_000 if q == 0.999 else 20_000
        return {**_fixed_cases(n), "steered to 1.0": _steered_to_one(q, n)}

    return cases

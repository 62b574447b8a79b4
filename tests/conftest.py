"""Shared fixtures and random-system generators for the test suite."""

import random
from fractions import Fraction

import pytest

from pwlienard import Case, LienardSystem


def rand_rational(rng: random.Random) -> Fraction:
    """A rational in [-5, 5] with denominator 8."""
    return Fraction(rng.randrange(-40, 41), 8)


def _vec(rng, length, odd_only=False, zero=False):
    out = []
    for j in range(length):
        if zero or (odd_only and j % 2 == 0):
            out.append(Fraction(0))
        else:
            out.append(rand_rational(rng))
    return out


def random_sweep_system(rng, case, enforce_odd=True, m=None, n=None):
    """Random system shaped like the oracle-sweep population.

    With ``enforce_odd`` the blocks that the closed forms require to be odd
    (f0 and, for the switch-on-y case, g0) carry only odd-index entries;
    everything else is free.
    """
    if m is None:
        m = rng.randrange(0, 8)
    if n is None:
        n = rng.randrange(0, 8)
    odd_b0 = enforce_odd and case is Case.SWITCH_Y
    return LienardSystem.build(
        case, m, n,
        a0=_vec(rng, m + 1, odd_only=enforce_odd),
        a1=_vec(rng, m + 1),
        b0=_vec(rng, n + 1, odd_only=odd_b0),
        b1=_vec(rng, n + 1),
        c=_vec(rng, n + 1),
    )


def valid_domain_system(rng, case, m=None, n=None):
    """Random system inside the regime where the first-order expansion is
    dynamically exact: switch-on-y needs an odd g, switch-on-x needs f0 = 0."""
    if m is None:
        m = rng.randrange(1, 5)
    if n is None:
        n = rng.randrange(1, 5)
    if case is Case.SWITCH_Y:
        return LienardSystem.build(
            case, m, n,
            a0=_vec(rng, m + 1, odd_only=True),
            a1=_vec(rng, m + 1),
            b0=_vec(rng, n + 1, odd_only=True),
            b1=_vec(rng, n + 1),
            c=_vec(rng, n + 1, odd_only=True),
        )
    return LienardSystem.build(
        case, m, n,
        a0=_vec(rng, m + 1, zero=True),
        a1=_vec(rng, m + 1),
        b0=_vec(rng, n + 1),
        b1=_vec(rng, n + 1),
        c=_vec(rng, n + 1),
    )


@pytest.fixture
def rng():
    return random.Random(20260823)


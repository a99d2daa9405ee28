"""Exact verification of the class-coefficient identities.

Everything here is integer or rational arithmetic; no floats appear.
``gen_binomial`` extends the binomial coefficient to arbitrary integer
upper argument through the falling factorial, so Pascal's rule and the
usual reflection identities keep holding for negative arguments.

The headline identity: for every genus ``g >= 3`` the weighted sum

    S(g) = (g-1)! * sum_{k=0}^{2}  gen_binomial(2-g, k)
                                 * gen_binomial(2g+k-3, g+k-2)
                                 * g! / ((2-k)! * (2g+k-3)!)

collapses to exactly 1, which pins the pushforward coefficient to
``8 / (g-1)!``.  A diagnostic variant keeps an extra ``2**k`` inside
the sum; the two agree at ``g = 3`` and at no larger genus, and both
values are reported so the discrepancy stays visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def gen_binomial(a: int, k: int) -> int:
    """Generalized binomial coefficient with integer upper argument.

    ``a`` may be negative: the value is the degree-``k`` falling
    factorial of ``a`` divided by ``k!``, which is always an integer.
    """
    if k < 0:
        raise ValueError(f"lower argument must be non-negative, got {k}")
    numerator = 1
    for i in range(k):
        numerator *= a - i
    quotient, remainder = divmod(numerator, math.factorial(k))
    if remainder:
        raise AssertionError(f"falling factorial {numerator} not divisible by {k}!")
    return quotient


def reduced_identity(g: int) -> int:
    """The two-term collapse: sum_k C(2-g, k) * C(g, 2-k) for k = 0..2.

    Verified against its expanded quadratic form and asserted to be 1.
    """
    total = sum(gen_binomial(2 - g, k) * gen_binomial(g, 2 - k) for k in range(3))
    expanded = (g * (g - 1)) // 2 + (2 - g) * g + ((2 - g) * (1 - g)) // 2
    if total != expanded:
        raise AssertionError(f"direct sum {total} disagrees with expanded form {expanded}")
    if total != 1:
        raise AssertionError(f"reduced identity is {total}, not 1, at genus {g}")
    return total


def _chain_terms(g: int, with_power_factor: bool) -> list[Fraction]:
    terms = []
    for k in range(3):
        term = Fraction(
            gen_binomial(2 - g, k) * gen_binomial(2 * g + k - 3, g + k - 2) * math.factorial(g),
            math.factorial(2 - k) * math.factorial(2 * g + k - 3),
        ) * math.factorial(g - 1)
        if with_power_factor:
            term *= 2**k
        terms.append(term)
    return terms


def coefficient_chain(g: int) -> Fraction:
    """Exactly evaluate S(g) and assert it equals 1.

    A value of 1 means the pushforward coefficient is ``8 / (g-1)!``.
    """
    if g < 3:
        raise ValueError(f"the chain is evaluated for genus >= 3, got {g}")
    total = sum(_chain_terms(g, with_power_factor=False), Fraction(0))
    if total != 1:
        raise AssertionError(f"coefficient chain evaluates to {total}, not 1, at genus {g}")
    return total


def chain_with_power_factor(g: int) -> Fraction:
    """The diagnostic variant carrying an extra 2**k per summand."""
    if g < 3:
        raise ValueError(f"the chain is evaluated for genus >= 3, got {g}")
    return sum(_chain_terms(g, with_power_factor=True), Fraction(0))


@dataclass(frozen=True)
class ChainRow:
    genus: int
    reduced: int
    chain: Fraction
    chain_terms: tuple[Fraction, Fraction, Fraction]
    variant_with_power_factor: Fraction


def chain_report(gmax: int, gmin: int = 3) -> tuple[ChainRow, ...]:
    """Exact per-genus rows for ``gmin <= g <= gmax``, both normalizations."""
    if gmin < 3:
        # before any row, so no binomial below genus 3 answers first
        raise ValueError(f"the chain is evaluated for genus >= 3, got {gmin}")
    if gmax < gmin:
        raise ValueError(f"empty genus range {gmin}..{gmax}")
    rows = []
    for g in range(gmin, gmax + 1):
        terms = tuple(_chain_terms(g, with_power_factor=False))
        rows.append(
            ChainRow(
                genus=g,
                reduced=reduced_identity(g),
                chain=coefficient_chain(g),
                chain_terms=terms,  # type: ignore[arg-type]
                variant_with_power_factor=chain_with_power_factor(g),
            )
        )
    return tuple(rows)

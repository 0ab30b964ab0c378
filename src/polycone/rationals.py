"""Rational parsing/formatting and continued-fraction rounding helpers.

All exact data crosses module and file boundaries as `fractions.Fraction`
encoded as canonical ``"p/q"`` (or plain integer) strings.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def parse_rational(token) -> Fraction:
    """Parse an exact rational from a string or int; reject anything else.

    Raises ValueError echoing the offending token.
    """
    if isinstance(token, Fraction):
        return token
    if isinstance(token, bool):
        raise ValueError(f"malformed rational: {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational: {token!r}") from exc
    raise ValueError(f"malformed rational: {token!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``"p/q"`` in lowest terms, or ``"p"`` for integers."""
    return str(Fraction(value))


def parse_vector(tokens: Iterable) -> tuple[Fraction, ...]:
    return tuple(parse_rational(t) for t in tokens)


def format_vector(vec: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in vec]


def float_to_fraction(x: float) -> Fraction:
    """Exact binary64-to-rational conversion."""
    return Fraction(x)


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator (then numerator) in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)
    # 0 < lo <= hi: continued-fraction (Stern-Brocot) walk.
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        return Fraction(ceil_lo)
    whole = lo.numerator // lo.denominator
    frac = simplest_in_interval(1 / (hi - whole), 1 / (lo - whole))
    return whole + 1 / frac


def simplest_within(x: float, eps: float, max_denominator: int | None = 10**6) -> Fraction:
    """Simplest rational within eps of x, subject to the denominator cap.

    Used to round estimated numeric limits back to exact data. Falls back
    to the closest capped approximation when the simplest rational in the
    interval is too tall (the caller can detect this by re-checking eps).
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot rationalize non-finite value {x!r}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    fx = Fraction(x)
    feps = Fraction(eps)
    best = simplest_in_interval(fx - feps, fx + feps)
    if max_denominator is not None and best.denominator > max_denominator:
        best = fx.limit_denominator(max_denominator)
    return best

"""Exact integers for rationals, the int->str digit limit, and the
table that turns such integers back into ``Fraction``s.

Nothing here knows about spaces or models, so the credal oracle shares
it and stays an independent check.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


def over_lcd(values) -> tuple[int, list[int]]:
    """``(den, nums)``: ``den > 0`` is the lcm of the denominators of the
    ints and ``Fraction``s in ``values``, and ``nums[i] / den == values[i]``.

    Sums and differences of the numerators have the signs of the same
    sums and differences of the values.
    """
    dens = {v.denominator for v in values}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return den, [v.numerator * scale[v.denominator] for v in values]


def too_long(n: int) -> bool:
    """Whether ``str(n)`` exceeds the int->str digit limit now in force
    (``sys.get_int_max_str_digits()``; 0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    # below 2**(3 * limit) = 8**limit an int has fewer than limit digits
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10**limit


def unprintable(*values) -> bool:
    """Whether ``str()`` of a rational in ``values`` exceeds the digit limit."""
    return any(too_long(max(abs(q.numerator), q.denominator)) for q in values)


def too_long_message(what: str = "a derived numerator or denominator") -> str:
    return f"{what} exceeds {sys.get_int_max_str_digits()} digits"


class Ratios(dict):
    """``num -> Fraction(num, den)`` for one ``den > 0``, each value built
    on the first lookup of ``num`` and kept.

    Every answer over ``den`` is then read from the table, so equal
    answers are one shared immutable object, and the table holds one
    entry per distinct numerator asked for.  It only grows, and only by
    equal values: two threads that miss on one ``num`` both build it and
    either value is kept (CPython inserts a dict entry atomically), so
    every thread reads a value equal to the one it would have built.
    """

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        value = self[num] = Fraction(num, self.den)
        return value

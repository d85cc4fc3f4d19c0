import sys
from fractions import Fraction

import pytest

from impbox._exact import over_lcd, too_long, too_long_message


def _prints(n: int) -> bool:
    try:
        str(n)
    except ValueError:
        return False
    return True


@pytest.fixture
def digit_limit():
    """Set the int->str digit limit for one test, then restore it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [640, 4300])
def test_too_long_agrees_with_str_at_its_edges(digit_limit, limit):
    digit_limit(limit)
    edges = [
        10**limit - 1,  # limit digits: prints
        10**limit,  # one digit more
        2 ** (3 * limit) - 1,  # bit_length 3*limit: the shortcut accepts
        2 ** (3 * limit),  # one bit more: the full test, 8**limit < 10**limit
    ]
    for n in edges + [-n for n in edges]:
        assert too_long(n) is not _prints(n), n
    assert not too_long(10**limit - 1)
    assert too_long(10**limit)
    assert not too_long(2 ** (3 * limit))


def test_over_lcd_builds_an_unprintable_denominator(digit_limit):
    digit_limit(640)
    values = [Fraction(1, 2**640), Fraction(1, 5**640)]
    assert over_lcd(values)[0] == 10**640


def test_too_long_reads_the_limit_at_call_time(digit_limit):
    digit_limit(4300)
    n = 10**1000
    assert not too_long(n)
    digit_limit(640)
    assert too_long(n)
    assert too_long_message("x") == "x exceeds 640 digits"
    assert too_long_message() == "a derived numerator or denominator exceeds 640 digits"


def test_limit_zero_never_rejects(digit_limit):
    digit_limit(0)
    assert not too_long(10**50000)
    assert not too_long(-(10**50000))

from fractions import Fraction

import pytest

from dynca import LogTable, Rational


def test_floor_log_frozen():
    t2 = LogTable(Rational(2, 1), 1 << 20)
    assert t2.floor_log_beta(8) == 3
    t = LogTable(Rational(10, 7), 100)
    assert t.floor_log_beta(1) == 0
    assert t.floor_log_beta(2) == 1  # 10/7 <= 2 < 100/49
    with pytest.raises(ValueError):
        t.floor_log_beta(0)
    with pytest.raises(ValueError):
        LogTable(Rational(1, 1), 10)
    with pytest.raises(ValueError, match="max_r must be at least 1"):
        LogTable(Rational(2, 1), 0)
    # r past max_r, on the bit-length and the table path
    for tab in (t2, t):
        assert tab.floor_log_beta(tab.max_r) >= 0
        with pytest.raises(ValueError, match="exceeds the table range"):
            tab.floor_log_beta(tab.max_r + 1)


@pytest.mark.parametrize("beta", [Rational(2, 1), Rational(10, 7), Rational(3, 2)])
def test_floor_log_exact_rational_bracket(beta):
    limit = 10 ** 6
    t = LogTable(beta, limit)
    b = Fraction(beta.num, beta.den)
    # dense small range plus a coarse sweep of the full range
    points = list(range(1, 2000)) + list(range(2000, limit + 1, 997))
    for r in points:
        i = t.floor_log_beta(r)
        assert b ** i <= r < b ** (i + 1), (beta, r, i)


def test_threshold_list_strictly_increasing():
    for beta in (Rational(2, 1), Rational(10, 7), Rational(3, 2)):
        t = LogTable(beta, 10 ** 6)
        assert all(a < b for a, b in zip(t.thresholds, t.thresholds[1:]))

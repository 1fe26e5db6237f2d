import pytest
from numpy.polynomial.legendre import leggauss

from orliczfrac._quadrature import gauss_rule_01


def test_gauss_rule_has_the_bits_of_leggauss():
    # the rule repeats leggauss's steps without importing numpy.polynomial
    for order in range(1, 65):
        x, w = leggauss(order)
        nodes, weights = gauss_rule_01(order)
        assert nodes.tobytes() == (0.5 * (x + 1.0)).tobytes(), order
        assert weights.tobytes() == (0.5 * w).tobytes(), order


def test_gauss_rule_is_read_only():
    nodes, weights = gauss_rule_01(5)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert weights.sum() == pytest.approx(1.0, rel=1e-15)

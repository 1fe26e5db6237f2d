"""The exact t^2 modular of a P1 state (`conftest.exact_square_modular`).

For G = t^2 the modular of a piecewise-linear state on a uniform mesh is a
Toeplitz quadratic form in its nodal values. The hat is such a state, so
the form must give the hat's exact value, and as s -> 1 the scaled kernel
must give the P1 stiffness of int |u'|^2, the BBM limit on the mesh.
"""

import importlib.util
from pathlib import Path

import pytest

from orliczfrac import GridFunction

from conftest import exact_square_modular, square_kernel

mp = pytest.importorskip("mpmath")

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
             / "reference.py")


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("n", [33, 129])
def test_hat_matches_the_separation_variable_reference(n, s):
    value, _ = load_reference().scaled_modular_hat(2, s)
    with mp.workdps(40):
        got = (1 - mp.mpf(s)) * exact_square_modular(
            GridFunction.hat(-1.0, 1.0, n), s)
        assert abs(got / value - 1) <= 1e-12


def test_half_is_the_limit_of_its_neighbours():
    # s = 1/2, the order of the t^2 solve jobs, is a removable singularity
    # of D4 |k|^(3-2s) / (1-2s): the kernel takes its limit D4 k^2 log|k|,
    # and the orders beside it agree to their distance
    half = square_kernel(0.5, 8)
    with mp.workdps(40):
        top = max(abs(q) for q in half)
        for s in (0.5 - 1e-9, 0.5 + 1e-9):
            assert all(abs(a - b) <= 1e-8 * top
                       for a, b in zip(square_kernel(s, 8), half))


def test_scaled_kernel_tends_to_the_p1_stiffness():
    # (1-s) q(k) -> -D4 |k| / 2 = (2, -1, 0, ...), at a rate of order 1-s
    for s in (1.0 - 1e-4, 1.0 - 1e-8):
        with mp.workdps(40):
            eps = 1 - mp.mpf(s)
            for q, want in zip(square_kernel(s, 6), (2, -1, 0, 0, 0, 0)):
                assert abs(eps * q - want) <= 2 * eps

"""Exact scaled modulars (1-s) Phi_s(hat) for the bbm workload.

The hat is u(x) = max(0, 1 - |x|) on (-1, 1), zero outside. In the
separation variable r = y - x,

    Phi_s(u) = 2 int_0^inf J(r) dr / r,   J(r) = int G(|u(x+r) - u(x)| / r^s) dx.

For G(t) = t^p the inner integral is J(r) = r^(-sp) M_p(r) with
M_p(r) = int |u(x+r) - u(x)|^p dx. On each of the ranges [0, 1], [1, 2] and
[2, inf) the difference u(x+r) - u(x) is piecewise linear in x with kinks at
-1-r, -r, 1-r, -1, 0, 1 in a fixed order, which gives

    M_p(r) = 2 (1-r) r^p + 3 r^(p+1) / (p+1)     0 <= r <= 1
    M_p(r) = (4 - (2-r)^(p+1)) / (p+1)            1 <= r <= 2
    M_p(r) = 4 / (p+1)                            r >= 2.

The first and last ranges integrate in closed form against r^(-1-sp); the
middle one is smooth and goes to mpmath's adaptive quadrature at 40 digits.

For G = max(t^2, t^3) the argument |u(x+r) - u(x)| / r^s never exceeds 1
(it is at most r^(1-s) for r <= 1 and at most 1 <= r^s beyond), where
max(t^2, t^3) = t^2. Its reference is therefore the p = 2 value.

Regenerate the stored table with ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "bbm_reference.json"

# Growth function spec -> exponent p whose hat modular it equals.
BBM_EXPONENT = {"max(power(2), power(3))": 2, "power(3)": 3}
S_GRID = tuple(f"{0.9 + 0.005 * k:.3f}" for k in range(20))


def separation_moment(p, r):
    """M_p(r) = int |u(x+r) - u(x)|^p dx for the hat, r >= 0."""
    if r <= 1:
        return 2 * (1 - r) * r ** p + 3 * r ** (p + 1) / (p + 1)
    if r <= 2:
        return (4 - (2 - r) ** (p + 1)) / (p + 1)
    return 4 / (p + 1)


def scaled_modular_hat(p, s, dps=40):
    """(1-s) Phi_s(hat) for G(t) = t^p, with mpmath's error estimate.

    Returns (value, relative error estimate) as mpmath numbers.
    """
    import mpmath as mp

    with mp.workdps(dps):
        p = mp.mpf(p)
        s = mp.mpf(s)
        sp = s * p
        near = 2 / (p - sp) + (3 / (p + 1) - 2) / (p + 1 - sp)
        middle, err = mp.quad(
            lambda r: r ** (-1 - sp) * separation_moment(p, r), [1, 2],
            error=True)
        far = 4 / (p + 1) * 2 ** (-sp) / sp
        value = (1 - s) * 2 * (near + middle + far)
        rel = (1 - s) * 2 * err / value
        return +value, +rel


def slope_modular_target(p):
    """Local target of the bbm curve for the hat: int tilde_G(|u'|) = 4/p."""
    return 4.0 / p


@functools.cache
def load():
    """The stored table: {"values": {G spec: {s: float}}, ...}. Read-only."""
    return json.loads(DATA.read_text())


def main():
    values = {}
    worst = 0.0
    for spec, p in BBM_EXPONENT.items():
        values[spec] = {}
        for s in S_GRID:
            value, rel = scaled_modular_hat(p, s)
            values[spec][s] = float(value)
            worst = max(worst, float(rel))
    table = {
        "quantity": "(1-s) * Phi_s(hat), hat = max(0, 1-|x|) on (-1, 1)",
        "method": "separation-variable form with the closed-form M_p(r) on "
                  "[0,1], [1,2], [2,inf); mpmath quad at 40 digits on [1,2]; "
                  "max(t^2,t^3) equals t^2 on the range the hat reaches",
        "rel_error_estimate": worst,
        "values": values,
    }
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {DATA} (worst relative error estimate {worst:.3g})")


if __name__ == "__main__":
    main()

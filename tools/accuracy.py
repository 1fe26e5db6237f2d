"""Print the largest relative error of the fractional modular against exact
references, one line per case.

Two sweeps, each against an exact value that no quadrature of the package
computes:

- the hat u = max(0, 1 - |x|) on (-1, 1): (1-s) Phi_s(u) against the
  stored table of `perfbench/data/bbm_reference.json` (read only), over its
  s grid, for each of its growth functions at 129, 513 and 1025 nodes;
- G = t^2 on 4 standard-normal zero-trace states (`numpy.random`, seed 7)
  at 33 and 129 nodes: Phi_s against the exact t^2 modular of a P1 state,
  `exact_square_modular` of `tests/conftest.py` (loaded by path; it needs
  mpmath), per s in 0.3, 0.7, 0.9, 0.99 and 0.999.

Each line is the largest error over the s grid (hat) or over the states
(t^2). The output is the same on every run. Run from a checkout, with no
install needed:

    python tools/accuracy.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orliczfrac import GridFunction, fractional_modular  # noqa: E402
from orliczfrac.cli import parse_growth  # noqa: E402

HAT_TABLE = ROOT / "perfbench" / "data" / "bbm_reference.json"
HAT_NODES = (129, 513, 1025)
SQUARE_NODES = (33, 129)
SQUARE_ORDERS = (0.3, 0.7, 0.9, 0.99, 0.999)
SQUARE_STATES = 4


def load_exact_square():
    """`exact_square_modular` of the test suite's conftest, by path."""
    spec = importlib.util.spec_from_file_location(
        "conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exact_square_modular


def hat_errors(nodes=HAT_NODES):
    """(label, error) per growth function of the stored table and mesh."""
    table = json.loads(HAT_TABLE.read_text())["values"]
    out = []
    for spec, values in table.items():
        G = parse_growth(spec)
        orders = np.array([float(s) for s in values])
        ref = np.array(list(values.values()))
        for n in nodes:
            u = GridFunction.hat(-1.0, 1.0, n)
            got = (1.0 - orders) * fractional_modular(G, orders, u)
            out.append((f"hat {spec}, {n} nodes",
                        float(np.max(np.abs(got - ref) / np.abs(ref)))))
    return out


def square_errors(nodes=SQUARE_NODES, orders=SQUARE_ORDERS,
                  states=SQUARE_STATES):
    """(label, error) per mesh and order, the largest over the states."""
    exact = load_exact_square()
    G = parse_growth("power(2)")
    out = []
    for n in nodes:
        rng = np.random.default_rng(7)
        errs = []
        for _ in range(states):
            v = rng.standard_normal(n)
            v[[0, -1]] = 0.0
            u = GridFunction(-1.0, 1.0, v)
            got = fractional_modular(G, list(orders), u)
            errs.append([abs(g / float(exact(u, s)) - 1.0)
                         for g, s in zip(got.tolist(), orders)])
        for s, err in zip(orders, np.max(errs, axis=0).tolist()):
            out.append((f"t^2 random, {n} nodes, s = {s:g}", err))
    return out


if __name__ == "__main__":
    for label, err in hat_errors() + square_errors():
        print(f"{label:44} {err:.2e}")

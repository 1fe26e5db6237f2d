"""Print two sha256 digests of the package's outputs, to compare two commits
bit for bit.

The first covers `fractional._core`'s value, gradient and Hessian: six
growth functions, meshes of 3 to 1025 nodes, three states (the hat, a hat
of peak 2 and a seeded random zero-trace state) and three orders each,
plus a three-order value and a two-state lockstep call per growth
function and mesh. The second covers the files that the six CLI commands
write for fixed configs, five growth functions each. Run from a checkout,
with no install needed:

    python tools/output_digest.py

Two commits whose outputs agree bit for bit print the same two lines.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orliczfrac import cli, fractional  # noqa: E402
from orliczfrac.errors import OrliczFracError  # noqa: E402
from orliczfrac.grid import GridFunction  # noqa: E402
from orliczfrac.properties import random_zero_trace  # noqa: E402

CORE_G = ("power(1.5)", "power(2)", "power(3)", "power(4)", "power_log(3)",
          "max(power(2), power(3))")
NODES = (3, 4, 17, 33, 129, 257, 1025)
ORDERS = (0.3, 0.7, 0.99)
CLI_G = ("power(1.5)", "power(3)", "power_log(3)", "max(power(2), power(3))",
         "sum(0.5*power(2), 2*power(3))")
CLI_CONFIGS = {
    "tilde": "n = 2\na_list = 0.5, 1, 3\n",
    "bbm": "nodes = 1025\ns_list = 0.9, 0.95, 0.99\n",
    "poincare": "nodes = 33\ncount = 3\ns_list = 0.5, 0.9\nseed = 1\n",
    "solve": "nodes = 33\ns = 0.7\nrhs = constant(1)\n",
    "gamma": "nodes = 17\ns_list = 0.6, 0.9\n",
    "check": "nodes = 17\ncount = 2\nseed = 1\n",
}


def _feed(digest, arrays):
    for a in arrays:
        a = np.asarray(a, dtype=float)
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())


def core_digest():
    digest = hashlib.sha256()
    # G''(0) = inf (power(1.5)) leaves inf - inf in the Hessian, as in the
    # solver's own calls
    with np.errstate(invalid="ignore"):
        for spec in CORE_G:
            G = cli.parse_growth(spec)
            for n in NODES:
                hat = GridFunction.hat(-1.0, 1.0, n)
                states = (hat, hat * 2.0, random_zero_trace(
                    np.random.default_rng(n), -1.0, 1.0, n))
                for u in states:
                    for s in ORDERS:
                        _feed(digest, fractional._core(G, s, u, False)[:1])
                        _feed(digest, fractional._core(G, s, u, True))
                        _feed(digest, fractional._core(G, s, u, True, True))
                _feed(digest, fractional._core(G, np.array(ORDERS), hat,
                                               False)[:1])
                _feed(digest, fractional._core(G, np.array(ORDERS[:2]),
                                               states[::2], True, True))
    return digest.hexdigest()


def cli_digest():
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for command, text in CLI_CONFIGS.items():
            for i, spec in enumerate(CLI_G):
                out = Path(tmp) / f"{command}{i}"
                cfg = cli.parse_config(f"command = {command}\nG = {spec}\n"
                                       + text)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        cli.run(cfg, out)
                except OrliczFracError as exc:  # its files are still hashed
                    digest.update(type(exc).__name__.encode())
                for path in sorted(out.iterdir()):
                    digest.update(path.name.encode())
                    digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(f"core {core_digest()}")
    print(f"cli  {cli_digest()}")

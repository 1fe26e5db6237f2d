"""Print two sha256 digests of the package's outputs, to compare two commits
bit for bit; save those outputs, or compare two saved sets.

The first digest covers `fractional._core`'s value, gradient and Hessian:
six growth functions, meshes of 3 to 1025 nodes, three states (the hat, a
hat of peak 2 and a seeded random zero-trace state) and three orders each,
plus a three-order value and a two-state lockstep call per growth
function and mesh. The second covers the files that the six CLI commands
write for fixed configs, five growth functions each. Run from a checkout,
with no install needed:

    python tools/output_digest.py                  # the two digests
    python tools/output_digest.py --save DIR       # ... and the outputs
    python tools/output_digest.py --compare A B    # two saved sets

Two commits whose outputs agree bit for bit print the same two lines.
``--save DIR`` also writes what is hashed: the `_core` arrays to
``DIR/core.npz`` and the CLI files under ``DIR/cli``. ``--compare A B``
prints, per group, the largest relative difference of A from B: per
growth function and output (value, gradient, Hessian) of `_core`, the
largest |a - b| of an array over its largest |b| (finite entries; a
non-finite entry that moves counts as inf), and per CLI command the
largest |a - b| / max(|a|, |b|) over the numbers of its files (a text
token or a file that differs counts as inf). A change that regroups sums
states by how much its outputs moved with it.
"""

import argparse
import contextlib
import hashlib
import io
import re
import shutil
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
STATES = ("hat", "hat of peak 2", "random")
OUTPUTS = ("value", "gradient", "Hessian")
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


def core_outputs():
    """(name, array) of every `_core` output that the first digest covers,
    in its order; a name is "G|case|output"."""
    # G''(0) = inf (power(1.5)) leaves inf - inf in the Hessian, as in the
    # solver's own calls
    with np.errstate(invalid="ignore"):
        for spec in CORE_G:
            G = cli.parse_growth(spec)
            for n in NODES:
                hat = GridFunction.hat(-1.0, 1.0, n)
                states = (hat, hat * 2.0, random_zero_trace(
                    np.random.default_rng(n), -1.0, 1.0, n))
                calls = [(f"{n} nodes, {label}, s = {s}", (G, s, u))
                         for label, u in zip(STATES, states)
                         for s in ORDERS]
                for case, args in calls:
                    yield f"{spec}|{case}, value pass|value", \
                        fractional._core(*args, False)[0]
                    for derivs in (1, 2):
                        outs = fractional._core(*args, True, derivs == 2)
                        for output, a in zip(OUTPUTS, outs):
                            yield (f"{spec}|{case}, {OUTPUTS[derivs]} "
                                   f"pass|{output}"), a
                yield (f"{spec}|{n} nodes, hat, s = {ORDERS}, value pass"
                       "|value"), fractional._core(G, np.array(ORDERS), hat,
                                                   False)[0]
                outs = fractional._core(G, np.array(ORDERS[:2]), states[::2],
                                        True, True)
                for output, a in zip(OUTPUTS, outs):
                    yield (f"{spec}|{n} nodes, lockstep hat and random, "
                           f"s = {ORDERS[:2]}|{output}"), a


def run_cli(out):
    """Run the CLI configs, each into its own directory under ``out``;
    yield (directory, error name or None) in the second digest's order."""
    for command, text in CLI_CONFIGS.items():
        for i, spec in enumerate(CLI_G):
            where = Path(out) / f"{command}{i}"
            cfg = cli.parse_config(f"command = {command}\nG = {spec}\n"
                                   + text)
            error = None
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    cli.run(cfg, where)
            except OrliczFracError as exc:  # its files are still hashed
                error = type(exc).__name__
            yield where, error


def digests(save=None):
    """The two digests; with ``save`` also the outputs they cover."""
    core, files = hashlib.sha256(), hashlib.sha256()
    arrays = {}
    for name, a in core_outputs():
        _feed(core, [a])
        arrays[name] = np.asarray(a, dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        for where, error in run_cli(tmp):
            if error:
                files.update(error.encode())
            for path in sorted(where.iterdir()):
                files.update(path.name.encode())
                files.update(path.read_bytes())
        if save is not None:
            save = Path(save)
            save.mkdir(parents=True, exist_ok=True)
            np.savez(save / "core.npz", **arrays)
            shutil.rmtree(save / "cli", ignore_errors=True)
            shutil.copytree(tmp, save / "cli")
    return core.hexdigest(), files.hexdigest()


def _array_gap(a, b):
    """max |a - b| over max |b| on the finite entries of b; inf if the
    shapes or the places of non-finite entries differ."""
    if a.shape != b.shape:
        return np.inf
    finite = np.isfinite(b)
    if not np.array_equal(finite, np.isfinite(a)) or not np.array_equal(
            a[~finite], b[~finite], equal_nan=True):
        return np.inf
    top = np.max(np.abs(b[finite]), initial=0.0)
    gap = np.max(np.abs(a[finite] - b[finite]), initial=0.0)
    return 0.0 if gap == 0.0 else gap / top


def _file_gap(a, b):
    """The largest |x - y| / max(|x|, |y|) over the numbers of two texts,
    token by token; inf where a token that is no number, or the number of
    tokens, differs."""
    ta, tb = (re.split(r"[\s,=:()]+", t.strip()) for t in (a, b))
    if len(ta) != len(tb):
        return np.inf
    gap = 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            return np.inf
        if x != y:  # "0" and "0.0" are equal numbers
            gap = max(gap, abs(x - y) / max(abs(x), abs(y)))
    return gap


def compare(new, old):
    """Lines of the largest relative difference of the saved outputs
    ``new`` from ``old``, per group, with the case where it is reached."""
    new, old = Path(new), Path(old)
    groups = {}

    def note(group, gap, case):
        if group not in groups or gap > groups[group][0]:
            groups[group] = (gap, case)

    with np.load(new / "core.npz") as a, np.load(old / "core.npz") as b:
        for name in b.files:
            spec, case, output = name.split("|")
            gap = _array_gap(a[name], b[name]) if name in a.files else np.inf
            note(f"core {spec} {output}", gap, case)
    for path in sorted((old / "cli").rglob("*")):
        if path.is_file():
            rel = path.relative_to(old / "cli")
            other = new / "cli" / rel
            gap = (_file_gap(other.read_text(), path.read_text())
                   if other.is_file() else np.inf)
            note(f"cli {rel.parts[0].rstrip('0123456789')}", gap, str(rel))
    return [f"{group:36s} {gap:.3g}  ({case})"
            for group, (gap, case) in groups.items()]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="DIR",
                        help="also write the outputs that are hashed")
    parser.add_argument("--compare", nargs=2, metavar="DIR",
                        help="compare two saved sets, the first against "
                        "the second, and hash nothing")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
    else:
        core, files = digests(args.save)
        print(f"core {core}")
        print(f"cli  {files}")

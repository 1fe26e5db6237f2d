"""Time a base tree's orliczfrac against this checkout's, in one process.

    python tools/ab_time.py BASE_SRC [--pairs N] [--case SUBSTR]

BASE_SRC is the ``src`` directory of the base tree (for instance of a
``git worktree`` of the base commit). Both trees' ``orliczfrac`` packages
are copied to a temporary directory under two names and imported side by
side, so both sides share one interpreter, one numpy and one BLAS. BLAS
runs one thread (set before numpy is imported, when this file runs as a
script), and the process is pinned to one CPU where
``os.sched_setaffinity`` exists. Each case is a fixed CLI config, run
through each package's ``cli.parse_config`` and ``cli.run`` as the CLI
would run it: the three ``solve`` jobs of the benchmark's ``solve``
workload, a ``solve`` of the max of t^2 and t^3 at 257 nodes (the other
built-in G whose solve asks a Hessian at the zero start), a three-order
``bbm`` curve at 1025 nodes for ``power(3)`` and for the max, and a
17-node ``gamma``. A pair runs the case once per side,
the side that goes first alternating, and each run starts with the pair
tables of its own package cleared (``fractional._band_tables``), as in a
fresh process.

Per case it prints each side's median seconds, the ratio of this
checkout's median to the base's, the pairs this checkout won and the
interquartile range of the base's runs. Printed only: no gate.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

_SOLVE = "command = solve\nG = {}\ns = {}\nnodes = {}\nrhs = constant({})\n"
_BBM = "command = bbm\nG = {}\nnodes = 1025\ns_list = 0.9, 0.95, 0.99\n"
CASES = {
    "solve power(2) 129": _SOLVE.format("power(2)", 0.5, 129, 1.1),
    "solve power(2) 257": _SOLVE.format("power(2)", 0.5, 257, 1.1),
    "solve power(3) 129": _SOLVE.format("power(3)", 0.7, 129, 1.1),
    "solve max(power(2), power(3)) 257": _SOLVE.format(
        "max(power(2), power(3))", 0.7, 257, 1.1),
    "bbm power(3) 1025": _BBM.format("power(3)"),
    "bbm max(power(2), power(3)) 1025": _BBM.format(
        "max(power(2), power(3))"),
    "gamma power_log(3) 17": ("command = gamma\nG = power_log(3)\n"
                              "nodes = 17\ns_list = 0.6, 0.9\n"),
}


def load(src, name, into):
    """The modules ``cli`` and ``fractional`` of ``src``/orliczfrac, copied
    to ``into``/``name`` and imported as the package ``name``; its modules
    import each other relatively."""
    shutil.copytree(Path(src) / "orliczfrac", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("cli", "fractional"))


@contextlib.contextmanager
def one_cpu():
    """Pin this process to the lowest CPU it may run on, where the platform
    allows, and restore its CPUs after."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_once(side, config, out):
    """Seconds of one CLI run of ``config`` by ``side``, a pair (cli,
    fractional), after clearing its pair tables."""
    cli, fractional = side
    fractional._band_tables.cache_clear()
    start = perf_counter()
    cli.run(cli.parse_config(config), out)
    return perf_counter() - start


def compare(base_src, pairs, case=""):
    """(case, base median, head median, ratio, pairs won, base IQR) per
    case whose name holds ``case``, from ``pairs`` alternating pairs."""
    names = [name for name in CASES if case in name]
    if not names:
        raise SystemExit(f"error: no case matches {case!r}")
    with tempfile.TemporaryDirectory() as tmp, one_cpu():
        sys.path.insert(0, tmp)
        try:
            sides = [load(base_src, "orliczfrac_ab_base", tmp),
                     load(SRC, "orliczfrac_ab_head", tmp)]
            rows = []
            for name in names:
                times = ([], [])
                for i in range(pairs):
                    order = (0, 1) if i % 2 == 0 else (1, 0)
                    for side in order:
                        times[side].append(run_once(
                            sides[side], CASES[name], Path(tmp) / "out"))
                base, head = (statistics.median(t) for t in times)
                won = sum(h < b for b, h in zip(*times))
                q1, _, q3 = (statistics.quantiles(times[0], n=4)
                             if pairs > 1 else (0.0, 0.0, 0.0))
                iqr = q3 - q1
                rows.append((name, base, head, head / base, won, iqr))
        finally:
            sys.path.remove(tmp)
            for module in list(sys.modules):
                if module.startswith("orliczfrac_ab_"):
                    del sys.modules[module]
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_src", help="the base tree's src directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--case", default="",
                        help="run only the cases whose name holds this")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    rows = compare(args.base_src, args.pairs, args.case)
    print(f"{'case':34} {'base s':>9} {'this s':>9} {'ratio':>6} "
          f"{'won':>7} {'base IQR':>9}")
    for name, base, head, ratio, won, iqr in rows:
        print(f"{name:34} {base:9.4f} {head:9.4f} {ratio:6.3f} "
              f"{won:3d}/{args.pairs:<3d} {iqr:9.4f}")


if __name__ == "__main__":
    main()

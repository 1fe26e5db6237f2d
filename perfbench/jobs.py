"""Seeded CLI jobs for the three workloads, how to run them, how to check them.

A job is one ``orliczfrac`` CLI config. A worker process parses and runs it
through ``orliczfrac.cli``, exactly as ``orliczfrac <command> --config
<file>`` would after start-up, then checks the files it wrote.
The seed fixes every drawn input; ``--seconds`` fixes how many jobs a run
holds through nominal per-job costs (seconds on a 2-core x86 container),
so the work of a run never depends on how fast it goes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import reference
import speed

WORKLOADS = ("bbm", "solve", "gamma")

# bbm: G, odd mesh size in 769..1025, one s from each third of the grid.
BBM_NODES = tuple(range(769, 1026, 2))
BBM_STRATA = (reference.S_GRID[:7], reference.S_GRID[7:14],
              reference.S_GRID[14:])

# solve: (G, s, nodes, nominal seconds, choices of c); a round runs each
# case once with rhs = constant(c). power(2) is linear, so c moves its
# iteration count by a few percent. Over c = 0.75, 0.8, ..., 1.5 the
# power(3) solve takes 84-102 iterations; its choices are the c at which it
# takes 86-93 and ends at the solver's gradient floor (converged=0). So the
# seed moves c, not the work. Every case passes the CLI's weak-residual
# budget at every c of C_GRID.
C_GRID = tuple(round(0.75 + 0.05 * k, 2) for k in range(16))
SOLVE_CASES = (("power(2)", "0.5", 129, 0.9, C_GRID),
               ("power(2)", "0.5", 257, 4.0, C_GRID),
               ("power(3)", "0.7", 129, 2.4,
                (0.85, 0.9, 1.05, 1.1, 1.2, 1.25, 1.4, 1.45)))

# gamma: small meshes taken in turn, with their nominal seconds, and the
# CLI's default rhs = constant(1). Most of a job is its s = 1 solve through
# tilde_G, whose tilde_eval count depends on the mesh alone. The cost of
# that solve swings up to 3x with c, so c is not drawn; the seed draws each
# s of s_list from a narrow window, so it moves the inputs, not the work.
GAMMA_G, GAMMA_P, GAMMA_C = "power_log(3)", 3.0, 1.0
GAMMA_NODES = ((17, 1.0), (21, 1.25), (25, 1.6), (29, 2.2), (33, 2.8))
GAMMA_S_LOW = ("0.59", "0.6", "0.61")
GAMMA_S_HIGH = ("0.89", "0.9", "0.91")

# Gross-error gates on single outputs; the rel_err metric and its bound
# catch smaller regressions.
CHECK_TOL = {"bbm": 1e-2, "solve": 2e-2, "gamma": 1e-2}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: str
    cost: float                      # nominal seconds
    params: Dict = field(default_factory=dict)


@dataclass
class Outcome:
    job: Job
    seconds: float = 0.0
    hashes: Dict[str, str] = field(default_factory=dict)
    rel_errs: List[float] = field(default_factory=list)
    error: Optional[str] = None
    kernel_s: float = 0.0            # mean speed-kernel time around the job


def _config(lines):
    return "".join(f"{k} = {v}\n" for k, v in lines)


def _bbm_cost(n):
    return 0.95 * (n / 1025.0) ** 2


def bbm_jobs(rng, seconds):
    """One mesh from each of ``count`` contiguous bands of sizes.

    The bands give every run the same spread of mesh sizes, so its work
    barely depends on the seed, and they keep the meshes distinct.
    """
    mean_cost = sum(map(_bbm_cost, BBM_NODES)) / len(BBM_NODES)
    count = max(2, round(seconds / mean_cost))
    cuts = [round(i * len(BBM_NODES) / count) for i in range(count + 1)]
    flip = rng.randrange(2)
    specs = tuple(reference.BBM_EXPONENT)
    jobs = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        n = rng.choice(BBM_NODES[lo:hi])
        spec = specs[(i + flip) % 2]
        s_list = tuple(rng.choice(stratum) for stratum in BBM_STRATA)
        jobs.append(Job(
            name=f"bbm-{i:02d}", command="bbm",
            config=_config([("command", "bbm"), ("G", spec),
                            ("nodes", n), ("s_list", ", ".join(s_list))]),
            cost=_bbm_cost(n),
            params={"G": spec, "s_list": s_list, "nodes": n}))
    return jobs


def solve_jobs(rng, seconds):
    rounds = max(1, round(seconds / sum(case[3] for case in SOLVE_CASES)))
    jobs = []
    for r in range(rounds):
        for k, (spec, s, n, cost, choices) in enumerate(SOLVE_CASES):
            c = rng.choice(choices)
            jobs.append(Job(
                name=f"solve-{r}{k}", command="solve",
                config=_config([("command", "solve"), ("G", spec), ("s", s),
                                ("nodes", n), ("rhs", f"constant({c:g})")]),
                cost=cost,
                params={"G": spec, "s": s, "nodes": n, "c": c}))
    return jobs


def gamma_jobs(rng, seconds):
    """Meshes in turn, from the smallest, while the nominal total fits."""
    jobs, total = [], 0.0
    for k, (n, cost) in enumerate(itertools.cycle(GAMMA_NODES)):
        if jobs and total + cost > seconds:
            break
        total += cost
        s_list = (rng.choice(GAMMA_S_LOW), rng.choice(GAMMA_S_HIGH))
        jobs.append(Job(
            name=f"gamma-{k:02d}-{n}", command="gamma",
            config=_config([("command", "gamma"), ("G", GAMMA_G),
                            ("nodes", n), ("s_list", ", ".join(s_list)),
                            ("rhs", f"constant({GAMMA_C:g})")]),
            cost=cost, params={"G": GAMMA_G, "s_list": s_list, "nodes": n}))
    return jobs


def make_jobs(workload, seed, seconds):
    rng = random.Random(f"{workload}:{seed}")
    return {"bbm": bbm_jobs, "solve": solve_jobs,
            "gamma": gamma_jobs}[workload](rng, seconds)


# ---------------------------------------------------------------- references

def solve_energy_reference(c):
    """Exact minimum energy for power(2), s = 1/2, rhs c on (-1, 1).

    With G(t) = t^2 the energy (1-s) Phi_s(u) - int f u has the
    Euler-Lagrange equation 4 (1-s) / C_{1,s} (-Delta)^s u = f, and
    (-Delta)^(1/2) (1-x^2)^(1/2) = 1 with C_{1,1/2} = 1/pi. So
    u = c (1-x^2)^(1/2) / (2 pi) and E = -(1/2) int f u = -c^2 / 8.
    """
    return -c * c / 8.0


def gamma_local_midpoint(c, p=GAMMA_P):
    """u(0) of the continuum local limit for G = power_log(p), rhs c.

    The local problem minimizes int tilde_G(|u'|) - c u on (-1, 1), with
    tilde_G(a) = 2 int_0^a G(v)/v dv in one dimension. Its flux is -c x, so
    |u'(x)| = A(c|x|) with A the inverse of tilde_G'(a) = 2 G(a) / a, and
    u(0) = int_0^1 A(c x) dx = a_c - tilde_G(a_c) / c, a_c = A(c), by
    substituting y = tilde_G'(a) and integrating by parts.
    """
    from scipy.optimize import brentq

    def dtilde(a):
        return 2.0 * a ** (p - 1.0) * (abs(math.log(a)) + 1.0)

    def tilde(a):
        # 2 int_0^a v^(p-1) (|log v| + 1) dv
        if a <= 1.0:
            abslog = (a ** p / p) * (abs(math.log(a)) + 1.0 / p)
        else:
            abslog = (a ** p / p) * (math.log(a) - 1.0 / p) + 2.0 / p ** 2
        return 2.0 * (a ** p / p + abslog)

    hi = 1.0
    while dtilde(hi) < c:
        hi *= 2.0
    a_c = brentq(lambda a: dtilde(a) - c, 1e-12, hi, xtol=1e-15, rtol=1e-15)
    return a_c - tilde(a_c) / c


# -------------------------------------------------------------------- checks

class CheckFailed(Exception):
    """An output file is missing, malformed, non-finite or inaccurate."""


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise CheckFailed(f"non-finite value {text!r}")
    return x


def _rows(path, header):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: bad header")
    return [ln.split(",") for ln in lines[1:]]


def _rel(value, exact, tol, what):
    err = abs(value - exact) / abs(exact)
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.3g} > {tol:g}")
    return err


def check_bbm(job, files):
    p = job.params
    (csv,) = files
    rows = _rows(csv, "s,scaled_modular,target,rel_gap")
    if len(rows) != len(p["s_list"]) + 1 or rows[-1][0] != "EXTRAPOLATED":
        raise CheckFailed("bbm: wrong rows")
    exact_target = reference.slope_modular_target(
        reference.BBM_EXPONENT[p["G"]])
    errs = []
    for s, row in zip(p["s_list"], rows):
        if float(row[0]) != float(s):
            raise CheckFailed(f"bbm: row s={row[0]} for s={s}")
        value = _finite(row[1])
        errs.append(_rel(value, reference.load()["values"][p["G"]][s],
                         CHECK_TOL["bbm"],
                         f"scaled_modular at s={s}"))
        _rel(_finite(row[2]), exact_target, 1e-12, "target")
    for cell in rows[-1][1:]:
        _finite(cell)
    return errs


def check_solve(job, files):
    p = job.params
    u_csv, summary = files
    rows = _rows(u_csv, "x,u")
    if len(rows) != p["nodes"]:
        raise CheckFailed("solve: wrong node count")
    u = [_finite(r[1]) for r in rows]
    xs = [_finite(r[0]) for r in rows]
    if u[0] != 0.0 or u[-1] != 0.0 or xs[0] != -1.0 or xs[-1] != 1.0:
        raise CheckFailed("solve: boundary values")
    info = dict(line.split("=", 1)
                for line in summary.read_text().splitlines())
    energy = _finite(info["energy"])
    for key in ("grad_norm", "weak_residual"):
        _finite(info[key])
    if not (int(info["iterations"]) >= 1 and energy < 0.0):
        raise CheckFailed("solve: no descent from the zero state")
    if p["G"] == "power(2)":
        return [_rel(energy, solve_energy_reference(p["c"]),
                     CHECK_TOL["solve"], "power(2) energy")]
    return []


def check_gamma(job, files):
    p = job.params
    (csv,) = files
    rows = _rows(csv, "s,lux_gap,energy_gap,midpoint")
    if len(rows) != len(p["s_list"]) + 1 or rows[-1][0] != "LOCAL":
        raise CheckFailed("gamma: wrong rows")
    for s, row in zip(p["s_list"], rows):
        if float(row[0]) != float(s):
            raise CheckFailed(f"gamma: row s={row[0]} for s={s}")
        if not (_finite(row[1]) >= 0.0 and _finite(row[2]) >= 0.0
                and _finite(row[3]) > 0.0):
            raise CheckFailed(f"gamma: bad row at s={s}")
    local = _finite(rows[-1][3])
    return [_rel(local, gamma_local_midpoint(GAMMA_C), CHECK_TOL["gamma"],
                 "LOCAL midpoint")]


CHECKS = {"bbm": check_bbm, "solve": check_solve, "gamma": check_gamma}


# ----------------------------------------------------------------- execution

def _hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_jobs(cli, jobs, out_dir, tracer=None):
    """Run each job in turn; a job that raises or fails a check is counted.

    Timing covers parsing the config and ``cli.run``; checks are outside it.
    The speed kernel runs before the first job and after each job.
    """
    outcomes = []
    before = speed.kernel()
    for index, job in enumerate(jobs):
        job_dir = Path(out_dir) / job.name
        shutil.rmtree(job_dir, ignore_errors=True)
        outcome = Outcome(job)
        if tracer is not None:
            tracer.job_id = index
        try:
            start = perf_counter()
            cfg = cli.parse_config(job.config)
            files = cli.run(cfg, job_dir)
            outcome.seconds = perf_counter() - start
            outcome.hashes = {f.name: _hash(f) for f in files}
            outcome.rel_errs = CHECKS[job.command](job, files)
        except Exception as exc:   # a failed job is a measurement, not a crash
            outcome.error = f"{type(exc).__name__}: {exc}"
        after = speed.kernel()
        outcome.kernel_s = (before + after) / 2.0
        before = after
        outcomes.append(outcome)
    return outcomes


def scaled_seconds(outcome):
    """The job's time at the CPU speed where the kernel takes NOMINAL_S."""
    return outcome.seconds * speed.NOMINAL_S / outcome.kernel_s


def summary(outcomes):
    """(attempted, failed, wall seconds, median job seconds, worst rel_err)."""
    done = [o for o in outcomes if o.error is None]
    errs = [e for o in done for e in o.rel_errs]
    times = [o.seconds for o in outcomes if o.seconds > 0.0]
    return (len(outcomes), len(outcomes) - len(done), sum(times),
            statistics.median(times) if times else 0.0,
            max(errs) if errs else 1.0)


def mark_mismatches(outcomes, other, why):
    """Fail every job whose output hashes differ from its run in ``other``."""
    by_name = {o.job.name: o for o in other}
    for o in outcomes:
        twin = by_name.get(o.job.name)
        if (o.error is None and twin is not None
                and twin.hashes != o.hashes):
            o.error = f"{why}: output hashes differ"

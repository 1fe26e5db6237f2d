"""orliczfrac benchmark: seeded CLI jobs, metrics on the last line.

    python3 perfbench/run.py --workload {bbm,solve,gamma} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Each pass over the job list runs in
a fresh interpreter (``worker.py``) pinned to one CPU. With ``--trace 0``
the last stdout line holds the end-to-end metrics, with times scaled to a
fixed CPU speed by ``speed.py``; with ``--trace 1`` it holds the per-layer
metrics of a traced pass, made after an untraced pass of the same jobs.
Outputs, the environment record and the spans go to
``perfbench/out/<workload>-seed<N>/``. See perfbench/README.md.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# worker first: it pins the BLAS threads before numpy loads, for this
# process and its workers.
import worker
import jobs as J
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A --trace 0 run makes ROUNDS rounds; each round runs the job list once
# per worker, the WORKERS workers at the same time on CPUs of their own.
ROUNDS = 4
WORKERS = 2
# Seconds of a --trace 0 run spent outside the jobs of its rounds: the
# set-up probes, the start of each worker and the speed kernels. The rest of
# --seconds is split between the rounds.
FIXED_S = 13.0
PASS_TIMEOUT_S = 75


def units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def setup_probe(jobs, out_dir):
    """A function that times one fresh interpreter doing a CLI call's set-up.

    Each probe starts Python, imports orliczfrac, parses one config per
    distinct growth function of the workload and builds those functions.
    """
    configs = {}
    for job in jobs:
        configs.setdefault(job.params["G"], job.config)
    paths = []
    for i, text in enumerate(configs.values()):
        path = Path(out_dir) / f"setup-{i}.cfg"
        path.write_text(text)
        paths.append(str(path))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *paths]

    def probe():
        """Set-up seconds, scaled like job times by the speed kernel.

        The kernel runs right before and after the probe, all three pinned
        to one CPU.
        """
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            before = speed.kernel()
            start = perf_counter()
            subprocess.run(cmd, check=True, timeout=15)
            elapsed = perf_counter() - start
            kernel_s = (before + speed.kernel()) / 2.0
        finally:
            os.sched_setaffinity(0, allowed)
        return elapsed * speed.NOMINAL_S / kernel_s
    return probe


def environment(args, jobs):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "threads": worker.THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "jobs": [j.name for j in jobs]}


def report(outcomes, label, out_dir):
    """Print one line per job and keep the details in ``<label>.json``."""
    for o in outcomes:
        status = "ok" if o.error is None else f"FAILED {o.error}"
        print(f"{label} {o.job.name} {o.seconds:8.3f}s {status}")
    details = [{"job": o.job.name, "config": o.job.config,
                "seconds": o.seconds, "rel_errs": o.rel_errs,
                "error": o.error, "hashes": o.hashes} for o in outcomes]
    (out_dir / f"{label}.json").write_text(json.dumps(details, indent=1))


def run_passes(job_list, out_dirs, trace=0):
    """Run the jobs once per out dir, in workers started together.

    Each worker is a fresh process pinned to a CPU of its own, so there are
    never more workers than CPUs. The job list goes to each worker as
    ``joblist.json`` in its pass's directory. A worker that dies or hangs
    ends the run without a result; every worker is waited for on the way
    out. Returns (outcomes, the pass's record) per out dir.
    """
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    try:
        for out_dir, cpu in zip(out_dirs, cpus):
            out_dir.mkdir()
            listing = out_dir / "joblist.json"
            listing.write_text(json.dumps(
                [dataclasses.asdict(job) for job in job_list], indent=1))
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(listing),
                 str(out_dir), "--trace", str(trace), "--cpu", str(cpu)]))
        deadline = perf_counter() + PASS_TIMEOUT_S
        for proc in procs:
            proc.wait(timeout=max(0.0, deadline - perf_counter()))
            if proc.returncode != 0:
                raise subprocess.CalledProcessError(proc.returncode,
                                                    proc.args)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for out_dir in out_dirs:
        record = json.loads((out_dir / "pass.json").read_text())
        outcomes = [J.Outcome(job, d["seconds"], d["hashes"], d["rel_errs"],
                              d["error"], d["kernel_s"])
                    for job, d in zip(job_list, record["jobs"], strict=True)]
        results.append((outcomes, record))
    return results


def end_to_end(jobs, out_dir):
    """Run the job list ROUNDS x WORKERS times; a job's time is its median.

    Every pass is a fresh process, so each run of a job pays what a CLI
    call pays. On a shared host each CPU runs in slow and fast phases,
    lasting from seconds to minutes, and the two CPUs change phase
    independently. So each run of a job is scaled to a fixed CPU speed by
    the speed kernel timed next to it on its CPU, and a job's time is the
    median of its scaled runs, spread over both CPUs and the whole run.
    The later passes also check that every job writes the same bytes
    again. A set-up probe runs before each round and after the last, so the
    probes are spread over the run too, and ``setup_s`` is their median.
    """
    probe = setup_probe(jobs, out_dir)
    setup_times, runs, peak_rss_mb = [], [], 0.0
    workers = min(WORKERS, len(os.sched_getaffinity(0)))
    for r in range(ROUNDS):
        setup_times.append(probe())
        dirs = [out_dir / f"pass{r * workers + w + 1}" for w in range(workers)]
        for rerun, record in run_passes(jobs, dirs):
            peak_rss_mb = max(peak_rss_mb, record["peak_rss_mb"])
            runs.append(rerun)
    setup_times.append(probe())
    outcomes = runs[0]
    for rerun in runs[1:]:
        J.mark_mismatches(outcomes, rerun, "rerun")
    raw_wall = sum(statistics.median(run[i].seconds for run in runs)
                   for i in range(len(outcomes)))
    for i, first in enumerate(outcomes):
        times = [J.scaled_seconds(run[i]) for run in runs
                 if run[i].seconds > 0.0]
        first.seconds = statistics.median(times) if times else 0.0
    report(outcomes, "jobs", out_dir)
    attempted, failed, wall, p50, rel_err = J.summary(outcomes)
    print(f"jobs={attempted} failed={failed} wall_s={wall:.4f} "
          f"job_p50_s={p50:.4f} over {attempted} jobs "
          f"(unscaled wall {raw_wall:.4f} s)")
    metrics = {"wall_s": wall, "job_p50_s": p50,
               "setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb,
               "ok_ratio": (attempted - failed) / attempted,
               "rel_err": rel_err}
    return attempted, failed, metrics


def per_layer(jobs, out_dir):
    """An untraced pass, then a traced one; both are fresh processes."""
    ((plain, _),) = run_passes(jobs, [out_dir / "pass1"])
    ((traced, record),) = run_passes(jobs, [out_dir / "traced"], trace=1)
    J.mark_mismatches(traced, plain, "traced vs untraced")
    report(plain, "jobs", out_dir)
    report(traced, "traced", out_dir)
    attempted, failed, wall, _, _ = J.summary(traced)
    layers = record["layers"]
    iterations = layers.get("solver.iterations", 0)
    solves = layers.get("solver.solve.calls", 0)
    layers["solver.evals_per_iter"] = (
        layers.get("solver.evals", 0) / iterations if iterations else 0.0)
    layers["solver.converged_ratio"] = (
        layers.get("solver.converged", 0) / solves if solves else 0.0)
    layers["trace.overhead_s"] = wall - J.summary(plain)[2]
    (out_dir / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
    return attempted, failed, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=J.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (worker.SRC / "orliczfrac" / "__init__.py").is_file():
        sys.exit(f"error: no orliczfrac sources under {worker.SRC}")
    jobs = J.make_jobs(args.workload, args.seed,
                       max(1.0, (args.seconds - FIXED_S) / ROUNDS))
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment(args, jobs)
    (out_dir / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("env " + json.dumps(env))

    if args.trace:
        attempted, failed, values = per_layer(jobs, out_dir)
        kind = "per_layer"
    else:
        attempted, failed, values = end_to_end(jobs, out_dir)
        kind = "end_to_end"
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                          for name, unit in units(kind).items()}}
    (out_dir / "metrics.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

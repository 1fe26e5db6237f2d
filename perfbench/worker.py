"""One pass over a job list, in an interpreter of its own.

    python3 perfbench/worker.py <job list .json> <out dir> --trace {0,1}

Imports orliczfrac from ``src/`` next to this directory and runs the listed
jobs in turn through ``orliczfrac.cli``, inside a ``spans.Tracer`` when
traced. It writes ``pass.json`` to the out dir: each job's time, output
hashes, relative errors and error, the process's id and peak resident
memory and, when traced, the layer numbers (the spans go to
``spans.npz``). ``run.py``
starts one worker per pass, so every pass begins in a fresh process, as
every CLI call does, and nothing a pass keeps in memory reaches the next.
"""

import os

# BLAS threads must be pinned before numpy is first imported: a second
# thread adds no speed on these sizes, only noise. run.py imports this
# module first, so its own process and every worker inherit the setting.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs as J  # noqa: E402
from spans import Tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import orliczfrac.cli from ``src/`` of this checkout, or exit."""
    if not (SRC / "orliczfrac" / "__init__.py").is_file():
        sys.exit(f"error: no orliczfrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orliczfrac
    from orliczfrac import cli
    if Path(orliczfrac.__file__).resolve().parent != SRC / "orliczfrac":
        sys.exit(f"error: orliczfrac imported from {orliczfrac.__file__}")
    return cli


def run_pass(job_list, out_dir, trace):
    """Run ``job_list`` once; return what ``pass.json`` holds."""
    cli = import_package()
    layers = None
    if trace:
        with Tracer() as tracer:
            outcomes = J.run_jobs(cli, job_list, out_dir / "jobs", tracer)
        tracer.save(out_dir / "spans.npz")
        layers = tracer.layer_metrics()
    else:
        outcomes = J.run_jobs(cli, job_list, out_dir / "jobs")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pid": os.getpid(), "peak_rss_mb": peak_rss_mb, "layers": layers,
            "jobs": [{"name": o.job.name, "seconds": o.seconds,
                      "kernel_s": o.kernel_s,
                      "hashes": o.hashes, "rel_errs": o.rel_errs,
                      "error": o.error} for o in outcomes]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job_list", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="CPU to pin this worker to")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    job_list = [J.Job(**d) for d in json.loads(args.job_list.read_text())]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_pass(job_list, args.out_dir, args.trace)
    (args.out_dir / "pass.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

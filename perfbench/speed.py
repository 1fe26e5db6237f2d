"""A fixed kernel that measures how fast the CPU it runs on is right now.

On a shared host each CPU runs in slow and fast phases, lasting from
seconds to minutes, in which the same job takes up to 1.5x as long. The
phases move job times between runs far more than the jobs themselves do.
``jobs.run_jobs`` times this kernel before each job and after the last, on
the job's CPU, and ``run.py`` scales each job's time by
``NOMINAL_S / (mean of the two kernel times around it)``: the job's time at
the CPU speed at which the kernel takes ``NOMINAL_S``.

The kernel mixes the kinds of work the package does: interpreted float
arithmetic, ``scipy.integrate.quad`` with a Python integrand (as
``tilde_eval`` does) and numpy array arithmetic. It imports nothing from
orliczfrac, so no change to the package changes it. It must not change
either, or scaled times stop being comparable.
"""

import math
from time import perf_counter

import numpy as np
from scipy.integrate import quad

# Kernel seconds on a shared 2-core x86 container in a typical phase.
NOMINAL_S = 0.045

_X = np.linspace(0.0, 1.0, 4000)


def _integrand(x):
    return x ** 2.5 * abs(math.log(x + 1e-9))


def kernel():
    """Run the fixed kernel once; return its wall time in seconds."""
    start = perf_counter()
    total = 0.0
    for i in range(90000):
        total += math.sqrt(i * 1.0)
    for i in range(225):
        quad(_integrand, 0.0, 1.0 + i * 1e-3)
    for _ in range(90):
        np.sort(np.sqrt(_X) * _X ** 1.5)
    return perf_counter() - start

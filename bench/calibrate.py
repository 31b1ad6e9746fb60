"""A fixed reference computation that tracks how fast this host runs now.

The benchmark times ``reference()`` between ops.  It does not touch
bbmlab, so a change to the library cannot move it; what moves it is the
host.  On a shared machine the speed one core gives this process switches
between a fast and a slow state, each lasting from a fraction of a second
to minutes.  ops_per_s, op_p50_s and setup_s scale each op's latency and
each set-up time by REFERENCE_S / (the reference's time next to it), so
they read as on this host in its fast state.

Code slows by different factors in the slow state.  Measured on a 2-core
x86_64 VM: bbmlab ops by 1.31-1.60 (3D probes least, the 1D energy loop
most), a pure Python loop by 1.41, a pass over 65k points by 1.43, and a
loop of small numpy calls by 1.71.  A reference of the small numpy calls
alone left the 3D-bound ops_per_s of probe-ladder spread by 0.12 over ten
runs; one of the loop and the large pass alone left the op_p50_s of
probe-ladder and energy-nd spread by 0.09-0.11.  The reference spends
about half its time on each, so its factor lies near the middle of the
library's.
"""

import time

import numpy as np

# the reference's time on a 2-core x86_64 VM in its fast state
REFERENCE_S = 0.0045

_SMALL = np.linspace(-1.0, 1.0, 64)
_POINTS = np.random.default_rng(0).normal(size=(1 << 16, 3))


def reference() -> float:
    s = 0.0
    for i in range(800):    # small numpy calls driven from Python
        y = np.exp(-_SMALL * _SMALL * (1.0 + i * 1e-3))
        s += float(y @ _SMALL)
    for i in range(10000):  # plain interpreter work
        s += (i * 7) % 13
    q = _POINTS * 1.0001    # one batched evaluation over 65k points
    r = np.exp(-np.einsum("ij,ij->i", q, q))
    return s + float(np.sum(np.abs(r - 0.5) ** 1.5))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0

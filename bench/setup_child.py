"""One fresh-process set-up of bbmlab, timed from inside the process.

Usage: python3 bench/setup_child.py <src-dir>

Times ``import bbmlab`` plus the lazy first-call set-up the library does
on first use (constant caches, Gauss-Legendre tables, the gaussian
truncation root-find) and prints the seconds on stdout.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bbmlab  # noqa: E402
from bbmlab import constants, mollifiers, quadrature  # noqa: E402

for d in (1, 2, 3):
    constants.ConstantTable(d)
    quadrature.sphere_rule(d)
    quadrature.radial_rule(mollifiers.gaussian(16.0, d))
    quadrature.radial_rule(mollifiers.power_law(0.3, d))
print(repr(time.perf_counter() - t0))

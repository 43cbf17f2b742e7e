#!/usr/bin/env python3
"""Where can the random series be continued past its convergence circle?

The local convergence radius at a point r inside the disk is read from the
tail of the derivative variances var_k = int (1-2r cos t + r^2)^-(k+1) dF(t).
Its value is controlled by the support of the spectral measure: directions
outside the support admit continuation (the radius beats the distance to the
circle), directions inside do not.  Stronger coefficient dependence means a
smaller spectral support and therefore more room to continue.
"""

import math
import warnings

from gafzeros import presets
from gafzeros.continuation import (arc_radius_bound, classify_arcs, rho_local)
from gafzeros.errors import TailWarning
from gafzeros.spectral import shift

R = 0.5

print(f"local convergence radius at r = {R} (distance to the circle: {1 - R})\n")

cases = [
    ("i.i.d. coefficients (full support)", presets.uniform()),
    ("single atom at angle 0 (looking straight at it)", presets.atoms([(0.0, 1.0)])),
    ("single atom at angle pi (support behind us)", presets.atoms([(math.pi, 1.0)])),
    ("half-circle support, rotated so the gap faces us",
     shift(presets.indicator(-math.pi / 2, math.pi / 2), math.pi)),
]
for label, F in cases:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        rho = rho_local(F, R, k_max=512)
    verdict = "continues past the circle" if rho > 1 - R + 1e-6 else \
        "pinned at the circle"
    print(f"  {label:52s} rho = {rho:8.5f}   {verdict}")

print("""
arc classification: the regular set (directions admitting continuation)
is exactly the complement of the spectral support.
""")
for label, F in [("uniform", presets.uniform()),
                 ("half-circle support", presets.indicator(-math.pi / 2, math.pi / 2)),
                 ("two atoms at 0 and pi", presets.atoms([(0.0, 0.5), (math.pi, 0.5)]))]:
    arcs = classify_arcs(F)
    print(f"  {label}:")
    for arc in arcs:
        span = f"[{arc.lo:+.4f}, {arc.hi:+.4f}]"
        if arc.kind == "regular":
            bound = arc_radius_bound(arc, R)
            # measured from the point facing the arc's middle, not from r
            print(f"    regular  {span}  radius bound at {R}*e^(i*{arc.center:+.4f}): "
                  f"{bound:.4f}")
        else:
            print(f"    singular {span}")

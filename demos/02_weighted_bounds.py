"""Weighted eigenvalue sums over a capped simplex.

A weight class [omega, total] is the polytope of weight vectors with
0 <= w_i <= omega and sum w = total.  The minimum of sum w_i lam_i over
the polytope has a closed greedy form, and the fractional partial sum
k_sum is its omega = 1 special case.  This script walks the machinery
on a small concrete spectrum.

Run:  python3 demos/02_weighted_bounds.py
"""

from itertools import permutations
from math import floor

import numpy as np

from curvop import WeightClass, greedy_min, k_sum, k_verdict

lam = np.array([-1.0, 0.0, 2.0, 3.0])
print("spectrum:", lam)

# Fractional partial sums interpolate between prefix sums.
for k in (1.0, 1.5, 2.0, 2.5, 4.0):
    print(f"  k_sum(k={k:>3}) = {k_sum(lam, k):+.3f}")

# The spectrum is not 2-nonnegative; at k = 2.5 its sum sits on the
# boundary, so it is 2.5-nonnegative but not 2.5-positive:
print("verdict at k=2  :", k_verdict(lam, 2.0).to_json())
print("verdict at k=2.5:", k_verdict(lam, 2.5).to_json())

# The greedy minimum stacks the full cap on the smallest eigenvalues and
# the remainder on the next one; it is omega times a k-sum.
print()
for cls in (WeightClass(omega=1.0, total=2.0), WeightClass(omega=1.0, total=2.5),
            WeightClass(omega=0.5, total=1.25)):
    g = greedy_min(lam, cls)
    print(f"class [omega={cls.omega:g}, total={cls.total:g}]: greedy_min = {g:+.3f}"
          f"  (omega * k_sum(k={cls.k:g}) = {cls.omega * k_sum(lam, cls.k):+.3f})")

# The polytope's vertices put the cap on floor(total/omega) coordinates
# and the remainder on one more.  A linear function attains its minimum
# at a vertex, so no vertex may undercut the greedy minimum, and one
# attains it.
cls = WeightClass(omega=1.0, total=2.5)
m = floor(cls.total / cls.omega)
pattern = [cls.omega] * m + [cls.total - m * cls.omega] + [0.0] * (lam.size - m - 1)
vertices = np.unique(np.array(list(permutations(pattern))), axis=0)
values = vertices @ lam
print(f"\n{len(vertices)} vertices of [omega=1, total=2.5]:"
      f" min {values.min():+.3f}, max {values.max():+.3f}")
assert values.min() >= greedy_min(lam, cls) - 1e-12
assert np.isclose(values.min(), greedy_min(lam, cls))

# Classes combine: scaling by a > 0 multiplies cap and total, and two
# classes add termwise.  For n = 5 a two-term eigenvalue bound collapses
# into a single class this way.
n = 5
N = (n - 1) * (n + 2) // 2
ricci, scalar = WeightClass(1.0, float(n)), WeightClass(1.0, float(N))
a, b = (n - 1) / (n + 1), 2.0 / ((n + 1) * (n + 2))
combined = WeightClass(a * ricci.omega + b * scalar.omega, a * ricci.total + b * scalar.total)
print(f"\nn=5 class arithmetic: [{combined.omega:.6g}, {combined.total:.6g}]")
print(f"expected            : [{n / (n + 2):.6g}, {n - 1}]")

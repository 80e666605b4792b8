"""Gaussian quadratures, the FBR <-> DVR transform, and its column recursion.

Shows quadrature exactness, exact orthogonality of the transformation
matrix, a 1-D anharmonic eigensolve in both representations, and the
segmented three-term reconstruction that the lookup oracle relies on.
"""

import math

import numpy as np
from scipy.linalg import eigh

from whqrom import dvr

print("== quadrature exactness ==")
for kind in ("legendre", "hermite"):
    q = dvr.gauss_quadrature(kind, 16)
    worst = 0.0
    for k in range(32):
        approx = float(np.sum(q.weights * q.nodes**k))
        if kind == "legendre":
            exact, scale = (0.0 if k % 2 else 2 / (k + 1)), 1.0
        else:
            exact = 0.0 if k % 2 else math.gamma((k + 1) / 2)
            scale = max(1.0, math.gamma((k + 1) / 2))
        worst = max(worst, abs(approx - exact) / scale)
    print(f"{kind:9s} n=16: worst scaled moment error through degree 31 = {worst:.2e}")

print("\n== transform orthogonality ==")
for kind, n in (("legendre", 32), ("hermite", 64)):
    t = dvr.build_transform(dvr.gauss_quadrature(kind, n))
    err = np.max(np.abs(t.matrix.T @ t.matrix - np.eye(n)))
    print(f"{kind:9s} n={n:3d}: ||T^T T - I||_max = {err:.2e}")

print("\n== 1-D anharmonic oscillator, FBR vs DVR ==")
n = 24
quad = dvr.gauss_quadrature("hermite", n)
t = dvr.build_transform(quad)
kin = np.diag(0.5 * (np.arange(n) + 0.5))
for m in range(n - 2):
    kin[m, m + 2] = kin[m + 2, m] = -0.25 * math.sqrt((m + 1) * (m + 2))
v = 0.5 * quad.nodes**2 + 0.1 * quad.nodes**4
e_fbr = eigh(kin + dvr.fbr_potential(t, v), eigvals_only=True)
e_dvr = eigh(t.matrix @ kin @ t.matrix.T + np.diag(v), eigvals_only=True)
print("lowest five (FBR):", np.round(e_fbr[:5], 8).tolist())
print("agreement:", f"{np.max(np.abs(e_fbr - e_dvr)):.2e}")

print("\n== segmented column recursion ==")
for kind, n, segment in (("legendre", 16, 4), ("hermite", 32, 8)):
    quad = dvr.gauss_quadrature(kind, n)
    t = dvr.build_transform(quad)
    coeffs = dvr.recursion_coeffs(kind, n, segment)
    rebuilt = dvr.recursion_columns(coeffs, dvr.midpoint_columns(t, segment), quad.nodes)
    err = np.max(np.abs(rebuilt - t.matrix))
    loaded = 2 * (n // segment)
    print(
        f"{kind:9s} n={n:2d} F={segment:2d}: {loaded} loaded columns rebuild the rest, "
        f"max error {err:.2e}"
    )

print("\n== lookup-oracle cost formula ==")


def stub(i, n_entries, d):
    from whqrom.qrom import CostReport

    return CostReport.assemble(4 * (n_entries + d), 0, 0, 1, 0)


report = dvr.dvr_oracle_cost([16, 16, 32], d=8, qrom_coster=stub)
print(f"three-mode transform with a stub coster: T = {report.t_count}")
print(
    "segment-initialization lookup models:",
    f"select-swap {dvr.segment_init_cost(64, 16, 16):.1f},",
    f"select {dvr.segment_init_cost(64, 16, 16, method='select'):.1f}",
)

"""Why heterodyne: scanning the Gaussian-POVM family.

The single-mode Gaussian measurements form a three-parameter family (noise
factor, angle, squeezing asymmetry).  Extra noise only hurts, the angle is
irrelevant by isotropy, and scanning the squeezing asymmetry shows the
modulated overlap is minimized exactly at lambda = 1 (heterodyne).  The same
holds for the averaged-fidelity lower bound.
"""

import numpy as np

from gaussdisc import (
    GaussianPovm,
    s_overlap_local,
    verify_fidelity_optimality,
    verify_heterodyne_optimality,
)

mu, s = 2.0, 0.5
print(f"overlap of the conditional pair at mu = {mu}, s = {s}:")
print(f"{'lambda':>8} {'Q_s':>12}")
for lam in np.logspace(-1, 1, 9):
    q = s_overlap_local(mu, s, GaussianPovm(1.0, 0.0, float(lam)))
    marker = "  <- heterodyne" if abs(lam - 1.0) < 1e-12 else ""
    print(f"{lam:8.3f} {q:12.8f}{marker}")

print("\nnoise factor eta only degrades the measurement:")
for eta in (1.0, 1.5, 2.0, 4.0):
    q = s_overlap_local(mu, s, GaussianPovm(eta, 0.0, 1.0))
    print(f"  eta = {eta:3g}: Q_s = {q:.8f}")

# lambda and 1/lambda are the same POVM turned by pi/2
print("\nfull scans (41 log-spaced asymmetries in [1, 10]):")
scan = verify_heterodyne_optimality(2.0, 1.0, 0.5)
print(f"  overlap scan:  min at lambda = {scan.min_lambda}")
scan = verify_fidelity_optimality(2.0)
print(f"  fidelity scan: min at lambda = {scan.min_lambda}")

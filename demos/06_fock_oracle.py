"""Brute-force validation of the closed forms in a truncated Fock basis.

The uncorrelated state is a diagonal thermal product; the correlated one is
the mixture of identical coherent pairs (separable by construction), built
from its exact number-basis elements.  Direct matrix algebra then reproduces
the closed-form overlaps and fidelities to many digits.
"""

import math

import numpy as np

from gaussdisc import (
    FockConfig,
    build_correlated,
    displaced_thermal,
    build_thermal,
    fidelity_heterodyne,
    heterodyne_epsilon,
    make_state_one,
    oracle_fidelity,
    quadrature_moments,
    s_overlap_converged,
    s_overlap_global,
)

mu = 2.0
config = FockConfig(cutoff=20, modulation_nodes=16)

rho1 = build_correlated(mu, config)
print(f"correlated state at mu = {mu}: dim {rho1.shape[0]}, trace {np.trace(rho1):.12f}")
_, cm = quadrature_moments(rho1, n_modes=2)
target = make_state_one(mu).matrix()
print(f"covariance error vs target normal form: {np.abs(cm - target).max():.2e}")

print("\ns-overlaps, oracle (cutoff-doubling validated) vs closed form:")
oracle = s_overlap_converged(mu, (0.3, 0.5, 0.7), config)
for s, value in oracle.items():
    closed = s_overlap_global(mu, s)
    print(f"  s = {s}: oracle {value:.10f}  closed {closed:.10f}  |diff| {abs(value - closed):.2e}")

print("\nconditional-state fidelity, Uhlmann oracle vs closed form:")
eps = heterodyne_epsilon(mu)
rho_a = build_thermal((mu - 1.0) / 2.0, FockConfig(60))
for a in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
    mean = (eps / math.sqrt(2.0)) * np.asarray(a)
    rho_b = displaced_thermal(eps / 2.0, mean, 60)
    direct = oracle_fidelity(rho_a, rho_b)
    closed = fidelity_heterodyne(mu, a)
    print(f"  a = {a}: oracle {direct:.10f}  closed {closed:.10f}  |diff| {abs(direct - closed):.2e}")

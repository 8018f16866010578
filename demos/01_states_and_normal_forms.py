"""The two encoded states and their symplectic normal forms.

A bit is encoded into two bosonic modes of fixed local energy: bit 0 is an
uncorrelated pair of thermal modes, bit 1 the maximally correlated state that
is still separable.  This script builds both covariance matrices, checks the
physical-validity inequalities, and diagonalizes them along the closed-form
and the numeric route.
"""

import numpy as np

from gaussdisc import (
    OMEGA,
    SymmetricTwoModeCM,
    check_bona_fide,
    make_state_one,
    make_state_zero,
    williamson_numeric,
    williamson_symmetric,
)

np.set_printoptions(precision=6, suppress=True)

mu = 3.0
zero = make_state_zero(mu)
one = make_state_one(mu)

print(f"thermal variance mu = {mu}, mean photons per mode = {zero.mean_photons}")
print("\nbit 0 (uncorrelated):")
print(zero.matrix())
print("\nbit 1 (maximally correlated, separable):")
print(one.matrix())

for label, state in (("bit 0", zero), ("bit 1", one)):
    ok, violations = check_bona_fide(state)
    print(f"\n{label} bona fide: {ok}")

bad = SymmetricTwoModeCM(2.0, 2.0, 2.0)
ok, violations = check_bona_fide(bad)
print(f"\nV(2, 2, 2) bona fide: {ok}")
for v in violations:
    print("  violated:", v)

print("\nWilliamson normal form of bit 1 (closed form):")
dec = williamson_symmetric(one)
print(f"  symplectic spectrum: nu- = {dec.nu_minus}, nu+ = {dec.nu_plus}")
print(f"  reconstruction error: {np.abs(dec.reconstruct() - one.matrix()).max():.2e}")
print(
    "  form preservation |S Omega S^T - Omega|:",
    f"{np.abs(dec.s_matrix @ OMEGA @ dec.s_matrix.T - OMEGA).max():.2e}",
)

num = williamson_numeric(one.matrix())
print("\nsame spectrum from the numeric route (one Hermitian eigh):")
print(f"  nu- = {num.nu_minus:.12f}, nu+ = {num.nu_plus:.12f}")

"""
Continuity chain and spectral bounds on the relative entropy
============================================================

Discord measures how far a state is from the classical-quantum family.
That distance obeys a two-step continuity chain built from projective
pinchings, and the relative entropy itself admits a closed-form spectral
upper bound. This script evaluates both on random full-rank states.
"""

import numpy as np

from qcorr import (
    DensityMatrix,
    continuity_chain_audit,
    f_bound_audit,
    random_density_matrix,
    relative_entropy,
    relative_entropy_bound_audit,
    relative_entropy_upper_bound,
    von_neumann_entropy,
)


def full_rank_two_qubit(seed):
    rho = random_density_matrix((2, 2), 4, seed)
    return DensityMatrix(0.999999 * rho.mat + 1e-6 * np.eye(4) / 4.0, (2, 2))


# -- 1. The chain D <= m1 <= m2 ----------------------------------------------
# m1 minimizes H(rho||rho_P) - H(rho_F||rho_F,P) over pinchings P of the
# measured qubit; m2 minimizes H(rho||rho_P) alone. Discord never exceeds
# either minimum. For projective pinchings the m1 objective is I(rho) - I(rho_P),
# so m1 = I - J = D and its minimizer is J's optimal measurement.
print("continuity chain on five random full-rank two-qubit states")
print(f"{'seed':>6s} {'D':>9s} {'m1':>9s} {'m2':>9s} {'holds':>6s}")
for seed in range(5):
    audit = continuity_chain_audit(full_rank_two_qubit(seed), measured=1)
    print(
        f"{seed:6d} {audit.lhs:9.5f} {audit.rhs:9.5f} "
        f"{audit.extras['m2']:9.5f} {str(audit.satisfied):>6s}"
    )

# -- 2. The pinching identity --------------------------------------------------
# For every projective pinching, H(rho||rho_P) = H(rho_P) - H(rho) exactly. The
# audits use it to read each relative entropy from the pinched spectra that the
# J search already computes. Here it is checked on one state, with qubit 1
# pinched along n = (1, 1, 1)/sqrt(3) from the definition rho_P = sum_a P_a rho P_a.
rho = full_rank_two_qubit(7)
n = np.ones(3) / np.sqrt(3.0)
n_sigma = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
projectors = [np.kron(np.eye(2), (np.eye(2) + sign * n_sigma) / 2.0) for sign in (1, -1)]
pinched = DensityMatrix(sum(p @ rho.mat @ p for p in projectors), (2, 2))
print("\npinching identity, qubit 1 pinched along (1, 1, 1)/sqrt(3)")
print(f"  H(rho||rho_P)     = {relative_entropy(rho, pinched):.12f}")
print(f"  H(rho_P) - H(rho) = {von_neumann_entropy(pinched) - von_neumann_entropy(rho):.12f}")

# -- 3. Spectral upper bound on H(x||y) ----------------------------------------
# bound = (lmin(y) + d) log2(1 + d/lmin(y)) - lmin(x) log2(1 + d/lmin(x))
# with d the trace distance. For commuting states it can be tight.
x = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
y = DensityMatrix((np.eye(2) / 2).astype(complex), (2,))
print("\ncommuting qubit pair  diag(3/4, 1/4)  vs  I/2")
print(f"  H(x||y)  = {relative_entropy(x, y):.12f}")
print(f"  bound    = {relative_entropy_upper_bound(x, y):.12f}   (saturated)")

print("\nrandom full-rank pairs, dimensions 2 to 4")
rng = np.random.default_rng(3)
for d in (2, 3, 4):
    s1, s2 = int(rng.integers(1 << 30)), int(rng.integers(1 << 30))
    a = random_density_matrix((d,), d, s1)
    b = random_density_matrix((d,), d, s2)
    audit = relative_entropy_bound_audit(a, b)
    print(f"  d={d}: H(x||y) = {audit.lhs:8.5f} <= bound = {audit.rhs:8.5f}  {audit.satisfied}")

# -- 4. The f-function closes the loop -----------------------------------------
# At the measurement that maximizes classical correlations, the distance
# to the pinched state is controlled by the continuity gap plus the
# spectral bound evaluated on the measured marginal alone.
print("\nf-function audit at the optimal measurement")
for seed in (11, 12, 13):
    audit = f_bound_audit(full_rank_two_qubit(seed), measured=1)
    print(
        f"  seed {seed}: H(rho||rho_P) = {audit.lhs:8.5f} <= "
        f"eps + f = {audit.rhs:8.5f}  {audit.satisfied}"
    )

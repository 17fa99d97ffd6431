"""
Classical correlations, discord, and entanglement on two qubits
===============================================================

Walk through the three correlation measures on states whose values are
known in closed form: a Bell pair, a classically correlated mixture, a
Werner state, and a product state.
"""

import numpy as np

from qcorr import (
    Bipartition,
    DensityMatrix,
    bell_state,
    binary_entropy,
    classical_correlations,
    density_from_pure,
    eof_two_qubit,
    quantum_discord,
)


def show(name, rho):
    record = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
    eof = eof_two_qubit(rho)
    print(
        f"{name:<22s} I={record.mutual_info:8.5f}  J={record.classical:8.5f}  "
        f"D={record.discord:8.5f}  E={eof:8.5f}"
    )
    return record


# -- 1. Bell pair: everything is maximal ------------------------------------
# I = 2 bits, and the measurement can extract exactly half of it: J = 1.
# The quantum remainder D = 1 coincides with the entanglement E = 1.
bell = density_from_pure(bell_state())
show("Bell pair", bell)

# -- 2. Classically correlated mixture ---------------------------------------
# rho = 0.7 |00><00| + 0.3 |11><11| carries only classical records:
# J = I = h(0.3) and D = E = 0. A measurement in the computational basis
# already reads out all correlations.
cc = DensityMatrix(
    0.7 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    + 0.3 * np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])),
    (2, 2),
)
record = show("classical mixture", cc)
print(f"{'':22s} h(0.3) = {binary_entropy(0.3):.5f}  (equals I and J above)")

# -- 3. Werner state: discord without much entanglement ----------------------
# At p = 0.5 the state is separable-leaning but still carries discord;
# for Bell-diagonal states J has the closed form 1 - h((1+p)/2).
p = 0.5
werner = DensityMatrix(p * bell.mat + (1 - p) * np.eye(4) / 4.0, (2, 2))
show(f"Werner p={p}", werner)
print(f"{'':22s} closed-form J = 1 - h({(1+p)/2}) = {1 - binary_entropy((1+p)/2):.5f}")

# -- 4. Product state: nothing to see ----------------------------------------
product = DensityMatrix(np.kron(np.diag([0.6, 0.4]), np.diag([0.8, 0.2])), (2, 2))
show("product state", product)

# -- 5. Discord is asymmetric -------------------------------------------------
# Measuring the classical side of a classical-quantum state reveals all
# correlations (D = 0); measuring the quantum side leaves some behind.
plus = np.array([[0.5, 0.5], [0.5, 0.5]])
cq = DensityMatrix(
    0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    + 0.5 * np.kron(np.diag([0.0, 1.0]), plus),
    (2, 2),
)
left = quantum_discord(Bipartition(cq, (0,), (1,)), measured="a").discord
right = quantum_discord(Bipartition(cq, (0,), (1,)), measured="b").discord
print(f"\nclassical-quantum state: D measuring side a = {left:.5f}, side b = {right:.5f}")
print("the measured side matters: zero discord only when the classical side is read out")

"""Definition-route references that the tests compare the library's fast paths against."""

from dataclasses import dataclass
from math import prod

import numpy as np

from qcorr import BlochAngles, DensityMatrix

COMPLETENESS_TOL = 1e-10
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete set of orthogonal projectors acting on one subsystem."""

    projectors: tuple[np.ndarray, ...]
    subsystem: int

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        d = projs[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (d, d):
                raise ValueError("projectors must share one square shape")
            if np.max(np.abs(p - p.conj().T)) > COMPLETENESS_TOL:
                raise ValueError(f"projector {i} is not Hermitian")
            if np.max(np.abs(p @ p - p)) > COMPLETENESS_TOL:
                raise ValueError(f"projector {i} is not idempotent")
            for q in projs[:i]:
                if np.max(np.abs(p @ q)) > COMPLETENESS_TOL:
                    raise ValueError("projectors are not pairwise orthogonal")
            total += p
        if np.max(np.abs(total - np.eye(d))) > COMPLETENESS_TOL:
            raise ValueError("projectors do not sum to the identity")


def qubit_projectors(angles: BlochAngles, subsystem: int = 0) -> ProjectiveMeasurement:
    """Projectors (1 +- n.sigma)/2 on qubit ``subsystem`` onto +n and -n for n(theta, phi)."""
    n = (
        np.sin(angles.theta) * np.cos(angles.phi),
        np.sin(angles.theta) * np.sin(angles.phi),
        np.cos(angles.theta),
    )
    flip = np.einsum("k,kij->ij", n, _PAULI)
    return ProjectiveMeasurement(((np.eye(2) + flip) / 2.0, (np.eye(2) - flip) / 2.0), subsystem)


def apply_local_measurement(rho: DensityMatrix, m: ProjectiveMeasurement) -> DensityMatrix:
    """Post-measurement (pinched) state sum_a (I x P_a x I) rho (I x P_a x I)."""
    n = len(rho.dims)
    if not 0 <= m.subsystem < n:
        raise ValueError(f"subsystem {m.subsystem} out of range for dims {rho.dims}")
    d_sub = rho.dims[m.subsystem]
    if m.projectors[0].shape[0] != d_sub:
        raise ValueError(
            f"projector dimension {m.projectors[0].shape[0]} does not match "
            f"subsystem dimension {d_sub}"
        )
    left = np.eye(prod(rho.dims[: m.subsystem]))
    right = np.eye(prod(rho.dims[m.subsystem + 1 :]))
    out = np.zeros_like(rho.mat)
    for p in m.projectors:
        full = np.kron(np.kron(left, p), right)
        out += full @ rho.mat @ full
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, rho.dims)


def roof_member_terms(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entanglement p H(w/|w|) of each member of a (N, d_a, d_b) stack, and its gradient G.

    One SVD per member, w = U diag(s) V^dag with p = sum s^2: the value is
    p log2 p - sum s^2 log2 s^2 and G = U diag(s log2(p / s^2)) V^dag, with
    0 log 0 = 0 and no term where s = 0.
    """
    values, grads = [], []
    for member in w:
        u, s, vh = np.linalg.svd(member, full_matrices=False)
        s2 = s * s
        p = s2.sum()
        nz = s2 > 0.0
        values.append(p * np.log2(p) - np.sum(s2[nz] * np.log2(s2[nz])) if p > 0.0 else 0.0)
        coeff = np.zeros_like(s)
        coeff[nz] = s[nz] * np.log2(p / s2[nz])
        grads.append((u * coeff) @ vh)
    return np.array(values), np.array(grads)

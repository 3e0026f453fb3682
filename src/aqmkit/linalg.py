"""Small matrix helpers shared across the package."""

from __future__ import annotations

import numpy as np

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10


def as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(m: np.ndarray) -> bool:
    m = as_square_matrix(m)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m @ m.conj().T - eye)) <= UNITARY_TOL
                and np.max(np.abs(m.conj().T @ m - eye)) <= UNITARY_TOL)


def is_hermitian(m: np.ndarray) -> bool:
    m = as_square_matrix(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


def phase_invariant_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance in [0, 1] between unitaries, blind to global phase.

    Returns sqrt(1 - |tr(u^dag v)| / d); zero exactly when u = e^{i phi} v.
    Evaluated through the identity 1 - |t|/d = ||u - w v||_F^2 / (2d) with
    w the phase aligning v to u, which avoids the catastrophic cancellation
    of the direct form near zero distance.
    """
    u = as_square_matrix(u)
    v = as_square_matrix(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    t = np.trace(u.conj().T @ v)
    w = np.conj(t) / abs(t) if abs(t) > 0 else 1.0
    residual = u - w * v
    return float(np.sqrt(min(1.0, np.sum(np.abs(residual) ** 2) / (2 * d))))

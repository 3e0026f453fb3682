"""Realizing general measurements with ancilla qubits.

A K-outcome measurement {m_k} on n qubits becomes one unitary on the system
plus ceil(log2 K) ancillas followed by a projective computational-basis
readout of the ancillas: the isometry V|psi> = sum_k (m_k|psi>) (x) |k>,
whose columns are the set's operator stack, is completed to a unitary by a
complete QR factorization, keeping V's columns exactly, and ancilla outcome k
reproduces outcome k of the direct measurement, post-state included. The
ancillas start in |0...0>, so running the dilation multiplies only the
unitary's first K 2^n rows and 2^n columns into psi: the other columns only
ever meet zeros, and no joint vector is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import MeasurementOperatorSet, draw_branch, normalized_branches, require_complete
from .simulate import MeasurementRecord
from .state import StateVector


@dataclass(frozen=True, eq=False)
class DilatedMeasurement:
    """Unitary-plus-ancilla realization of a general measurement.

    The joint register places the ancillas in the high-significance qubits,
    so joint amplitudes index as k * 2**n + s for ancilla value k and system
    basis state s. Ancilla value k is outcome k of `mset`.
    """

    mset: MeasurementOperatorSet
    unitary: np.ndarray
    num_ancillas: int

    def _outcome_rows(self, state: StateVector) -> np.ndarray:
        """Row k: the unnormalized branch of ancilla value k, for each outcome k."""
        if state.num_qubits != self.mset.num_qubits:
            raise ValueError("state qubit count does not match the measurement")
        rows, dim = self.mset.stack.shape
        return (self.unitary[:rows, :dim] @ state.amplitudes).reshape(-1, dim)

    def branches(self, state: StateVector) -> list[tuple[float, StateVector | None]]:
        """All K outcome probabilities and post-states, deterministically."""
        return normalized_branches(self._outcome_rows(state))

    def run(self, state: StateVector, seed: int = 0,
            rng: np.random.Generator | None = None) -> MeasurementRecord:
        """Apply the dilation unitary and read the ancillas projectively."""
        return MeasurementRecord(*draw_branch(self._outcome_rows(state), seed, rng))


def synthesize_measurement(mset: MeasurementOperatorSet) -> DilatedMeasurement:
    """Dilate a general measurement into unitary + projective ancilla readout."""
    require_complete(mset)
    k_outcomes = mset.num_outcomes
    num_ancillas = max(1, int(np.ceil(np.log2(k_outcomes)))) if k_outcomes > 1 else 0
    rows, dim = mset.stack.shape
    isometry = np.zeros((dim * 2 ** num_ancillas, dim), dtype=complex)
    isometry[:rows] = mset.stack
    # The complete QR's trailing columns span the complement of V's range.
    q, _ = np.linalg.qr(isometry, mode="complete")
    unitary = np.hstack([isometry, q[:, dim:]])
    return DilatedMeasurement(mset, unitary, num_ancillas)

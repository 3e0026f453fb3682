"""Realizing general measurements with ancilla qubits.

A K-outcome measurement {m_k} on n qubits becomes one unitary on the system
plus ceil(log2 K) ancillas followed by a projective computational-basis
readout of the ancillas: the isometry V|psi> = sum_k (m_k|psi>) (x) |k> is
completed to a unitary by a complete QR factorization, keeping V's columns
exactly, and ancilla outcome k reproduces outcome k of the direct
measurement exactly, post-state included.
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

    def _outcome_rows(self, state: StateVector) -> list[np.ndarray]:
        """The unnormalized branch of each outcome, in outcome order."""
        if state.num_qubits != self.mset.num_qubits:
            raise ValueError("state qubit count does not match the measurement")
        dim = 2 ** self.mset.num_qubits
        joint = np.zeros(self.unitary.shape[0], dtype=complex)
        joint[:dim] = state.amplitudes  # ancillas initialized to |0...0>
        joint = self.unitary @ joint
        rows = joint.reshape(-1, dim)  # row k = unnormalized branch of ancilla value k
        return list(rows[:self.mset.num_outcomes])

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
    dim = 2 ** mset.num_qubits
    total = dim * 2 ** num_ancillas
    isometry = np.zeros((total, dim), dtype=complex)
    for k, op in enumerate(mset.operators):
        isometry[k * dim:(k + 1) * dim, :] = op
    # The complete QR's trailing columns span the complement of V's range.
    q, _ = np.linalg.qr(isometry, mode="complete")
    unitary = np.hstack([isometry, q[:, dim:]])
    return DilatedMeasurement(mset, unitary, num_ancillas)

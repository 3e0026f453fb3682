"""General measurements: complete operator sets and their application.

A measurement on n qubits is a set of 2^n x 2^n operators {m_k} with
sum_k m_k^dag m_k = I. Outcome k occurs with probability <psi|m_k^dag m_k|psi>
and leaves the state m_k|psi> / sqrt(p_k). The outcome is drawn by
``simulate.pick``, the rule every measurement branch in the package uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simulate import MeasurementRecord, ZERO_PROB, generator, pick
from .state import StateVector

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class CompletenessCheck:
    ok: bool
    max_deviation: float


@dataclass(frozen=True, eq=False)
class MeasurementOperatorSet:
    """Ordered operators m_1..m_K over a fixed qubit count (K >= 1, any K).

    `completeness` is checked once here: the operators are read-only copies.
    """

    num_qubits: int
    operators: tuple[np.ndarray, ...]
    completeness: CompletenessCheck = field(init=False, compare=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if len(self.operators) < 1:
            raise ValueError("need at least one operator")
        dim = 2 ** self.num_qubits
        ops = []
        for i, op in enumerate(self.operators):
            op = np.asarray(op, dtype=complex)
            if op.shape != (dim, dim):
                raise ValueError(f"operator {i} has shape {op.shape}, expected {(dim, dim)}")
            if not np.all(np.isfinite(op.view(float))):
                raise ValueError(f"operator {i} has non-finite entries")
            op = op.copy()
            op.setflags(write=False)
            ops.append(op)
        object.__setattr__(self, "operators", tuple(ops))
        total = sum(op.conj().T @ op for op in ops)
        deviation = float(np.max(np.abs(total - np.eye(dim))))
        object.__setattr__(self, "completeness",
                           CompletenessCheck(deviation <= COMPLETENESS_TOL, deviation))

    @property
    def num_outcomes(self) -> int:
        return len(self.operators)


def validate_measurement_set(mset: MeasurementOperatorSet) -> CompletenessCheck:
    """Check sum_k m_k^dag m_k = I; reports the max entrywise deviation."""
    return mset.completeness


def _probability(row: np.ndarray) -> float:
    """Outcome probability of an unnormalized branch: its squared norm."""
    return float(np.real(np.vdot(row, row)))


def normalized_branches(rows) -> list[tuple[float, StateVector | None]]:
    """(probability, post-state) of each unnormalized branch; None below ZERO_PROB."""
    branches: list[tuple[float, StateVector | None]] = []
    for row in rows:
        prob = _probability(row)
        branches.append((prob, None if prob < ZERO_PROB else StateVector(row / np.sqrt(prob))))
    return branches


def require_complete(mset: MeasurementOperatorSet) -> None:
    """Refuse a measurement set whose operators do not sum to the identity."""
    check = mset.completeness
    if not check.ok:
        raise ValueError(f"measurement set is not complete (deviation {check.max_deviation:.3e})")


def _branch_rows(mset: MeasurementOperatorSet, state: StateVector) -> list[np.ndarray]:
    """The unnormalized branches m_k|psi>, after checking completeness and size."""
    require_complete(mset)
    if state.num_qubits != mset.num_qubits:
        raise ValueError("state and measurement set qubit counts differ")
    return [op @ state.amplitudes for op in mset.operators]


def measurement_branches(mset: MeasurementOperatorSet, state: StateVector,
                         ) -> list[tuple[float, StateVector | None]]:
    """Deterministic variant: all K outcome probabilities and post-states.

    Post-states of branches with probability below the sampling cutoff are
    returned as None (the renormalization would divide by ~0).
    """
    return normalized_branches(_branch_rows(mset, state))


def draw_branch(rows: list[np.ndarray], seed: int = 0,
                rng: np.random.Generator | None = None,
                ) -> tuple[int, float, StateVector]:
    """Sample one unnormalized branch by probability: (index, probability, post-state).

    ``pick`` draws the index from the rows' squared norms; only the drawn
    branch is normalized into a ``StateVector``.
    """
    probs = [_probability(row) for row in rows]
    index = pick(probs, generator(seed, rng))
    return index, probs[index], StateVector(rows[index] / np.sqrt(probs[index]))


def apply_measurement(mset: MeasurementOperatorSet, state: StateVector, seed: int = 0,
                      rng: np.random.Generator | None = None) -> MeasurementRecord:
    """Sample one outcome of a general measurement and collapse the state.

    Zero-probability branches are never sampled.
    """
    return MeasurementRecord(*draw_branch(_branch_rows(mset, state), seed, rng))


def initialization_set(target: StateVector) -> MeasurementOperatorSet:
    """The measurement {|target><j|} whose every branch prepares `target`."""
    dim = target.amplitudes.size
    column = target.amplitudes.reshape(dim, 1)
    ops = tuple(column @ np.eye(dim, dtype=complex)[j].reshape(1, dim) for j in range(dim))
    return MeasurementOperatorSet(target.num_qubits, ops)


def initialize_via_measurement(target: StateVector, input_state: StateVector,
                               seed: int = 0) -> StateVector:
    """Prepare `target` from any input by measuring with {|target><j|}.

    Every outcome branch yields the target state (up to a global phase), so
    the preparation succeeds with total probability 1.
    """
    if target.num_qubits != input_state.num_qubits:
        raise ValueError("target and input qubit counts differ")
    record = apply_measurement(initialization_set(target), input_state, seed=seed)
    return record.post_state

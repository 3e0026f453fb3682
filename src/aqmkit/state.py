"""State vectors over n qubits.

A state is a unit-norm complex vector of length 2**n. Basis index i encodes
qubit q in bit 2**q (little-endian). Global phase is never canonicalized;
equivalence checks should go through ``fidelity`` or the phase-invariant
distance on operators.

``StateVector(amplitudes)`` copies and checks what a caller passes in. The
package's own kernels wrap a register they have just computed with
``StateVector._owned``, which checks it without the copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector; length must be a power of two.

    The constructor copies `amplitudes` into a read-only complex array, so
    later writes to the caller's array cannot reach the state.
    """

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {amps.shape}")
        n = int(amps.size).bit_length() - 1
        if amps.size < 2 or amps.size != 2 ** n:
            raise ValueError(f"amplitude length {amps.size} is not a power of two >= 2")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    @classmethod
    def _owned(cls, amps: np.ndarray) -> StateVector:
        """Wrap `amps`, a fresh 1-D complex array the package just computed, without a copy.

        For registers no caller can still write: `amps` is made read-only in
        place. Its shape is checked, and its norm with one ``vdot``; a
        non-finite entry makes the norm non-finite, so it is refused too.
        """
        n = amps.size.bit_length() - 1
        if amps.ndim != 1 or amps.dtype != complex or amps.size < 2 or amps.size != 2 ** n:
            raise ValueError(f"expected a complex register of 2^n >= 2 amplitudes, got "
                             f"shape {amps.shape} and dtype {amps.dtype}")
        norm = float(np.vdot(amps, amps).real) ** 0.5
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amps)
        object.__setattr__(state, "num_qubits", n)
        return state

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on num_qubits qubits."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    dim = 2 ** num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def plus_state(num_qubits: int) -> StateVector:
    """Uniform superposition |+>^n."""
    dim = 2 ** num_qubits
    return StateVector(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with `a` in the high-significance qubit block.

    Qubits 0..n_b-1 of the result are b's qubits; a's qubits sit above them.
    """
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-blind overlap of two states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)

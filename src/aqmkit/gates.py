"""Gate alphabet and matrix definitions.

Qubit ordering is little-endian throughout the package: qubit q contributes
2**q to the basis index. Multi-qubit gate matrices follow the same
convention, with operand k of an instruction mapped to gate-local qubit k
(so CNOT's control is operand 0, bit 2**0 of the 4x4 matrix index).
"""

from __future__ import annotations

import numpy as np

_S2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
TDG = T.conj().T

# Little-endian two-qubit gates. CNOT: operand 0 = control, operand 1 = target,
# so basis index 1 (q0=1, q1=0) maps to index 3.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

# CCX: operands (control, control, target); flips bit 2 when bits 0 and 1 are set,
# i.e. swaps basis indices 3 and 7.
CCX = np.eye(8, dtype=complex)
CCX[[3, 7]] = CCX[[7, 3]]


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


FIXED_GATES: dict[str, np.ndarray] = {
    "I": I2, "X": X, "Y": Y, "Z": Z, "H": H,
    "S": S, "SDG": SDG, "T": T, "TDG": TDG,
    "CNOT": CNOT, "CZ": CZ, "SWAP": SWAP, "CCX": CCX,
}

# Read-only: gate_matrix hands these arrays out, and a caller's write must
# not change every later circuit in the process.
for _matrix in FIXED_GATES.values():
    _matrix.setflags(write=False)
del _matrix

ROTATION_GATES = {"RX": rx, "RY": ry, "RZ": rz}

GATE_ARITY: dict[str, int] = {
    "I": 1, "X": 1, "Y": 1, "Z": 1, "H": 1,
    "S": 1, "SDG": 1, "T": 1, "TDG": 1,
    "RX": 1, "RY": 1, "RZ": 1,
    "CNOT": 2, "CZ": 2, "SWAP": 2, "CCX": 3,
    "MEASURE": 1, "RESET": 1,
}

MARKERS = frozenset({"MEASURE", "RESET"})
UNITARY_GATES = frozenset(GATE_ARITY) - MARKERS
SINGLE_QUBIT_GATES = frozenset(g for g, a in GATE_ARITY.items() if a == 1 and g not in MARKERS)


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """Return the unitary matrix for a named gate from the alphabet."""
    name = name.upper()
    if name in ROTATION_GATES:
        if angle is None:
            raise ValueError(f"gate {name} requires an angle")
        return ROTATION_GATES[name](angle)
    if name in FIXED_GATES:
        if angle is not None:
            raise ValueError(f"gate {name} takes no angle")
        return FIXED_GATES[name]
    raise ValueError(f"unknown gate {name!r}")

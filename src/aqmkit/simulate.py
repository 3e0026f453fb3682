"""Dense state-vector execution of circuits.

Gates are applied by tensor contraction on the reshaped amplitude array,
which ``circuit_unitary`` also uses, treating the identity's columns as a
batch; ``embed_gate`` builds the explicit 2^n-dimensional operator when a
dense matrix is wanted (oracles, routing checks). MEASURE samples a computational
basis outcome for one qubit with the seeded generator and collapses the
state; RESET performs initialization-by-measurement to |0> (a measurement
whose every branch leaves the qubit in |0>). ``sample_counts`` histograms
many shots, drawing them all from one simulation when the MEASUREs are
terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .circuit import Circuit
from .linalg import is_unitary
from .state import StateVector, basis_state

ZERO_PROB = 1e-14

# Widest register `aqm simulate` accepts: 2**24 complex128 amplitudes are 256 MiB.
MAX_SIM_QUBITS = 24


@dataclass(frozen=True)
class MeasurementRecord:
    """One sampled measurement outcome and the state it left behind."""

    outcome_index: int
    probability: float
    post_state: StateVector
    qubit: int | None = None


def _spread(value: int, positions) -> int:
    """Scatter bit j of value to bit positions[j]."""
    out = 0
    for j, p in enumerate(positions):
        out |= ((value >> j) & 1) << p
    return out


def embed_gate(gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Dense 2^n operator acting as `gate` on `targets`, identity elsewhere.

    Gate-local qubit j maps to circuit qubit targets[j] (little-endian on
    both sides).
    """
    gate = np.asarray(gate, dtype=complex)
    targets = list(targets)
    k = len(targets)
    if gate.shape != (2 ** k, 2 ** k):
        raise ValueError(f"gate shape {gate.shape} does not match {k} target(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets: {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubit(s)")
    if not is_unitary(gate):
        raise ValueError("gate matrix is not unitary")

    rest = [q for q in range(num_qubits) if q not in set(targets)]
    full = np.zeros((2 ** num_qubits, 2 ** num_qubits), dtype=complex)
    local = np.array([_spread(g, targets) for g in range(2 ** k)])
    for r in range(2 ** len(rest)):
        idx = _spread(r, rest) + local
        full[np.ix_(idx, idx)] = gate
    return full


def apply_gate(amps: np.ndarray, gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Apply a 2^k gate to the amplitude array without building the full matrix.

    `amps` has shape (2^n,) or (2^n, *batch): trailing axes are a batch, so
    one call applies the gate to every column of a (2^n, m) block.
    """
    targets = list(targets)
    k = len(targets)
    for t in targets:
        # A negative axis would silently land on another qubit or a batch axis.
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubit(s)")
    tensor = amps.reshape((2,) * num_qubits + amps.shape[1:])
    gate_t = np.asarray(gate, dtype=complex).reshape((2,) * (2 * k))
    in_axes = [2 * k - 1 - j for j in range(k)]
    state_axes = [num_qubits - 1 - t for t in targets]
    out = np.tensordot(gate_t, tensor, axes=(in_axes, state_axes))
    # tensordot put the gate's output axes first (gate qubit k-1 .. 0).
    out = np.moveaxis(out, [k - 1 - j for j in range(k)], state_axes)
    return np.ascontiguousarray(out).reshape(amps.shape)


def _measure_bit(amps: np.ndarray, qubit: int,
                 rng: np.random.Generator) -> tuple[int, float, np.ndarray]:
    """Sample qubit's Z outcome, collapse and renormalize. Returns (j, p_j, amps)."""
    index = np.arange(amps.size)
    mask = (index >> qubit) & 1
    p1 = float(np.sum(np.abs(amps[mask == 1]) ** 2))
    p0 = 1.0 - p1
    if p0 < ZERO_PROB:
        outcome = 1
    elif p1 < ZERO_PROB:
        outcome = 0
    else:
        outcome = 1 if rng.random() >= p0 else 0
    prob = p1 if outcome == 1 else p0
    post = np.where(mask == outcome, amps, 0.0)
    post = post / np.sqrt(prob)
    return outcome, prob, post


def apply_circuit(circuit: Circuit, initial: StateVector | None = None, seed: int = 0,
                  rng: np.random.Generator | None = None,
                  ) -> tuple[StateVector, list[MeasurementRecord]]:
    """Run a circuit, returning the final state and MEASURE records in order.

    Unitary instructions apply in sequence; MEASURE samples with the seeded
    PCG64 generator (pass `rng` to share a stream across runs); RESET
    re-initializes its qubit to |0> by measurement and leaves no record.
    """
    if initial is None:
        initial = basis_state(circuit.num_qubits, 0)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {initial.num_qubits} qubit(s), circuit has {circuit.num_qubits}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))

    n = circuit.num_qubits
    amps = np.array(initial.amplitudes, dtype=complex)
    records: list[MeasurementRecord] = []
    for inst in circuit.instructions:
        if inst.gate == "MEASURE":
            q = inst.qubits[0]
            outcome, prob, amps = _measure_bit(amps, q, rng)
            records.append(MeasurementRecord(outcome, prob, StateVector(amps), qubit=q))
        elif inst.gate == "RESET":
            q = inst.qubits[0]
            outcome, _, amps = _measure_bit(amps, q, rng)
            if outcome == 1:
                amps = apply_gate(amps, gates.X, [q], n)
        else:
            matrix = gates.gate_matrix(inst.gate, inst.angle)
            amps = apply_gate(amps, matrix, inst.qubits, n)
    return StateVector(amps), records


def sample_counts(circuit: Circuit, shots: int,
                  rng: np.random.Generator) -> dict[str, int]:
    """Histogram of MEASURE record strings (bits in MEASURE order) over `shots` runs.

    When the MEASUREs form a terminal suffix (no gate or RESET after the
    first MEASURE), the gate prefix is simulated once and every shot is drawn
    from one multinomial over the measured qubits' marginal: O(2^n) work
    whatever `shots` is. Otherwise the whole circuit is re-run per shot.
    """
    instructions = circuit.instructions
    first = next((i for i, inst in enumerate(instructions) if inst.gate == "MEASURE"),
                 len(instructions))
    suffix = instructions[first:]
    if any(inst.gate != "MEASURE" for inst in suffix):
        counts: dict[str, int] = {}
        for _ in range(shots):
            _, records = apply_circuit(circuit, rng=rng)
            bits = "".join(str(r.outcome_index) for r in records)
            counts[bits] = counts.get(bits, 0) + 1
        return counts

    n = circuit.num_qubits
    state, _ = apply_circuit(Circuit(n, instructions[:first]))
    measured = sorted({inst.qubits[0] for inst in suffix})
    # Axis a of the (2,)*n view holds qubit n-1-a; bring the measured qubits
    # to the front in `measured` order and sum out the rest.
    front = [n - 1 - q for q in measured]
    rest = [a for a in range(n) if a not in front]
    probs = state.probabilities().reshape((2,) * n).transpose(front + rest)
    marginal = probs.reshape(2 ** len(measured), -1).sum(axis=1)
    cells = np.flatnonzero(marginal >= ZERO_PROB)
    p = marginal[cells]
    drawn = rng.multinomial(shots, p / p.sum())
    # Cell index bit len(measured)-1-j holds the outcome of measured[j].
    shift = {q: len(measured) - 1 - j for j, q in enumerate(measured)}
    order = [shift[inst.qubits[0]] for inst in suffix]
    return {"".join(str((int(cell) >> s) & 1) for s in order): int(count)
            for cell, count in zip(cells, drawn) if count}


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    Each gate is contracted into the identity by ``apply_gate``, whose
    column axis is a batch: O(4^n) work per gate, no 2^n x 2^n operator
    built or multiplied.
    """
    n = circuit.num_qubits
    full = np.eye(2 ** n, dtype=complex)
    for inst in circuit.instructions:
        if inst.gate in gates.MARKERS:
            raise ValueError(f"{inst.gate} has no unitary representation")
        matrix = gates.gate_matrix(inst.gate, inst.angle)
        if not is_unitary(matrix):
            raise ValueError("gate matrix is not unitary")
        full = apply_gate(full, matrix, inst.qubits, n)
    return full


def expectation(state: StateVector, operator: np.ndarray) -> float:
    """<psi|A|psi> for a Hermitian operator A."""
    op = np.asarray(operator, dtype=complex)
    dim = state.amplitudes.size
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match state dimension {dim}")
    if np.max(np.abs(op - op.conj().T)) > 1e-10:
        raise ValueError("operator is not Hermitian")
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))

"""Dense state-vector execution of circuits.

``apply_gate`` is the one kernel that applies a gate: it transposes the
target qubits' axes of the reshaped amplitude array to the front and
multiplies them by the gate in one matrix product. ``_fused`` is the one
gate fusion: runs of gates within two qubits become one 4x4 block, and
``apply_circuit``, the ``sample_counts`` walk and ``circuit_unitary`` (the
identity's columns as a batch) all apply its blocks with ``apply_gate``.
``embed_gate`` is the same kernel applied to the identity: it checks one gate
and returns its explicit 2^n-dimensional operator, for the callers that want
a dense matrix (the test oracles). Gate matrices are unitary by construction
(a read-only table, finite angles) and are not re-checked.
``pick`` draws every single measurement outcome, here and in ``measure`` and
``mbqc``. MEASURE draws a computational basis outcome for one qubit and
collapses the state, reading and zeroing the qubit's halves through the
strided view ``amps.reshape(-1, 2, 2**q)``; RESET performs
initialization-by-measurement to |0> (a measurement whose every branch leaves
the qubit in |0>).

``sample_counts`` histograms many shots by shot branching: one depth-first
walk carries a branch and its shot count, splits the count with one
binomial draw at each MEASURE or RESET, and draws each branch's trailing
MEASUREs from one multinomial. A circuit whose MEASUREs are all terminal is
the walk with no split: one simulation and one multinomial. A pending
sibling that did not fit in MAX_PENDING_BYTES is rebuilt by the same walk
from |0...0> with its outcomes forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .circuit import Circuit, Instruction
from .linalg import is_hermitian, is_unitary
from .state import StateVector, basis_state

ZERO_PROB = 1e-14

# Widest register `aqm simulate` accepts: 2**24 complex128 amplitudes are 256 MiB.
MAX_SIM_QUBITS = 24

# Amplitude bytes that sample_counts keeps in pending sibling branches: one
# MAX_SIM_QUBITS register. Past it, a sibling is rebuilt by replay instead.
MAX_PENDING_BYTES = 2 ** MAX_SIM_QUBITS * 16


@dataclass(frozen=True)
class MeasurementRecord:
    """One sampled measurement outcome and the state it left behind."""

    outcome_index: int
    probability: float
    post_state: StateVector
    qubit: int | None = None


def generator(seed: int, rng: np.random.Generator | None) -> np.random.Generator:
    """`rng`, or a fresh PCG64 generator seeded with `seed` when it is None."""
    return np.random.Generator(np.random.PCG64(seed)) if rng is None else rng


def pick(probs, rng: np.random.Generator) -> int:
    """Draw an outcome index with probability `probs[k]` from one ``rng.random()``.

    Outcomes below ZERO_PROB (and NaN ones) are never drawn; when no outcome
    is live, a ValueError says so. The draw is scaled to the live
    probability mass and walked along its cumulative sum, so on two live
    outcomes (p, 1 - p) it picks outcome 1 exactly when the draw is >= p.
    The work is on Python floats. The live mass is the float ``np.sum``
    gives: one or two terms add left to right, as Python's ``+`` does, but
    from three terms on numpy's pairwise reduction does not, so it is kept
    (called as ``np.add.reduce``, the reduction ``np.sum`` runs, without
    ``np.sum``'s Python wrapper).
    """
    probs = [float(p) for p in probs]
    live = [k for k, p in enumerate(probs) if p >= ZERO_PROB]
    if not live:
        raise ValueError(f"no outcome has probability >= {ZERO_PROB:g}: "
                         f"the probabilities are zero, negligible or NaN")
    if len(live) == 1:
        total = probs[live[0]]
    elif len(live) == 2:
        total = probs[live[0]] + probs[live[1]]
    else:
        total = float(np.add.reduce([probs[k] for k in live]))
    r = rng.random() * total
    cumulative = 0.0
    for k in live:
        cumulative += probs[k]
        if r < cumulative:
            return k
    return live[-1]


def embed_gate(gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Dense 2^n operator acting as `gate` on `targets`, identity elsewhere.

    Gate-local qubit j maps to circuit qubit targets[j] (little-endian on
    both sides). The operator is ``apply_gate`` on the identity's columns,
    as in ``circuit_unitary``.
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
    return apply_gate(np.eye(2 ** num_qubits, dtype=complex), gate, targets, num_qubits)


def apply_gate(amps: np.ndarray, gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Apply a 2^k gate to the amplitude array without building the full matrix.

    `amps` has shape (2^n,) or (2^n, *batch): trailing axes are a batch, so
    one call applies the gate to every column of a (2^n, m) block. Gate-local
    qubit j acts on targets[j]. The result is a new C-contiguous array of
    `amps`'s shape.

    One transpose and one matrix product: axis a of the (2,)*n + batch view
    holds qubit n-1-a, so the target axes go to the front (targets[0] most
    significant), the view becomes a (2^k, rest) matrix, the gate multiplies
    it, and the product is transposed back.
    """
    front = []
    for t in targets:
        # A negative axis would silently land on another qubit or a batch axis.
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubit(s)")
        front.append(num_qubits - 1 - t)
    k = len(front)
    gate = np.asarray(gate, dtype=complex)
    if k > 1:
        # Order the input bits like the view's rows (gate qubit 0 most
        # significant). Each output then sums its products in the order
        # np.tensordot does, which the tests hold as the bit-identity reference.
        gate = gate.reshape((2,) * (2 * k)).transpose(
            [*range(k), *range(2 * k - 1, k - 1, -1)]).reshape(2 ** k, 2 ** k)
    tensor = amps.reshape((2,) * num_qubits + amps.shape[1:])
    rest = [a for a in range(tensor.ndim) if a not in front]
    # The transposed copy is left unnamed, so it is freed before the copy back
    # is made. Every qubit axis has length 2, so the product has the tensor's
    # shape; its first k axes are the gate's output bits, gate qubit k-1 first.
    out = (gate @ tensor.transpose(front + rest).reshape(2 ** k, -1)).reshape(tensor.shape)
    back = [0] * tensor.ndim
    for i, a in enumerate(front[::-1] + rest):
        back[a] = i
    return out.transpose(back).reshape(amps.shape)


def _one_probability(amps: np.ndarray, qubit: int) -> float:
    """The probability that `qubit` reads 1: the squared norm of its bit-1 half."""
    return float(np.sum(np.abs(amps.reshape(-1, 2, 2 ** qubit)[:, 1, :]) ** 2))


def _collapse(amps: np.ndarray, qubit: int, outcome: int, prob: float) -> np.ndarray:
    """Project onto the basis states where `qubit` reads `outcome`, renormalized."""
    post = amps / np.sqrt(prob)
    post.reshape(-1, 2, 2 ** qubit)[:, 1 - outcome, :] = 0.0
    return post


def apply_circuit(circuit: Circuit, initial: StateVector | None = None, seed: int = 0,
                  rng: np.random.Generator | None = None,
                  ) -> tuple[StateVector, list[MeasurementRecord]]:
    """Run a circuit, returning the final state and MEASURE records in order.

    Gates apply as the blocks of ``_fused``; MEASURE and RESET each draw one
    outcome with ``pick`` from the seeded PCG64 generator (pass `rng` to
    share a stream across runs); RESET re-initializes its qubit to |0> by
    measurement and leaves no record.
    """
    if initial is None:
        initial = basis_state(circuit.num_qubits, 0)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {initial.num_qubits} qubit(s), circuit has {circuit.num_qubits}")
    rng = generator(seed, rng)

    n = circuit.num_qubits
    amps = initial.amplitudes
    records: list[MeasurementRecord] = []
    for step in _fused(circuit.instructions):
        if not isinstance(step, Instruction):
            amps = apply_gate(amps, *step, n)
            continue
        p1 = _one_probability(amps, step.qubits[0])
        probs = (1.0 - p1, p1)
        outcome = pick(probs, rng)
        branch = _branch(amps, outcome, probs[outcome], step, n)
        amps = branch.amplitudes
        if step.gate == "MEASURE":
            records.append(MeasurementRecord(outcome, probs[outcome], branch,
                                             qubit=step.qubits[0]))
    # `amps` is a fresh kernel result or an array a StateVector already holds read-only.
    return StateVector._owned(amps), records


def _branch(amps: np.ndarray, outcome: int, prob: float, inst: Instruction,
            num_qubits: int) -> StateVector:
    """The branch of MEASURE or RESET `inst` that read `outcome` (probability `prob`).

    RESET flips an outcome-1 branch to |0>. The fresh branch is wrapped by
    ``StateVector._owned`` without a copy, so a non-finite or unnormalized
    one still raises.
    """
    amps = _collapse(amps, inst.qubits[0], outcome, prob)
    if inst.gate == "RESET" and outcome == 1:
        amps = apply_gate(amps, gates.X, inst.qubits, num_qubits)
    return StateVector._owned(amps)


def _draw_suffix(state: StateVector, suffix: list[Instruction], shots: int,
                 rng: np.random.Generator) -> dict[str, int]:
    """Record strings of a MEASURE-only `suffix` over `shots` runs from `state`.

    One multinomial over the measured qubits' marginal draws every shot.
    """
    n = state.num_qubits
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


def sample_counts(circuit: Circuit, shots: int,
                  rng: np.random.Generator) -> dict[str, int]:
    """Histogram of MEASURE record strings (bits in MEASURE order) over `shots` runs.

    Shot branching: a depth-first walk carries one branch and its shot count
    k. At a MEASURE or RESET, one ``rng.binomial(k, p1)`` splits k between
    the two outcomes (an outcome below ZERO_PROB gets no shots); outcome 0
    goes on and outcome 1 waits on a stack, so at most one sibling is
    pending per split level. Once only MEASUREs remain, the branch's shots
    come from one multinomial over their marginal. A terminal-MEASURE circuit
    never splits: one simulation, one multinomial. There are never more
    branches than shots, so no more blocks are applied than by re-running the
    circuit per shot.

    Pending siblings hold at most MAX_PENDING_BYTES of amplitudes; past that,
    a sibling is kept as its outcome list alone. The walk rebuilds it from
    |0...0> with those outcomes forced, drawing nothing until they run out,
    so the histogram is the same either way.
    """
    instructions = circuit.instructions
    n = circuit.num_qubits
    leaf = max((i + 1 for i, inst in enumerate(instructions) if inst.gate != "MEASURE"),
               default=0)
    suffix = instructions[leaf:]
    steps = list(_fused(instructions[:leaf]))
    # Which MEASURE/RESET outcomes before `leaf` write a record bit.
    recorded = [step.gate == "MEASURE" for step in steps if isinstance(step, Instruction)]
    counts: dict[str, int] = {}
    pending_bytes = 0
    # (next step, shots, outcomes so far, amplitudes or None to replay)
    stack: list[tuple[int, int, tuple[int, ...], np.ndarray | None]] = [(0, shots, (), None)]
    while stack:
        start, k, forced, amps = stack.pop()
        outcomes = forced
        if amps is None:
            # Replay: walk again from the start, taking the forced outcomes.
            start, outcomes, amps = 0, (), basis_state(n, 0).amplitudes
        else:
            pending_bytes -= amps.nbytes
        for i in range(start, len(steps)):
            step = steps[i]
            if not isinstance(step, Instruction):
                amps = apply_gate(amps, *step, n)
                continue
            p1 = _one_probability(amps, step.qubits[0])
            p0 = 1.0 - p1
            if len(outcomes) < len(forced):
                ones = k * forced[len(outcomes)]
            else:
                ones = k if p0 < ZERO_PROB else 0 if p1 < ZERO_PROB else int(rng.binomial(k, p1))
            if 0 < ones < k:
                sibling = None
                if pending_bytes + amps.nbytes <= MAX_PENDING_BYTES:
                    sibling = _branch(amps, 1, p1, step, n).amplitudes
                    pending_bytes += sibling.nbytes
                stack.append((i + 1, ones, outcomes + (1,), sibling))
                k, outcome = k - ones, 0
            else:
                outcome = 1 if ones else 0
            amps = _branch(amps, outcome, p1 if outcome else p0, step, n).amplitudes
            outcomes += (outcome,)
        record = "".join(str(bit) for bit, kept in zip(outcomes, recorded) if kept)
        for bits, count in _draw_suffix(StateVector(amps), suffix, k, rng).items():
            counts[record + bits] = counts.get(record + bits, 0) + count
    return counts


def _fold(block: np.ndarray, held: tuple[int, ...], matrix: np.ndarray,
          qubits: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """`matrix` on `qubits` times the open `block` on `held`: the new (block, held).

    Block-local qubit j acts on held[j], little-endian like a gate matrix.
    """
    if len(held) == 1 and qubits != held:
        # Widen to two qubits: the old block on bit 0, identity on bit 1.
        wide = np.zeros((2, 2, 2, 2), dtype=complex)
        wide[0, :, 0, :] = block
        wide[1, :, 1, :] = block
        block = wide.reshape(4, 4)
        held = (held[0], *(q for q in qubits if q != held[0]))
    if qubits == held:
        return matrix @ block, held
    if len(qubits) == 2:
        # Reversed operands: swap the gate's two bits on both sides.
        return matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4) @ block, held
    if qubits[0] == held[0]:
        # Rows run (bit 1, bit 0): act on bit 0 within each bit-1 half.
        return np.matmul(matrix, block.reshape(2, 2, 4)).reshape(4, 4), held
    return (matrix @ block.reshape(2, 8)).reshape(4, 4), held


def _fused(instructions: list[Instruction]):
    """The one gate fusion: `instructions` as blocks of at most two qubits.

    Yields ``(matrix, qubits)`` in circuit order. A gate within the open
    block's qubits is folded into it by ``_fold``; a gate that leaves them, a
    CCX (a block of its own) and a MEASURE or RESET (yielded as the
    ``Instruction``) close it. ``apply_gate`` checks each block's targets.
    Fused results match a gate-by-gate run to rounding, not bit for bit.
    """
    block, held = None, ()
    for inst in instructions:
        qubits = inst.qubits
        marker = inst.gate in gates.MARKERS
        if block is not None and (marker or len(set(held).union(qubits)) > 2):
            yield block, held
            block = None
        if marker:
            yield inst
            continue
        matrix = gates.gate_matrix(inst.gate, inst.angle)
        if len(qubits) > 2:
            yield matrix, qubits
        elif block is None:
            block, held = matrix, qubits
        else:
            block, held = _fold(block, held, matrix, qubits)
    if block is not None:
        yield block, held


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    Each ``_fused`` block is contracted into the identity by ``apply_gate``,
    its columns a batch (O(4^n) work per block, no 2^n x 2^n operator built).
    """
    n = circuit.num_qubits
    full = np.eye(2 ** n, dtype=complex)
    for step in _fused(circuit.instructions):
        if isinstance(step, Instruction):
            raise ValueError(f"{step.gate} has no unitary representation")
        full = apply_gate(full, *step, n)
    return full


def expectation(state: StateVector, operator: np.ndarray) -> float:
    """<psi|A|psi> for a Hermitian operator A."""
    op = np.asarray(operator, dtype=complex)
    dim = state.amplitudes.size
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match state dimension {dim}")
    if not is_hermitian(op):
        raise ValueError("operator is not Hermitian")
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))

"""Independent reference implementations used to check the package.

These deliberately take different computational routes from the library:
dense Kronecker products with explicit permutation matrices instead of
index-scatter embedding or tensor contraction, exhaustive path enumeration
instead of BFS, closed-form binomials instead of probability propagation,
every measurement branch enumerated instead of shots sampled, one 2x2
product at a time instead of one array operation per search level, one
single-qubit mixer pass per spin instead of two Hamming-distance block
products per annealing step, the whole MBQC graph state built before the
first measurement instead of each node entering as it goes live, and each
MBQC outcome's bra contracted alone by tensordot instead of both bras in one
``apply_gate``.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from aqmkit import gates
from aqmkit.annealing import AnnealResult, AnnealSchedule, IsingProblem, anneal_success
from aqmkit.circuit import Circuit
from aqmkit.graphs import ConnectivityGraph
from aqmkit.mbqc import MbqcResult, MeasurementPattern, _entangle, _relabel
from aqmkit.simulate import apply_gate, generator, pick
from aqmkit.state import StateVector, plus_state


def kron_embed(gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Dense Kronecker construction: gate on low qubits, then permute."""
    targets = list(targets)
    k = len(targets)
    rest = [q for q in range(num_qubits) if q not in set(targets)]
    low = np.kron(np.eye(2 ** (num_qubits - k), dtype=complex), np.asarray(gate, complex))
    dim = 2 ** num_qubits
    perm = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        phys = 0
        for j in range(k):
            phys |= ((i >> j) & 1) << targets[j]
        for m, q in enumerate(rest):
            phys |= ((i >> (k + m)) & 1) << q
        perm[phys, i] = 1.0
    return perm @ low @ perm.conj().T


def oracle_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Matrix-chain product over kron_embed."""
    full = np.eye(2 ** circuit.num_qubits, dtype=complex)
    for inst in circuit.instructions:
        matrix = gates.gate_matrix(inst.gate, inst.angle)
        full = kron_embed(matrix, inst.qubits, circuit.num_qubits) @ full
    return full


def oracle_record_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact distribution of the MEASURE record string, by branch enumeration.

    Gates are applied with ``kron_embed``; a MEASURE or RESET splits every
    branch into its two computational outcomes, and RESET flips the
    outcome-1 branch back to |0>.
    """
    n = circuit.num_qubits
    index = np.arange(2 ** n)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    branches = [("", state)]  # (record so far, unnormalised amplitudes)
    for inst in circuit.instructions:
        q = inst.qubits[0]
        if inst.gate in ("MEASURE", "RESET"):
            split = []
            for record, amps in branches:
                for bit in (0, 1):
                    part = np.where(((index >> q) & 1) == bit, amps, 0.0)
                    if np.vdot(part, part).real < 1e-20:
                        continue
                    if inst.gate == "MEASURE":
                        split.append((record + str(bit), part))
                    else:
                        flipped = kron_embed(gates.X, [q], n) @ part if bit else part
                        split.append((record, flipped))
            branches = split
        else:
            op = kron_embed(gates.gate_matrix(inst.gate, inst.angle), inst.qubits, n)
            branches = [(record, op @ amps) for record, amps in branches]
    probs: dict[str, float] = {}
    for record, amps in branches:
        probs[record] = probs.get(record, 0.0) + float(np.vdot(amps, amps).real)
    return probs


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    amps = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return amps / np.linalg.norm(amps)


_ONE_QUBIT = ("H", "T", "TDG", "S", "SDG", "X", "Y", "Z")
_TWO_QUBIT = ("CNOT", "CZ", "SWAP")
_ROTATIONS = ("RX", "RY", "RZ")


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int,
                   two_qubit_only: bool = False, rotations: bool = True) -> Circuit:
    """Random unitary-only circuit over the full alphabet."""
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        roll = rng.random()
        if num_qubits >= 2 and (two_qubit_only or roll < 0.45):
            gate = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.add(gate, int(a), int(b))
        elif rotations and roll < 0.65:
            gate = _ROTATIONS[rng.integers(len(_ROTATIONS))]
            circuit.add(gate, int(rng.integers(num_qubits)),
                        angle=float(rng.uniform(-np.pi, np.pi)))
        else:
            gate = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]
            circuit.add(gate, int(rng.integers(num_qubits)))
    return circuit


def random_measurement_set(rng: np.random.Generator, num_qubits: int,
                           num_outcomes: int) -> list[np.ndarray]:
    """Random complete operator set via A_k S^{-1/2} normalization."""
    dim = 2 ** num_qubits
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for _ in range(num_outcomes)]
    total = sum(a.conj().T @ a for a in raw)
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return [a @ inv_sqrt for a in raw]


def connected_graphs(num_nodes: int) -> list[ConnectivityGraph]:
    """All connected labeled graphs on num_nodes nodes."""
    if num_nodes == 1:
        return [ConnectivityGraph.from_edges(1, [])]
    possible = list(combinations(range(num_nodes), 2))
    graphs = []
    for bits in product((0, 1), repeat=len(possible)):
        edges = [edge for edge, bit in zip(possible, bits) if bit]
        graph = ConnectivityGraph.from_edges(num_nodes, edges)
        if graph.is_connected():
            graphs.append(graph)
    return graphs


def all_simple_paths(graph: ConnectivityGraph, a: int, b: int) -> list[list[int]]:
    """Exhaustive DFS enumeration of simple paths (small graphs only)."""
    paths = []

    def extend(path):
        node = path[-1]
        if node == b:
            paths.append(list(path))
            return
        for nb in graph.neighbors(node):
            if nb not in path:
                path.append(nb)
                extend(path)
                path.pop()

    extend([a])
    return paths


def oracle_place_inputs(input_amps: np.ndarray, inputs, num_qubits: int) -> np.ndarray:
    """Register with input qubit j on qubit inputs[j] and |+> elsewhere, index by index."""
    scale = 2.0 ** (-(num_qubits - len(inputs)) / 2)
    amps = np.empty(2 ** num_qubits, dtype=complex)
    for index in range(2 ** num_qubits):
        local = 0
        for j, pos in enumerate(inputs):
            local |= ((index >> pos) & 1) << j
        amps[index] = input_amps[local] * scale
    return amps


def oracle_reorder(amps: np.ndarray, live, outputs) -> np.ndarray:
    """Relabel a register holding qubits `live` (in order) so qubit j is outputs[j]."""
    position = {q: i for i, q in enumerate(live)}
    reordered = np.empty(amps.size, dtype=complex)
    for index in range(amps.size):
        target = 0
        for j, q in enumerate(outputs):
            target |= ((index >> position[q]) & 1) << j
        reordered[target] = amps[index]
    return reordered


def binomial_walk_distribution(steps: int) -> dict[int, float]:
    """Closed-form symmetric +/-1 random walk distribution after `steps`."""
    return {2 * k - steps: math.comb(steps, k) / 2 ** steps for k in range(steps + 1)}


def oracle_word_enumeration(alphabet, depth: int):
    """Phase-distinct words over `alphabet` up to `depth`, one scalar product at a time.

    Words come in (length, lexicographic) order; a word whose unitary agrees
    up to global phase with an earlier one is dropped. Returns the words and
    their unitaries as two parallel lists.
    """
    def key(u):
        flat = u.reshape(-1)
        pivot = flat[int(np.argmax(np.abs(flat)))]
        phase = pivot / abs(pivot)
        return np.round(u * np.conj(phase), 12).tobytes()

    words = [()]
    matrices = [np.eye(2, dtype=complex)]
    seen = {key(matrices[0])}
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for index in frontier:
            for name in alphabet:
                # Appending a gate to the word left-multiplies the matrix.
                candidate = gates.FIXED_GATES[name] @ matrices[index]
                candidate_key = key(candidate)
                if candidate_key in seen:
                    continue
                seen.add(candidate_key)
                next_frontier.append(len(words))
                words.append(words[index] + (name,))
                matrices.append(candidate)
        frontier = next_frontier
    return words, matrices


def _flip(tensor: np.ndarray, axis: int) -> np.ndarray:
    """X on one qubit of the (2,)*n view of a state: np.flip as a plain slice view."""
    return tensor[(slice(None),) * axis + (slice(None, None, -1),)]


def _apply_mixer(tensor: np.ndarray, angle: float) -> np.ndarray:
    """prod_i exp(i angle X_i) on the (2,)*n view of a state: one pass per qubit."""
    cos, isin = np.cos(angle), 1j * np.sin(angle)
    for axis in range(tensor.ndim):
        tensor = cos * tensor + isin * _flip(tensor, axis)
    return tensor


def _energy(tensor: np.ndarray, diagonal: np.ndarray, lam0: float, lam1: float) -> float:
    """<psi| lam0 H0 + lam1 H1 |psi> with H0 = -sum_i X_i, without forming H."""
    mixer = sum(np.vdot(tensor, _flip(tensor, axis)).real for axis in range(tensor.ndim))
    cost = np.dot(np.abs(tensor.reshape(-1)) ** 2, diagonal)
    return float(-lam0 * mixer + lam1 * cost)


def _schedule_values(schedule: AnnealSchedule, t: float) -> tuple[float, float]:
    """(lam0, lam1) at time t; the quench (t_final = 0) stays on the mixer."""
    if schedule.t_final == 0:
        return 1.0, 0.0
    lam0, lam1 = schedule.lambda0(t), schedule.lambda1(t)
    if not (np.isfinite(lam0) and np.isfinite(lam1)):
        raise ValueError("schedule values must be finite")
    return lam0, lam1


def oracle_strang_anneal(problem: IsingProblem, schedule: AnnealSchedule) -> AnnealResult:
    """The per-axis Strang loop: one flip-and-add pass per spin for the mixer.

    The energy trace records <H(t)> at t = 0 and at t = (k + 1) dt after
    every step, so its last time is t_final only up to rounding.
    """
    n = problem.num_spins
    diagonal = problem.cost_diagonal()
    tensor = np.array(plus_state(n).amplitudes).reshape((2,) * n)
    times = [0.0]
    energies = [_energy(tensor, diagonal, *_schedule_values(schedule, 0.0))]
    max_norm_drift = 0.0
    if schedule.t_final > 0:
        dt = schedule.t_final / schedule.num_steps
        for k in range(schedule.num_steps):
            lam0, lam1 = _schedule_values(schedule, (k + 0.5) * dt)
            half_cost = np.exp(-0.5j * lam1 * dt * diagonal).reshape(tensor.shape)
            tensor = half_cost * _apply_mixer(half_cost * tensor, lam0 * dt)
            norm = np.linalg.norm(tensor)
            max_norm_drift = max(max_norm_drift, abs(norm - 1.0))
            tensor = tensor / norm
            t_next = (k + 1) * dt
            times.append(t_next)
            energies.append(_energy(tensor, diagonal, *_schedule_values(schedule, t_next)))
    state = StateVector(tensor.reshape(-1))
    return AnnealResult(state, np.array(times), np.array(energies),
                        anneal_success(state, problem), max_norm_drift)


def _initial_register(pattern: MeasurementPattern,
                      input_state: StateVector | None) -> np.ndarray:
    n = pattern.graph.num_qubits
    if input_state is None:
        return np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    if input_state.num_qubits != len(pattern.inputs):
        raise ValueError(
            f"input state has {input_state.num_qubits} qubit(s); pattern declares "
            f"{len(pattern.inputs)} input(s)")
    # Input qubit j rides on pattern qubit inputs[j]; all others start in |+>:
    # tile the inputs as the low qubits, then relabel.
    free = n - len(pattern.inputs)
    low_inputs = np.tile(input_state.amplitudes * 2.0 ** (-free / 2), 2 ** free)
    sources = list(pattern.inputs) + [q for q in range(n) if q not in pattern.inputs]
    return _relabel(low_inputs, [sources.index(q) for q in range(n)])


def _project_out(amps: np.ndarray, axis_qubits: list[int], qubit: int,
                 basis_vector: np.ndarray) -> tuple[float, np.ndarray]:
    """Overlap-project one qubit onto basis_vector and drop it from the register."""
    m = len(axis_qubits)
    tensor = amps.reshape((2,) * m)
    axis = m - 1 - axis_qubits.index(qubit)
    projected = np.tensordot(np.conj(basis_vector), tensor, axes=(0, axis)).reshape(-1)
    prob = float(np.real(np.vdot(projected, projected)))
    return prob, projected


def oracle_mbqc_execute(pattern: MeasurementPattern, input_state: StateVector | None = None,
                        seed: int = 0, rng: np.random.Generator | None = None,
                        forced_outcomes=None) -> MbqcResult:
    """Entangle the whole graph, measure in order with adaptive signs, correct byproducts.

    `forced_outcomes` fixes the outcome sequence (for branch enumeration in
    tests); otherwise outcomes are sampled with the seeded generator. The
    register holds every node from the start, as `mbqc_execute` did before it
    kept only the live ones.
    """
    rng = generator(seed, rng)
    n = pattern.graph.num_qubits
    amps = _initial_register(pattern, input_state)
    _entangle(amps, pattern.graph.edges, n)

    live = list(range(n))  # little-endian register order of surviving qubits
    outcomes: dict[int, int] = {}
    for index, step in enumerate(pattern.steps):
        sign = (-1) ** sum(outcomes[d] for d in step.sign_deps)
        theta = sign * step.angle
        phase = np.exp(1j * theta)
        plus = np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)
        minus = np.array([1.0, -phase], dtype=complex) / np.sqrt(2.0)
        p_plus, projected_plus = _project_out(amps, live, step.qubit, plus)
        if forced_outcomes is not None:
            outcome = int(forced_outcomes[index])
        else:
            outcome = pick((p_plus, 1.0 - p_plus), rng)
        if outcome == 0:
            prob, projected = p_plus, projected_plus
        else:
            prob, projected = _project_out(amps, live, step.qubit, minus)
        if prob < 1e-12:
            raise ValueError(
                f"outcome {outcome} on qubit {step.qubit} has probability ~0")
        amps = projected / np.sqrt(prob)
        live.remove(step.qubit)
        outcomes[step.qubit] = outcome

    # Reorder the surviving register so qubit j of the result is outputs[j].
    k = len(pattern.outputs)
    reordered = _relabel(amps, [live.index(q) for q in pattern.outputs])

    powers = {q: [0, 0] for q in pattern.outputs}
    for rule in pattern.byproducts:
        parity = sum(outcomes[d] for d in rule.deps) % 2
        powers[rule.qubit][0 if rule.kind == "X" else 1] ^= parity
    for j, q in enumerate(pattern.outputs):
        x_power, z_power = powers[q]
        if x_power:
            reordered = apply_gate(reordered, gates.X, [j], k)
        if z_power:
            reordered = apply_gate(reordered, gates.Z, [j], k)

    return MbqcResult(StateVector(reordered), outcomes,
                      {q: (p[0], p[1]) for q, p in powers.items()})

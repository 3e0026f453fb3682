"""State construction, gate embedding, and circuit execution semantics."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqmkit as aq
from aqmkit import gates, simulate
from aqmkit.annealing import IsingProblem, build_annealing_hamiltonian
from aqmkit.linalg import is_unitary
from aqmkit.simulate import apply_gate
from oracles import haar_unitary, kron_embed, oracle_circuit_unitary, random_circuit, \
    random_state


class TestStates:
    def test_basis_single(self):
        assert np.allclose(aq.basis_state(1, 0).amplitudes, [1, 0])

    def test_basis_two_qubit(self):
        assert np.allclose(aq.basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_basis_position_five_of_eight(self):
        state = aq.basis_state(3, 5)
        assert state.amplitudes[5] == 1 and np.sum(np.abs(state.amplitudes)) == 1

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError):
            aq.basis_state(2, 4)

    def test_not_normalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            aq.StateVector(np.array([1.0, 1.0]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            aq.StateVector(np.array([1.0, 0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            aq.StateVector(np.array([np.nan, 0.0]))

    def test_array_holding_types_compare_by_identity(self):
        projectors = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        makers = [
            lambda: aq.plus_state(1),
            lambda: aq.MeasurementOperatorSet(1, projectors),
            lambda: aq.synthesize_measurement(aq.MeasurementOperatorSet(1, projectors)),
            lambda: aq.ApproximationRequest(gates.H, ("H", "T"), 0.1, 2),
            lambda: aq.WalkSpec(2),
            lambda: aq.anneal(aq.IsingProblem(1, (-1.0,)), aq.AnnealSchedule(0.0, 1)),
        ]
        for make in makers:
            first, twin = make(), make()
            assert (first == first) is True and (first == twin) is False
            assert hash(first) != hash(twin)

    def test_tensor_zero_zero(self):
        joint = aq.tensor_product(aq.basis_state(1, 0), aq.basis_state(1, 0))
        assert np.allclose(joint.amplitudes, [1, 0, 0, 0])

    def test_tensor_plus_one(self):
        joint = aq.tensor_product(aq.plus_state(1), aq.basis_state(1, 1))
        assert np.allclose(joint.amplitudes, np.array([0, 1, 0, 1]) / np.sqrt(2))

    def test_tensor_dimension_arithmetic(self):
        rng = np.random.default_rng(0)
        a = aq.StateVector(random_state(rng, 2))
        b = aq.StateVector(random_state(rng, 1))
        joint = aq.tensor_product(a, b)
        assert joint.num_qubits == 3
        assert abs(np.linalg.norm(joint.amplitudes) - 1) < 1e-10


class TestEmbedGate:
    def test_x_on_qubit0(self):
        full = aq.embed_gate(gates.X, [0], 2)
        assert np.allclose(full @ aq.basis_state(2, 0).amplitudes,
                           aq.basis_state(2, 1).amplitudes)

    def test_cnot_control_sets_target(self):
        full = aq.embed_gate(gates.CNOT, [0, 1], 2)
        assert np.allclose(full @ aq.basis_state(2, 1).amplitudes,
                           aq.basis_state(2, 3).amplitudes)

    def test_random_two_qubit_vs_kron_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            gate = haar_unitary(rng, 4)
            targets = list(rng.choice(3, size=2, replace=False))
            mine = aq.embed_gate(gate, targets, 3)
            reference = kron_embed(gate, targets, 3)
            assert np.max(np.abs(mine - reference)) < 1e-12

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = aq.embed_gate(haar_unitary(rng), [0], 4)
            b = aq.embed_gate(haar_unitary(rng, 4), [2, 3], 4)
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            aq.embed_gate(gates.X, [0, 1], 2)

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            aq.embed_gate(gates.CNOT, [1, 1], 2)

    # Each case also breaks every later check, so the message shows which
    # check runs first: shape, duplicate targets, range, then unitarity.
    @pytest.mark.parametrize("gate, targets, message", [
        (np.ones((2, 2)), [5, 5, -1], "gate shape (2, 2) does not match 3 target(s)"),
        (np.ones((4, 4)), [5, 5], "duplicate targets: [5, 5]"),
        (np.ones((2, 2)), [2], "target 2 out of range for 2 qubit(s)"),
        (np.ones((4, 4)), [0, -1], "target -1 out of range for 2 qubit(s)"),
        (np.ones((2, 2)), [1], "gate matrix is not unitary"),
    ])
    def test_error_messages_in_order(self, gate, targets, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aq.embed_gate(gate, targets, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_scatter_and_kron_oracle(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        k = data.draw(st.integers(1, min(n, 3)), label="k")
        targets = data.draw(st.permutations(range(n)), label="order")[:k]
        table = [g for g in gates.FIXED_GATES.values() if g.shape == (2 ** k, 2 ** k)]
        if data.draw(st.booleans(), label="table gate"):
            gate = data.draw(st.sampled_from(table), label="gate")
        else:
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            gate = haar_unitary(np.random.default_rng(seed), 2 ** k)
        mine = aq.embed_gate(gate, targets, n)
        # Byte for byte once every zero is +0.0: the scatter copies a gate's
        # -0.0 entries (Y, SDG, TDG) where the product sums to +0.0, and at
        # n = 1 the product gives Z a -0.0 where the scatter has +0.0.
        assert (mine + 0.0).tobytes() == (_scatter_embed_gate(gate, targets, n) + 0.0).tobytes()
        assert np.max(np.abs(mine - kron_embed(gate, targets, n))) < 1e-12


def _spread(value: int, positions) -> int:
    """Scatter bit j of value to bit positions[j]."""
    out = 0
    for j, p in enumerate(positions):
        out |= ((value >> j) & 1) << p
    return out


def _scatter_embed_gate(gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """The scatter embed_gate replaced, kept verbatim.

    It is the bit-identity reference: embed_gate, now apply_gate on the
    identity, must return the same bytes up to the sign of zero entries. It
    is not an independent oracle; kron_embed is.
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


class TestAnnealingHamiltonian:
    @staticmethod
    def _embed_sum_form(problem, lam0, lam1):
        """The dense Hamiltonian as built before, its mixer a sum of embedded X gates."""
        n = problem.num_spins
        dim = 2 ** n
        h = np.diag(lam1 * problem.cost_diagonal()).astype(complex)
        if lam0 != 0.0:
            mixer = np.zeros((dim, dim), dtype=complex)
            for i in range(n):
                mixer -= _scatter_embed_gate(gates.X, [i], n)
            h = h + lam0 * mixer
        return h

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_embed_sum_form(self, n):
        rng = np.random.default_rng(n)
        couplings = [(i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
        problem = IsingProblem(n, tuple(rng.normal(size=n).tolist()), tuple(couplings))
        for lam0, lam1 in [(1.0, 0.0), (0.6, 0.4), (0.3, 0.7), (0.0, 1.0)]:
            mine = build_annealing_hamiltonian(problem, lam0, lam1)
            assert mine.tobytes() == self._embed_sum_form(problem, lam0, lam1).tobytes(), \
                (lam0, lam1)


def _tensordot_apply_gate(amps, gate, targets, num_qubits):
    """The tensordot kernel apply_gate replaced, kept verbatim.

    It is the bit-identity reference: apply_gate sums the same products in
    the same order, so the two must agree exactly. It is not an independent
    oracle; kron_embed is.
    """
    targets = list(targets)
    k = len(targets)
    tensor = amps.reshape((2,) * num_qubits + amps.shape[1:])
    gate_t = np.asarray(gate, dtype=complex).reshape((2,) * (2 * k))
    in_axes = [2 * k - 1 - j for j in range(k)]
    state_axes = [num_qubits - 1 - t for t in targets]
    out = np.tensordot(gate_t, tensor, axes=(in_axes, state_axes))
    # tensordot put the gate's output axes first (gate qubit k-1 .. 0).
    out = np.moveaxis(out, [k - 1 - j for j in range(k)], state_axes)
    return np.ascontiguousarray(out).reshape(amps.shape)


def _random_amps(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestApplyGate:
    @staticmethod
    def _cases(rng, max_qubits):
        """(n, gate, unsorted targets, amps) over 1-D and batched registers."""
        for n in range(1, max_qubits + 1):
            for k in range(1, min(n, 3) + 1):
                for batch in ((), (int(rng.integers(1, 6)),),
                              (int(rng.integers(1, 4)), int(rng.integers(1, 4)))):
                    targets = [int(q) for q in rng.choice(n, size=k, replace=False)]
                    yield n, haar_unitary(rng, 2 ** k), targets, \
                        _random_amps(rng, (2 ** n,) + batch)

    def test_bit_identical_to_tensordot_kernel(self):
        rng = np.random.default_rng(91)
        for _ in range(3):
            for n, gate, targets, amps in self._cases(rng, 12):
                mine = apply_gate(amps, gate, targets, n)
                assert np.array_equal(mine, _tensordot_apply_gate(amps, gate, targets, n)), \
                    (n, targets, amps.shape)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(92)
        for n, gate, targets, amps in self._cases(rng, 7):
            full = kron_embed(gate, targets, n)
            expected = (full @ amps.reshape(2 ** n, -1)).reshape(amps.shape)
            assert np.max(np.abs(apply_gate(amps, gate, targets, n) - expected)) < 1e-12

    @pytest.mark.parametrize("n, targets", [(1, [0]), (4, [3]), (4, [0]), (4, [2, 0, 3]),
                                            (3, [2, 1, 0])])
    def test_result_is_fresh_and_contiguous(self, n, targets):
        # [n-1] alone leaves every axis in place, so no transpose copies there.
        rng = np.random.default_rng(93)
        gate = haar_unitary(rng, 2 ** len(targets))
        block = _random_amps(rng, (2 ** n, 3))
        for amps in (block, block[:, 1], block[:, :2], np.asfortranarray(block)):
            before = amps.copy()
            out = apply_gate(amps, gate, targets, n)
            assert out.shape == amps.shape
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, amps)
            assert np.array_equal(amps, before)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_target_out_of_range(self, bad):
        amps = aq.basis_state(3, 0).amplitudes
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(amps, gates.H, [bad], 3)
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(amps, gates.CNOT, [0, bad], 3)


class TestCircuitUnitary:
    """circuit_unitary contracts each two-qubit block of the one gate fusion
    into the identity with apply_gate; apply_circuit and sample_counts apply
    the same blocks to a state."""

    # Gate runs on local qubits 0-2, each hitting one block transition.
    _RUNS = [
        [("H", (0,)), ("T", (0,)), ("RZ", (0,))],                         # 1q block grows
        [("H", (0,)), ("CNOT", (0, 1))],                                   # widened by a pair
        [("H", (1,)), ("CNOT", (0, 1))],                                   # ... pair reversed
        [("H", (0,)), ("S", (1,)), ("CZ", (1, 0))],                        # widened by a 1q gate
        [("CNOT", (0, 1)), ("CNOT", (1, 0)), ("SWAP", (1, 0))],            # pair, both orders
        [("CZ", (0, 1)), ("H", (0,)), ("RY", (1,)), ("X", (1,))],          # 1q on either bit
        [("CNOT", (0, 1)), ("H", (2,)), ("CNOT", (2, 0))],                 # a third qubit
        [("H", (0,)), ("CNOT", (0, 1)), ("CCX", (0, 1, 2)), ("T", (2,))],  # CCX mid-run
    ]

    @classmethod
    def _transition_circuit(cls, rng, n):
        circuit = aq.Circuit(n)
        for _ in range(int(rng.integers(1, 7))):
            local = [int(q) for q in rng.choice(n, size=3, replace=False)]
            for gate, qubits in cls._RUNS[int(rng.integers(len(cls._RUNS)))]:
                angle = float(rng.uniform(-np.pi, np.pi)) if gate in gates.ROTATION_GATES else None
                circuit.add(gate, *(local[q] for q in qubits), angle=angle)
        return circuit

    @staticmethod
    def _counting_apply_gate(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return apply_gate(*args, **kwargs)

        monkeypatch.setattr(simulate, "apply_gate", counting)
        return calls

    @staticmethod
    def _random_circuit_with_ccx(rng, n):
        circuit = random_circuit(rng, n, int(rng.integers(1, 25)))
        if n >= 3:
            for _ in range(int(rng.integers(1, 4))):
                qubits = tuple(int(q) for q in rng.choice(n, size=3, replace=False))
                position = int(rng.integers(len(circuit.instructions) + 1))
                circuit.instructions.insert(position, aq.Instruction("CCX", qubits))
        return circuit

    def test_random_circuits_vs_kron_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            circuit = self._random_circuit_with_ccx(rng, n)
            mine = aq.circuit_unitary(circuit)
            assert np.max(np.abs(mine - oracle_circuit_unitary(circuit))) < 1e-12

    def test_every_block_transition_vs_kron_oracle(self):
        rng = np.random.default_rng(2025)
        for _ in range(80):
            circuit = self._transition_circuit(rng, int(rng.integers(3, 6)))
            mine = aq.circuit_unitary(circuit)
            assert np.max(np.abs(mine - oracle_circuit_unitary(circuit))) < 1e-12

    _BLOCK_CASES = [
        ("H 0\nCNOT 0 1\nH 1\nCZ 1 0", [(0, 1)]),
        ("H 1\nCNOT 0 1\nT 0", [(1, 0)]),
        ("CNOT 0 1\nH 2\nCNOT 2 0", [(0, 1), (2, 0)]),
        ("H 0\nCNOT 0 1\nCCX 0 1 2\nT 2", [(0, 1), (0, 1, 2), (2,)]),
        ("RZ 2 0.5\nX 2", [(2,)]),
    ]

    @pytest.mark.parametrize("text, blocks", _BLOCK_CASES)
    def test_one_contraction_per_block(self, monkeypatch, text, blocks):
        calls = self._counting_apply_gate(monkeypatch)
        circuit = aq.parse_circuit("qubits 3\n" + text + "\n")
        mine = aq.circuit_unitary(circuit)
        assert [tuple(targets) for targets in calls] == blocks
        assert np.max(np.abs(mine - oracle_circuit_unitary(circuit))) < 1e-12

    @pytest.mark.parametrize("text, blocks", _BLOCK_CASES + [
        # The MEASURE reads 1 with certainty, so the walk never splits; it
        # closes the first block, and H, T and CZ fuse into the second.
        ("X 0\nCNOT 0 1\nMEASURE 1\nH 1\nT 1\nCZ 1 2", [(0, 1), (1, 2)]),
    ])
    def test_every_state_path_applies_the_same_blocks(self, monkeypatch, text, blocks):
        calls = self._counting_apply_gate(monkeypatch)
        circuit = aq.parse_circuit("qubits 3\n" + text + "\n")
        aq.apply_circuit(circuit)
        applied = [tuple(targets) for targets in calls]
        calls.clear()
        aq.sample_counts(circuit, 10, np.random.default_rng(0))
        assert applied == [tuple(targets) for targets in calls] == blocks

    def test_first_fault_in_order_is_raised(self):
        # A marker and an out-of-range target anywhere in a circuit: whichever
        # comes first is reported, as gate-by-gate contraction would.
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            instructions = self._transition_circuit(rng, n).instructions
            faults = {"MEASURE": aq.Instruction("MEASURE", (0,)),
                      "RESET": aq.Instruction("RESET", (n - 1,)),
                      "out of range": aq.Instruction("CNOT", (0, n))}
            chosen = list(rng.permutation(list(faults)))[:int(rng.integers(1, 3))]
            positions = sorted(int(p) for p in rng.integers(len(instructions) + 1,
                                                           size=len(chosen)))
            circuit = aq.Circuit(n, list(instructions))
            for offset, (position, name) in enumerate(zip(positions, chosen)):
                circuit.instructions.insert(position + offset, faults[name])
            with pytest.raises(ValueError, match=chosen[0]):
                aq.circuit_unitary(circuit)
        # An out-of-range pair that fits the open block, then a marker.
        circuit = aq.Circuit(2).add("H", 0)
        circuit.instructions += [aq.Instruction("CZ", (0, 2)), aq.Instruction("MEASURE", (1,))]
        with pytest.raises(ValueError, match="out of range"):
            aq.circuit_unitary(circuit)

    def test_batched_apply_gate_matches_column_by_column(self):
        rng = np.random.default_rng(17)
        for n in range(1, 6):
            for k in range(1, min(n, 3) + 1):
                gate = haar_unitary(rng, 2 ** k)
                targets = [int(q) for q in rng.choice(n, size=k, replace=False)]
                block = rng.normal(size=(2 ** n, 5)) + 1j * rng.normal(size=(2 ** n, 5))
                batched = apply_gate(block, gate, targets, n)
                columns = np.stack([apply_gate(block[:, j], gate, targets, n)
                                    for j in range(block.shape[1])], axis=1)
                assert batched.shape == block.shape
                # A batch goes through a matrix-matrix product, a column through a
                # matrix-vector one, so the two may round differently.
                assert np.max(np.abs(batched - columns)) < 1e-12

    @pytest.mark.parametrize("marker", ["MEASURE", "RESET"])
    def test_markers_have_no_unitary(self, marker):
        circuit = aq.Circuit(2).add("H", 0).add(marker, 1)
        with pytest.raises(ValueError, match=marker):
            aq.circuit_unitary(circuit)

    @pytest.mark.parametrize("n", [1, 2])
    def test_out_of_range_target_raises(self, n):
        # Circuit.add checks operands; appending to the list directly does not.
        circuit = aq.Circuit(n)
        circuit.instructions.append(aq.Instruction("X", (n,)))
        with pytest.raises(ValueError, match="out of range"):
            aq.circuit_unitary(circuit)
        with pytest.raises(ValueError, match="out of range"):
            aq.apply_circuit(circuit)

    def test_builds_no_embedded_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("circuit_unitary called embed_gate")

        monkeypatch.setattr(simulate, "embed_gate", refuse)
        circuit = aq.Circuit(3).add("H", 0).add("CCX", 0, 1, 2).add("RZ", 2, angle=0.3)
        assert np.max(np.abs(aq.circuit_unitary(circuit)
                             - oracle_circuit_unitary(circuit))) < 1e-12

    def test_fixed_gate_table_is_read_only(self):
        for name in gates.FIXED_GATES:
            matrix = gates.gate_matrix(name)
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0
        assert gates.gate_matrix("H")[0, 0] == pytest.approx(1 / np.sqrt(2))

    def test_gate_table_and_rotations_unitary(self):
        # circuit_unitary trusts every gate matrix: the read-only table and the
        # rotations at any finite angle (Instruction refuses the others).
        for name, matrix in gates.FIXED_GATES.items():
            assert aq.is_unitary(matrix), name
        angles = [0.0, 1e-300, np.pi / 7, -2.5, 1e3, 1e17, 1e300, -1e300]
        for name in gates.ROTATION_GATES:
            for angle in angles:
                assert aq.is_unitary(gates.gate_matrix(name, angle)), (name, angle)


class TestApplyCircuit:
    def test_hadamard(self):
        c = aq.Circuit(1).add("H", 0)
        state, _ = aq.apply_circuit(c)
        assert np.allclose(state.amplitudes, np.array([1, 1]) / np.sqrt(2))

    def test_bell_preparation(self):
        c = aq.Circuit(2).add("H", 0).add("CNOT", 0, 1)
        state, _ = aq.apply_circuit(c)
        assert np.allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_random_circuits_vs_matrix_chain_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            c = random_circuit(rng, n, int(rng.integers(1, 13)))
            state, _ = aq.apply_circuit(c, aq.basis_state(n, 0))
            expected = oracle_circuit_unitary(c)[:, 0]
            fid = abs(np.vdot(expected, state.amplitudes)) ** 2
            assert fid >= 1 - 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        c = random_circuit(rng, 4, 12)
        state, _ = aq.apply_circuit(c, aq.StateVector(random_state(rng, 4)))
        assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-10

    def test_concatenation_matches_sequential(self):
        rng = np.random.default_rng(9)
        first = random_circuit(rng, 3, 6)
        second = random_circuit(rng, 3, 6)
        both = aq.Circuit(3, first.instructions + second.instructions)
        s1, _ = aq.apply_circuit(first)
        s2, _ = aq.apply_circuit(second, s1)
        joint, _ = aq.apply_circuit(both)
        assert aq.fidelity(joint, s2) >= 1 - 1e-12

    def test_measure_collapses_and_records(self):
        c = aq.Circuit(1).add("H", 0).add("MEASURE", 0)
        state, records = aq.apply_circuit(c, seed=1)
        assert len(records) == 1
        rec = records[0]
        assert rec.qubit == 0 and abs(rec.probability - 0.5) < 1e-10
        assert np.allclose(state.amplitudes, aq.basis_state(1, rec.outcome_index).amplitudes)

    def test_measure_deterministic_per_seed(self):
        c = aq.Circuit(3)
        for q in range(3):
            c.add("H", q)
            c.add("MEASURE", q)
        seq = [tuple(r.outcome_index for r in aq.apply_circuit(c, seed=5)[1])
               for _ in range(3)]
        assert seq[0] == seq[1] == seq[2]
        other = tuple(r.outcome_index for r in aq.apply_circuit(c, seed=6)[1])
        assert isinstance(other, tuple)  # different seed still valid

    def test_reset_reinitializes_to_zero(self):
        c = aq.Circuit(1).add("X", 0).add("RESET", 0)
        state, records = aq.apply_circuit(c, seed=0)
        assert records == []
        assert np.allclose(np.abs(state.amplitudes), [1, 0])

    def test_reset_on_superposition(self):
        for seed in range(5):
            c = aq.Circuit(2).add("H", 0).add("CNOT", 0, 1).add("RESET", 0)
            state, _ = aq.apply_circuit(c, seed=seed)
            probs = state.probabilities()
            assert probs[1] < 1e-12 and probs[3] < 1e-12  # qubit 0 back in |0>

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            aq.apply_circuit(aq.Circuit(2).add("H", 0), aq.basis_state(1, 0))

    def test_initial_state_left_unchanged(self):
        # The run starts from the caller's amplitudes themselves; a MEASURE
        # first collapses them directly.
        initial = aq.StateVector(random_state(np.random.default_rng(10), 3))
        before = initial.amplitudes.tobytes()
        c = aq.parse_circuit(
            "qubits 3\nMEASURE 1\nH 0\nCNOT 0 2\nRESET 2\nRY 1 0.4\nCCX 0 1 2\nMEASURE 0\n")
        for seed in range(4):
            aq.apply_circuit(c, initial, seed=seed)
        assert initial.amplitudes.tobytes() == before
        state, _ = aq.apply_circuit(aq.Circuit(3), initial)
        assert state.amplitudes.tobytes() == before and state is not initial

    def test_seeded_records_pinned(self):
        # Every MEASURE and RESET draws once with simulate.pick, also when one
        # outcome is dead: in the second circuit, X 0 makes MEASURE 0 and
        # RESET 0 certain, yet each takes a draw before MEASURE 1 does.
        random_only = aq.parse_circuit(
            "qubits 2\nH 0\nCNOT 0 1\nRY 0 0.7\nMEASURE 0\nH 1\nMEASURE 1\n"
            "RX 0 1.1\nRESET 0\nH 0\nMEASURE 0\n")
        deterministic = aq.parse_circuit(
            "qubits 2\nX 0\nMEASURE 0\nRESET 0\nH 1\nMEASURE 1\nMEASURE 0\n")
        pinned = [
            (random_only,
             [(0, 1, 1), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 0), (1, 0, 1),
              (0, 1, 0)],
             [(0, 0, 0.5000000000000001), (1, 1, 0.822108843618845), (0, 0, 0.5000000000000001)]),
            (deterministic,
             [(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 0),
              (1, 0, 0)],
             [(0, 1, 1.0), (1, 1, 0.4999999999999999), (0, 0, 1.0)]),
        ]
        for circuit, shots, records in pinned:
            rng = np.random.Generator(np.random.PCG64(3))
            assert [tuple(r.outcome_index for r in aq.apply_circuit(circuit, rng=rng)[1])
                    for _ in range(8)] == shots
            assert [(r.qubit, r.outcome_index, r.probability)
                    for r in aq.apply_circuit(circuit, seed=11)[1]] == records

    def test_seeded_final_state_bits_pinned(self):
        # The digest was taken when every branch and the final state were
        # still copied by the public StateVector constructor; wrapping them
        # without a copy must leave every bit as it was.
        c = aq.parse_circuit("qubits 3\nH 0\nRY 1 0.7\nCNOT 0 2\nMEASURE 0\nRX 2 1.3\n"
                             "CZ 1 2\nRESET 1\nH 1\nMEASURE 2\nT 0\nCNOT 2 1\n")
        state, records = aq.apply_circuit(c, seed=5)
        assert [(r.qubit, r.outcome_index) for r in records] == [(0, 1), (2, 1)]
        assert hashlib.sha256(state.amplitudes.tobytes()).hexdigest() == (
            "a2485911994880cd9ff85d32b6def16deabaf6812d139f52e2e3d166261f56a9")
        assert not state.amplitudes.flags.writeable

    def test_mid_circuit_measurement_feeds_later_gates(self):
        # Measure one half of a Bell pair, then rotate the other: the final
        # state must match collapsing first and rotating the survivor.
        c = aq.Circuit(2).add("H", 0).add("CNOT", 0, 1).add("MEASURE", 0).add("H", 1)
        for seed in range(6):
            state, records = aq.apply_circuit(c, seed=seed)
            outcome = records[0].outcome_index
            survivor = aq.basis_state(1, outcome)
            expected = aq.tensor_product(
                aq.StateVector(gates.H @ survivor.amplitudes),
                aq.basis_state(1, outcome))
            assert aq.fidelity(state, expected) >= 1 - 1e-12


class TestDistanceAndExpectation:
    def test_distance_self_is_zero(self):
        rng = np.random.default_rng(11)
        u = haar_unitary(rng, 4)
        assert aq.phase_invariant_distance(u, u) < 1e-12

    def test_distance_t_vs_rz(self):
        assert aq.phase_invariant_distance(gates.T, gates.rz(np.pi / 4)) < 1e-12

    def test_distance_identity_vs_x(self):
        assert abs(aq.phase_invariant_distance(np.eye(2), gates.X) - 1.0) < 1e-12

    def test_distance_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            aq.phase_invariant_distance(np.eye(2), np.eye(4))

    def test_expectation_z_on_zero(self):
        assert abs(aq.expectation(aq.basis_state(1, 0), gates.Z) - 1.0) < 1e-12

    def test_expectation_x_on_plus(self):
        assert abs(aq.expectation(aq.plus_state(1), gates.X) - 1.0) < 1e-12

    def test_expectation_random_hermitian_vs_spectral_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            herm = raw + raw.conj().T
            psi = aq.StateVector(random_state(rng, 3))
            # Oracle: expectation through the spectral decomposition.
            values, vectors = np.linalg.eigh(herm)
            overlaps = np.abs(vectors.conj().T @ psi.amplitudes) ** 2
            assert abs(aq.expectation(psi, herm) - float(values @ overlaps)) < 1e-10

    def test_expectation_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            aq.expectation(aq.basis_state(1, 0), np.array([[0, 1], [0, 0]], complex))

    def test_expectation_rejects_non_finite_operator(self):
        # NaN compares false with every tolerance: the operator is refused.
        with pytest.raises(ValueError, match="not Hermitian"):
            aq.expectation(aq.basis_state(1, 0), np.full((2, 2), np.nan))

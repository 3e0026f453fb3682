"""State construction, gate embedding, and circuit execution semantics."""

import numpy as np
import pytest

import aqmkit as aq
from aqmkit import gates, simulate
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


class TestCircuitUnitary:
    """circuit_unitary contracts each gate into the identity with apply_gate."""

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

    def test_every_gate_matrix_checked_unitary(self, monkeypatch):
        checked = []

        def counting(matrix, *args, **kwargs):
            checked.append(matrix)
            return True

        monkeypatch.setattr(simulate, "is_unitary", counting)
        circuit = random_circuit(np.random.default_rng(5), 4, 30)
        aq.circuit_unitary(circuit)
        assert len(checked) == len(circuit.instructions)
        monkeypatch.setattr(simulate, "is_unitary", lambda matrix, *args, **kwargs: False)
        with pytest.raises(ValueError, match="not unitary"):
            aq.circuit_unitary(circuit)


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

"""Rewrite, approximation, routing, dilation, and cost passes."""

import math

import numpy as np
import pytest

import aqmkit as aq
from aqmkit import approx, gates
from aqmkit import cost as cost_module
from aqmkit.cost import budget_from_cost
from aqmkit import pipeline
from aqmkit.devices import BUILTIN_PROFILE_NAMES, builtin_profile
from aqmkit.graphs import ConnectivityGraph
from oracles import (connected_graphs, haar_unitary, oracle_circuit_unitary,
                     oracle_word_enumeration, random_circuit, random_measurement_set,
                     random_state)

DISCRETE_BASIS = {"H", "T", "TDG", "S", "SDG", "CNOT"}


def unitary_distance(a: aq.Circuit, b: aq.Circuit) -> float:
    return aq.phase_invariant_distance(oracle_circuit_unitary(a), oracle_circuit_unitary(b))


class TestRewrite:
    def test_swap_becomes_three_cnots(self):
        c = aq.Circuit(2).add("SWAP", 0, 1)
        out = aq.rewrite_to_basis(c, DISCRETE_BASIS)
        assert [i.gate for i in out.instructions] == ["CNOT", "CNOT", "CNOT"]
        assert unitary_distance(c, out) < 1e-12

    def test_cz_to_cnot_sandwich(self):
        c = aq.Circuit(2).add("CZ", 0, 1)
        out = aq.rewrite_to_basis(c, DISCRETE_BASIS)
        assert [(i.gate, i.qubits) for i in out.instructions] == [
            ("H", (1,)), ("CNOT", (0, 1)), ("H", (1,))]
        assert np.max(np.abs(oracle_circuit_unitary(out) - gates.CZ)) < 1e-12

    def test_cnot_to_cz_sandwich(self):
        c = aq.Circuit(2).add("CNOT", 0, 1)
        out = aq.rewrite_to_basis(c, {"H", "T", "TDG", "S", "SDG", "CZ"})
        assert np.max(np.abs(oracle_circuit_unitary(out) - gates.CNOT)) < 1e-12

    def test_ccx_standard_decomposition(self):
        c = aq.Circuit(3).add("CCX", 0, 1, 2)
        out = aq.rewrite_to_basis(c, DISCRETE_BASIS)
        assert len(out.instructions) == 15
        assert aq.phase_invariant_distance(oracle_circuit_unitary(out), gates.CCX) < 1e-12

    def test_s_from_t(self):
        c = aq.Circuit(1).add("S", 0)
        out = aq.rewrite_to_basis(c, {"H", "T"})
        assert [i.gate for i in out.instructions] == ["T", "T"]

    def test_discrete_gates_from_rotations(self):
        native = {"RX", "RY", "RZ", "CNOT"}
        c = aq.Circuit(1).add("H", 0).add("T", 0).add("X", 0).add("Y", 0).add("Z", 0)
        out = aq.rewrite_to_basis(c, native)
        assert {i.gate for i in out.instructions} <= native
        assert unitary_distance(c, out) < 1e-12

    def test_random_circuits_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            c = random_circuit(rng, n, 8, rotations=False)
            out = aq.rewrite_to_basis(c, DISCRETE_BASIS)
            assert {i.gate for i in out.instructions} <= DISCRETE_BASIS
            assert unitary_distance(c, out) < 1e-9

    def test_rotation_without_rule_raises(self):
        c = aq.Circuit(1).add("RZ", 0, angle=0.3)
        with pytest.raises(aq.RewriteError, match="approximation"):
            aq.rewrite_to_basis(c, {"H", "T"})

    def test_rotation_deferred(self):
        c = aq.Circuit(1).add("RZ", 0, angle=0.3)
        out = aq.rewrite_to_basis(c, {"H", "T"}, defer_rotations=True)
        assert out.instructions == c.instructions

    def test_no_entangler_raises(self):
        c = aq.Circuit(2).add("CNOT", 0, 1)
        with pytest.raises(aq.RewriteError):
            aq.rewrite_to_basis(c, {"H", "T"})

    def test_markers_pass_through(self):
        c = aq.Circuit(1).add("MEASURE", 0).add("RESET", 0)
        out = aq.rewrite_to_basis(c, DISCRETE_BASIS)
        assert out.instructions == c.instructions

    def test_out_of_range_source_raises(self):
        # Only source instructions are range-checked; one appended past
        # Circuit's own checks must still be refused.
        c = aq.Circuit(2).add("H", 0)
        c.instructions.append(aq.Instruction("CNOT", (0, 2)))
        for basis in (DISCRETE_BASIS, {"H", "T", "CZ"}):
            with pytest.raises(aq.CircuitError, match="operand 2 out of range"):
                aq.rewrite_to_basis(c, basis)

    def test_repeats_expand_as_when_alone(self):
        # Each distinct instruction is expanded once per call; every repeat must
        # still get the expansion it gets in a circuit of its own.
        rng = np.random.default_rng(26)
        for basis in (DISCRETE_BASIS, {"RX", "RY", "RZ", "CZ"}, {"H", "T", "CZ"}):
            c = random_circuit(rng, 3, 30)
            c.extend(list(c.instructions))
            c.add("MEASURE", 1).add("MEASURE", 1)
            out = aq.rewrite_to_basis(c, basis, defer_rotations=True)
            alone = [step for inst in c.instructions
                     for step in aq.rewrite_to_basis(aq.Circuit(3, [inst]), basis,
                                                     defer_rotations=True).instructions]
            assert out.instructions == alone

    def test_signed_zero_angles_kept_apart(self):
        # RZ 0 -0.0 == RZ 0 0.0 as instructions, yet each keeps its own sign.
        c = aq.Circuit(1)
        for angle in (0.0, -0.0, 0.0, -0.0):
            c.add("RZ", 0, angle=angle)
        for basis, defer in (({"RZ", "H"}, False), (DISCRETE_BASIS, True)):
            out = aq.rewrite_to_basis(c, basis, defer_rotations=defer)
            assert [math.copysign(1.0, i.angle) for i in out.instructions] == [1, -1, 1, -1]


class TestApproximate:
    def test_t_from_rz_at_depth_one(self):
        request = aq.ApproximationRequest(gates.rz(np.pi / 4), ("H", "T"), 1e-12, 1)
        result = aq.approximate_single_qubit(request)
        assert result.word == ("T",)
        assert result.achieved and result.distance < 1e-12

    def test_alphabet_member(self):
        result = aq.approximate_single_qubit(
            aq.ApproximationRequest(gates.H, ("H", "T"), 1e-12, 4))
        assert result.word == ("H",)

    def test_matches_exhaustive_enumeration(self):
        # Oracle: brute-force products over every word up to the depth.
        from itertools import product as iproduct
        rng = np.random.default_rng(22)
        target = haar_unitary(rng)
        depth = 7
        best_by_depth = [aq.phase_invariant_distance(np.eye(2), target)]
        mats = {"H": gates.H, "T": gates.T}
        running = best_by_depth[0]
        for length in range(1, depth + 1):
            for word in iproduct("HT", repeat=length):
                u = np.eye(2, dtype=complex)
                for g in word:
                    u = mats[g] @ u
                running = min(running, aq.phase_invariant_distance(u, target))
            best_by_depth.append(running)
        for d in range(depth + 1):
            mine = aq.approximate_single_qubit(
                aq.ApproximationRequest(target, ("H", "T"), 1e-13, d))
            assert mine.distance == pytest.approx(best_by_depth[d], abs=1e-9)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            target = haar_unitary(rng)
            best = [aq.approximate_single_qubit(
                aq.ApproximationRequest(target, ("H", "T", "TDG"), 1e-13, d)).distance
                for d in range(9)]
            assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        target = haar_unitary(rng)
        request = aq.ApproximationRequest(target, ("H", "T", "TDG"), 0.2, 8)
        first = aq.approximate_single_qubit(request)
        second = aq.approximate_single_qubit(request)
        assert first == second

    @pytest.mark.parametrize("alphabet, depth", [
        (("H", "T"), 12),
        (("H", "S", "T", "TDG"), 10),
        (("H", "S", "SDG", "T", "TDG", "X", "Y", "Z"), 10),
        (("X",), 4),
        (("H", "S"), 10),
    ], ids=["H-T", "H-S-T-TDG", "clifford-t-8", "finite-X", "finite-H-S"])
    def test_enumeration_matches_scalar_oracle(self, alphabet, depth):
        words, matrices = oracle_word_enumeration(alphabet, depth)
        enum = approx._Enumeration(alphabet)
        enum.extend_to(depth)
        assert enum.words == words
        assert enum.stack.tobytes() == np.stack(matrices).tobytes()
        lengths = [len(word) for word in words]
        assert enum.ends == [sum(n <= d for n in lengths) for d in range(depth + 1)]

    def test_lazy_extension_equals_direct_build(self):
        alphabet = ("H", "S", "T", "TDG")
        lazy = approx._Enumeration(alphabet)
        lazy.extend_to(3)
        lazy.extend_to(10)
        direct = approx._Enumeration(alphabet)
        direct.extend_to(10)
        assert lazy.words == direct.words and lazy.ends == direct.ends
        assert lazy.stack.tobytes() == direct.stack.tobytes()
        assert lazy.seen == direct.seen

    def test_shallow_request_on_deeper_table(self, monkeypatch):
        rng = np.random.default_rng(25)
        targets = [haar_unitary(rng) for _ in range(4)] + [gates.rz(0.3), gates.T]
        alphabet = ("H", "S", "T", "TDG")
        for depth in (0, 1, 4, 7):
            requests = [aq.ApproximationRequest(t, alphabet, epsilon, depth)
                        for t in targets for epsilon in (0.1, 0.5)]
            monkeypatch.setattr(approx, "_CACHE", {})
            fresh = [aq.approximate_single_qubit(r) for r in requests]
            approx._enumeration(alphabet, 10)
            assert [aq.approximate_single_qubit(r) for r in requests] == fresh

    def test_finite_alphabet_runs_out_of_words(self):
        # {X} and {H, S} generate finite groups, so deep levels add no word.
        enum = approx._Enumeration(("X",))
        enum.extend_to(3)
        assert enum.words == [(), ("X",)] and enum.ends == [1, 2, 2, 2]
        result = aq.approximate_single_qubit(aq.ApproximationRequest(gates.X, ("X",), 0.1, 3))
        assert result == aq.ApproximationResult(("X",), 0.0, True)
        result = aq.approximate_single_qubit(
            aq.ApproximationRequest(gates.rz(0.3), ("H", "S"), 0.01, 10))
        assert not result.achieved and len(result.word) <= 10

    def test_search_stops_at_the_first_level_with_a_hit(self, monkeypatch):
        monkeypatch.setattr(approx, "_CACHE", {})
        alphabet = ("H", "S", "SDG", "T", "TDG", "X", "Y", "Z")
        result = aq.approximate_single_qubit(aq.ApproximationRequest(
            gates.rz(1.0), alphabet, 0.15, approx.MAX_APPROX_DEPTH))
        assert result.word == ("T",) and result.achieved
        assert len(approx._CACHE[alphabet].ends) - 1 <= 1

    @staticmethod
    def _full_table_search(enum, request):
        """The search over every word up to max_depth at once."""
        distances = enum.distances(request.target, 0, enum.ends[request.max_depth])
        hits = distances <= request.epsilon
        index = int(np.argmax(hits)) if hits.any() else int(np.argmin(distances))
        return aq.ApproximationResult(enum.words[index], float(distances[index]),
                                      bool(hits[index]))

    @pytest.mark.parametrize("alphabet", [
        ("H", "S", "T", "TDG"), ("H", "S", "SDG", "T", "TDG", "X", "Y", "Z")])
    def test_early_stop_matches_full_table_search(self, monkeypatch, alphabet):
        rng = np.random.default_rng(27)
        full = approx._Enumeration(alphabet)
        full.extend_to(8)
        for _ in range(200):
            request = aq.ApproximationRequest(
                haar_unitary(rng), alphabet, float(rng.choice([0.02, 0.1, 0.2, 0.4])),
                int(rng.integers(0, 9)))
            expected = self._full_table_search(full, request)
            monkeypatch.setattr(approx, "_CACHE", {})
            fresh = aq.approximate_single_qubit(request)
            monkeypatch.setattr(approx, "_CACHE", {alphabet: full})
            assert aq.approximate_single_qubit(request) == fresh == expected

    def test_level_distances_equal_full_distances(self):
        # The search scores one level's slice at a time; each row must keep the
        # bits it has when the whole table is scored at once.
        rng = np.random.default_rng(28)
        for alphabet in (("H", "S", "T", "TDG"), ("H", "S", "SDG", "T", "TDG", "X", "Y", "Z")):
            enum = approx._Enumeration(alphabet)
            enum.extend_to(10)
            for _ in range(30):
                target = haar_unitary(rng)
                whole = enum.distances(target, 0, enum.ends[10])
                for depth in range(11):
                    start = enum.ends[depth - 1] if depth else 0
                    level = enum.distances(target, start, enum.ends[depth])
                    assert level.tobytes() == whole[start:enum.ends[depth]].tobytes()

    def test_depth_cap(self):
        aq.ApproximationRequest(gates.H, ("H",), 0.1, approx.MAX_APPROX_DEPTH)
        with pytest.raises(ValueError, match="max_depth"):
            aq.ApproximationRequest(gates.H, ("H",), 0.1, approx.MAX_APPROX_DEPTH + 1)

    def test_empty_alphabet(self):
        with pytest.raises(ValueError, match="empty"):
            aq.ApproximationRequest(gates.H, (), 0.1, 3)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            aq.ApproximationRequest(gates.H, ("H",), 0.0, 3)


class TestRoute:
    def test_line_cnot_example(self):
        line = ConnectivityGraph.line(3)
        c = aq.Circuit(3).add("CNOT", 0, 2)
        routed = aq.route_circuit(c, line)
        assert [(i.gate, i.qubits) for i in routed.instructions] == [
            ("SWAP", (0, 1)), ("CNOT", (1, 2)), ("SWAP", (0, 1))]
        expanded = aq.rewrite_to_basis(routed, DISCRETE_BASIS)
        assert expanded.gate_counts()["CNOT"] == 7
        assert unitary_distance(expanded, c) < 1e-10

    def test_adjacent_untouched(self):
        line = ConnectivityGraph.line(2)
        c = aq.Circuit(2).add("CNOT", 0, 1)
        assert aq.route_circuit(c, line).instructions == c.instructions

    def test_complete_graph_untouched(self):
        rng = np.random.default_rng(31)
        graph = ConnectivityGraph.complete(4)
        c = random_circuit(rng, 4, 10)
        assert aq.route_circuit(c, graph).instructions == c.instructions

    def test_swap_count_by_hops(self):
        for hops in range(1, 5):
            line = ConnectivityGraph.line(hops + 1)
            c = aq.Circuit(hops + 1).add("CNOT", 0, hops)
            expanded = aq.rewrite_to_basis(aq.route_circuit(c, line), DISCRETE_BASIS)
            assert expanded.gate_counts()["CNOT"] == 6 * (hops - 1) + 1

    def test_semantics_on_connected_graphs(self):
        rng = np.random.default_rng(32)
        for n in (2, 3, 4):
            for graph in connected_graphs(n)[::4]:
                for _ in range(4):
                    c = random_circuit(rng, n, 8)
                    routed = aq.route_circuit(c, graph)
                    for inst in routed.instructions:
                        if len(inst.qubits) == 2:
                            assert graph.has_edge(*inst.qubits)
                    assert unitary_distance(routed, c) < 1e-9

    def test_disconnected_raises(self):
        graph = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
        c = aq.Circuit(4).add("CNOT", 0, 3)
        with pytest.raises(aq.DisconnectedError):
            aq.route_circuit(c, graph)

    def test_three_qubit_gate_rejected(self):
        c = aq.Circuit(3).add("CCX", 0, 1, 2)
        with pytest.raises(ValueError, match="rewrite"):
            aq.route_circuit(c, ConnectivityGraph.complete(3))


class TestDilation:
    def test_projective_z(self):
        mset = aq.MeasurementOperatorSet(
            1, (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)))
        dilated = aq.synthesize_measurement(mset)
        assert dilated.num_ancillas == 1
        probs = [p for p, _ in dilated.branches(aq.plus_state(1))]
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_identity_halves(self):
        half = np.eye(2, dtype=complex) / np.sqrt(2)
        mset = aq.MeasurementOperatorSet(1, (half, half))
        dilated = aq.synthesize_measurement(mset)
        rng = np.random.default_rng(41)
        psi = aq.StateVector(random_state(rng, 1))
        for prob, post in dilated.branches(psi):
            assert abs(prob - 0.5) < 1e-10
            assert aq.fidelity(post, psi) >= 1 - 1e-12

    def test_trine_two_ancillas(self):
        from test_measure import trine_set
        dilated = aq.synthesize_measurement(trine_set())
        assert dilated.num_ancillas == 2
        probs = [p for p, _ in dilated.branches(aq.basis_state(1, 0))]
        direct = [p for p, _ in aq.measurement_branches(trine_set(), aq.basis_state(1, 0))]
        assert np.max(np.abs(np.array(probs) - direct)) < 1e-10

    def test_random_sets_reproduce_direct_measurement(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            mset = aq.MeasurementOperatorSet(1, tuple(random_measurement_set(rng, 1, k)))
            dilated = aq.synthesize_measurement(mset)
            assert aq.is_unitary(dilated.unitary)
            psi = aq.StateVector(random_state(rng, 1))
            direct = aq.measurement_branches(mset, psi)
            synth = dilated.branches(psi)
            variation = 0.5 * sum(abs(p - q) for (p, _), (q, _) in zip(direct, synth))
            assert variation <= 1e-9
            for (p, direct_post), (_, synth_post) in zip(direct, synth):
                if direct_post is not None:
                    assert aq.fidelity(direct_post, synth_post) >= 1 - 1e-9

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_completion_keeps_isometry_columns(self, num_qubits):
        rng = np.random.default_rng(44 + num_qubits)
        dim = 2 ** num_qubits
        for k in range(1, 9):
            ops = random_measurement_set(rng, num_qubits, k)
            dilated = aq.synthesize_measurement(aq.MeasurementOperatorSet(num_qubits, tuple(ops)))
            assert aq.is_unitary(dilated.unitary)
            isometry = np.zeros((dilated.unitary.shape[0], dim), dtype=complex)
            isometry[:k * dim] = np.vstack(ops)
            assert np.array_equal(dilated.unitary[:, :dim], isometry)

    def test_run_matches_apply_measurement_stream(self):
        from test_measure import trine_set
        dilated = aq.synthesize_measurement(trine_set())
        psi = aq.basis_state(1, 0)
        for seed in range(10):
            a = aq.apply_measurement(trine_set(), psi, seed=seed)
            b = dilated.run(psi, seed=seed)
            assert a.outcome_index == b.outcome_index

    def test_invalid_set_rejected(self):
        bad = aq.MeasurementOperatorSet(1, (np.diag([1, 0]).astype(complex),))
        with pytest.raises(ValueError, match="complete"):
            aq.synthesize_measurement(bad)

    def test_more_outcomes_than_dimension(self):
        # K = 5 outcomes on one qubit needs three ancillas.
        rng = np.random.default_rng(43)
        mset = aq.MeasurementOperatorSet(1, tuple(random_measurement_set(rng, 1, 5)))
        dilated = aq.synthesize_measurement(mset)
        assert dilated.num_ancillas == 3
        psi = aq.StateVector(random_state(rng, 1))
        direct = aq.measurement_branches(mset, psi)
        synth = dilated.branches(psi)
        assert len(synth) == 5
        for (p, _), (q, _) in zip(direct, synth):
            assert abs(p - q) < 1e-10

    def test_single_outcome_set_needs_no_ancilla(self):
        # A complete one-outcome set is a unitary; zero ancillas suffice.
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        dilated = aq.synthesize_measurement(aq.MeasurementOperatorSet(1, (u,)))
        assert dilated.num_ancillas == 0
        prob, post = dilated.branches(aq.basis_state(1, 0))[0]
        assert abs(prob - 1.0) < 1e-12
        assert aq.fidelity(post, aq.basis_state(1, 1)) >= 1 - 1e-12


class TestCost:
    def test_two_cz_on_transmon(self):
        transmon = builtin_profile("superconducting-transmon")
        c = aq.Circuit(2).add("CZ", 0, 1).add("CZ", 0, 1)
        cost = aq.estimate_cost(c, transmon)
        assert cost.total_duration_ns == 80.0
        assert cost.gate_fidelity_product == pytest.approx(0.998 ** 2, abs=1e-12)
        assert cost.gate_fidelity_product == pytest.approx(0.996004, abs=1e-12)

    def test_empty_circuit(self):
        cost = aq.estimate_cost(aq.Circuit(2), builtin_profile("superconducting-transmon"))
        assert cost.total_duration_ns == 0.0
        assert cost.fidelity_estimate == pytest.approx(1.0, abs=1e-12)

    def test_lower_t2_lowers_estimate(self):
        from dataclasses import replace
        transmon = builtin_profile("superconducting-transmon")
        worse = replace(transmon, t2_us=30.0, t2_dd_us=None)
        c = aq.Circuit(2).add("CZ", 0, 1).add("CZ", 0, 1)
        assert (aq.estimate_cost(c, worse).fidelity_estimate
                < aq.estimate_cost(c, transmon).fidelity_estimate)

    def test_sums_in_instruction_order(self):
        # Each distinct gate's spec is looked up once; the sum and the product
        # still run in instruction order, so their bits are the plain loop's.
        rng = np.random.default_rng(52)
        for name in BUILTIN_PROFILE_NAMES:
            profile = builtin_profile(name)
            native = [spec for spec in profile.native_gates if spec.arity <= 2]
            if not native:
                continue
            c = aq.Circuit(3)
            for _ in range(60):
                spec = native[int(rng.integers(len(native)))]
                qubits = [int(q) for q in rng.choice(3, size=spec.arity, replace=False)]
                angle = 0.5 if spec.gate in gates.ROTATION_GATES else None
                if rng.random() < 0.1:
                    c.add("MEASURE", qubits[0])
                c.add(spec.gate, *qubits, angle=angle)
            duration, product = 0.0, 1.0
            for inst in c.instructions:
                spec = (profile.measurement if inst.gate in gates.MARKERS
                        else profile.gate_spec(inst.gate))
                duration += spec.duration_ns
                product *= spec.fidelity
            cost = aq.estimate_cost(c, profile)
            assert cost.total_duration_ns == duration
            assert cost.gate_fidelity_product == product

    def test_non_native_gate_rejected(self):
        with pytest.raises(ValueError, match="not native"):
            aq.estimate_cost(aq.Circuit(2).add("CNOT", 0, 1),
                             builtin_profile("superconducting-transmon"))

    def test_adding_gates_is_monotone(self):
        rng = np.random.default_rng(51)
        ion = builtin_profile("trapped-ion")
        c = aq.Circuit(3)
        previous = aq.estimate_cost(c, ion)
        for _ in range(10):
            gate = ("RX", "RY", "RZ")[rng.integers(3)]
            if rng.random() < 0.4:
                a, b = rng.choice(3, size=2, replace=False)
                c.add("CNOT", int(a), int(b))
            else:
                c.add(gate, int(rng.integers(3)), angle=float(rng.uniform(-1, 1)))
            current = aq.estimate_cost(c, ion)
            assert current.total_duration_ns >= previous.total_duration_ns
            assert current.fidelity_estimate <= previous.fidelity_estimate + 1e-15
            previous = current

    def test_budget_transmon_example(self):
        transmon = builtin_profile("superconducting-transmon")
        c = aq.Circuit(2).add("CZ", 0, 1).add("CZ", 0, 1)
        # Judge against the base T2* figure of 300 us (no decoupling).
        from dataclasses import replace
        base = replace(transmon, t2_dd_us=None)
        check = budget_from_cost(aq.estimate_cost(c, base), base)
        assert check.ok
        assert check.ratio == pytest.approx(80.0 / 300e3, rel=1e-9)

    def test_budget_fails_beyond_t2(self):
        ion = builtin_profile("trapped-ion")
        c = aq.Circuit(2)
        # 2e5 CNOTs at 100 us each = 2e10 us >> 2 * T2.
        from dataclasses import replace
        tiny = replace(ion, t2_us=50.0, t2_dd_us=None)  # 50 us
        c.add("CNOT", 0, 1)  # 100 us = 2 x T2
        assert not budget_from_cost(aq.estimate_cost(c, tiny), tiny, threshold=0.01).ok
        assert not budget_from_cost(aq.estimate_cost(c, tiny), tiny, threshold=1.0).ok

    def test_budget_threshold_one(self):
        from dataclasses import replace
        ion = replace(builtin_profile("trapped-ion"), t2_us=200.0, t2_dd_us=None)
        c = aq.Circuit(2).add("CNOT", 0, 1)  # 100 us = T2 / 2
        assert budget_from_cost(aq.estimate_cost(c, ion), ion, threshold=1.0).ok

    def test_measure_and_reset_priced_as_measurements(self):
        transmon = builtin_profile("superconducting-transmon")
        c = aq.Circuit(1).add("MEASURE", 0).add("RESET", 0)
        cost = aq.estimate_cost(c, transmon)
        assert cost.total_duration_ns == 2 * transmon.measurement.duration_ns
        assert cost.gate_fidelity_product == pytest.approx(
            transmon.measurement.fidelity ** 2, abs=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_PROFILE_NAMES)
    @pytest.mark.parametrize("threshold", [1e-4, 0.01])
    def test_compile_budget_matches_check_coherence_budget(self, name, threshold):
        profile = builtin_profile(name)
        compiled = 0
        for text in ("qubits 1\nMEASURE 0\n", "qubits 2\nH 0\nCNOT 0 1\nMEASURE 1\n"):
            try:
                result = aq.compile_for_device(aq.parse_circuit(text), profile,
                                               budget_threshold=threshold)
            except aq.CompensationError:
                continue
            compiled += 1
            assert result.budget == budget_from_cost(
                aq.estimate_cost(result.circuit, profile), profile, threshold)
        assert compiled >= 1

    def test_compile_costs_the_circuit_once(self, monkeypatch):
        calls = []
        real = cost_module.estimate_cost

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cost_module, "estimate_cost", counting)
        monkeypatch.setattr(pipeline, "estimate_cost", counting)
        circuit = aq.parse_circuit("qubits 3\nH 0\nCNOT 0 2\nRZ 1 0.3\nMEASURE 1\n")
        for name in ("superconducting-transmon", "trapped-ion", "neutral-atom"):
            calls.clear()
            result = aq.compile_for_device(circuit, builtin_profile(name))
            assert calls == [result.circuit]

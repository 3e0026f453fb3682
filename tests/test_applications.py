"""Annealing, quantum walk, and MBQC engines."""

from itertools import permutations, product

import numpy as np
import pytest

import aqmkit as aq
from aqmkit import gates
from aqmkit.annealing import (MAX_ANNEAL_STEPS, MAX_SPINS, _energy, _step_unitary,
                              build_annealing_hamiltonian)
from aqmkit.graphs import ConnectivityGraph
from aqmkit.simulate import embed_gate
from oracles import kron_embed, oracle_place_inputs, oracle_reorder, random_state


def fine_step_anneal(problem, t_final, num_steps=50000):
    """Oracle: same physics, 10x finer first-order product integration."""
    amps = np.array(aq.plus_state(problem.num_spins).amplitudes)
    dt = t_final / num_steps
    for k in range(num_steps):
        t = (k + 0.5) * dt
        h = build_annealing_hamiltonian(problem, 1 - t / t_final, t / t_final)
        amps = _step_unitary(h, dt) @ amps
    return aq.StateVector(amps / np.linalg.norm(amps))


class TestAnnealingHamiltonian:
    def test_final_endpoint_single_spin(self):
        h = build_annealing_hamiltonian(aq.IsingProblem(1, (-1.0,)), 0.0, 1.0)
        assert np.allclose(h, -gates.Z)

    def test_initial_endpoint_is_mixer(self):
        h = build_annealing_hamiltonian(aq.IsingProblem(1, (-1.0,)), 1.0, 0.0)
        assert np.allclose(h, -gates.X)
        values, vectors = np.linalg.eigh(h)
        ground = vectors[:, 0]
        assert aq.fidelity(aq.StateVector(ground), aq.plus_state(1)) >= 1 - 1e-12

    def test_zz_coupling_diagonal(self):
        problem = aq.IsingProblem(2, (0.0, 0.0), ((0, 1, 1.0),))
        h = build_annealing_hamiltonian(problem, 0.0, 1.0)
        assert np.allclose(np.diag(h), [1, -1, -1, 1])
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-12

    def test_hermitian(self):
        problem = aq.IsingProblem(3, (0.3, -0.2, 0.5), ((0, 1, 0.7), (1, 2, -0.4)))
        h = build_annealing_hamiltonian(problem, 0.6, 0.4)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_mixer_vs_kron_oracle(self):
        problem = aq.IsingProblem(3, (0.0, 0.0, 0.0))
        mine = build_annealing_hamiltonian(problem, 1.0, 0.0)
        reference = sum(-kron_embed(gates.X, [i], 3) for i in range(3))
        assert np.max(np.abs(mine - reference)) < 1e-12


class TestAnneal:
    def test_quench_success_half(self):
        result = aq.anneal(aq.IsingProblem(1, (-1.0,)), aq.AnnealSchedule(0.0, 1))
        assert result.success_probability == pytest.approx(0.5, abs=1e-10)

    def test_single_spin_adiabatic(self):
        result = aq.anneal(aq.IsingProblem(1, (-1.0,)), aq.AnnealSchedule(50.0, 5000))
        assert result.success_probability >= 0.99
        oracle = fine_step_anneal(aq.IsingProblem(1, (-1.0,)), 50.0)
        assert aq.fidelity(result.final_state, oracle) >= 1 - 1e-6

    def test_two_spin_antiferromagnet(self):
        problem = aq.IsingProblem(2, (0.0, 0.0), ((0, 1, 1.0),))
        result = aq.anneal(problem, aq.AnnealSchedule(50.0, 5000))
        probs = result.final_state.probabilities()
        assert probs[1] + probs[2] >= 0.99
        oracle = fine_step_anneal(problem, 50.0, 20000)
        assert aq.fidelity(result.final_state, oracle) >= 1 - 1e-5

    def test_sweep_matches_ode_oracle(self):
        """The criterion-5 sweep against scipy's DOP853 on the same Schroedinger equation.

        The reference itself is not monotone in t_final: the linear ramp revives
        near t_final = 5 and rings down after, so success at 20 is below success at 5.
        """
        pytest.importorskip("scipy")
        from scipy.integrate import solve_ivp

        mixer = -np.array([[0, 1], [1, 0]], dtype=complex)      # -X
        cost = np.diag([-1.0, 1.0]).astype(complex)              # h = -1: -Z

        def rhs(t, psi, t_final):
            return -1j * (((1 - t / t_final) * mixer + t / t_final * cost) @ psi)

        problem = aq.IsingProblem(1, (-1.0,))
        reference = {}
        for t_final in (1.0, 5.0, 20.0, 50.0):
            solution = solve_ivp(rhs, (0.0, t_final), np.full(2, 2 ** -0.5, dtype=complex),
                                 method="DOP853", rtol=1e-12, atol=1e-12, args=(t_final,))
            reference[t_final] = abs(solution.y[0, -1]) ** 2
            measured = aq.anneal(problem, aq.AnnealSchedule(t_final, 2000)).success_probability
            assert abs(measured - reference[t_final]) < 1e-6
        assert reference[5.0] > reference[20.0]

    def test_energy_trace_final_entry(self):
        problem = aq.IsingProblem(2, (0.1, -0.3), ((0, 1, 0.5),))
        result = aq.anneal(problem, aq.AnnealSchedule(5.0, 200))
        recomputed = aq.expectation(result.final_state,
                                    build_annealing_hamiltonian(problem, 0.0, 1.0))
        assert abs(result.energies[-1] - recomputed) < 1e-6
        assert len(result.energies) == 201 and result.times[-1] == 5.0

    def test_norm_preserved(self):
        problem = aq.IsingProblem(3, (0.2, -0.1, 0.4), ((0, 2, 1.0),))
        result = aq.anneal(problem, aq.AnnealSchedule(10.0, 500))
        assert abs(np.linalg.norm(result.final_state.amplitudes) - 1) < 1e-8

    def test_matrix_free_energy_matches_dense_expectation(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            problem = aq.IsingProblem(
                n, tuple(rng.normal(size=n)),
                tuple((i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n)))
            diagonal = problem.cost_diagonal()
            for lam0, lam1 in ((1.0, 0.0), (0.0, 1.0), (0.3, 0.7), (-1.2, 2.5)):
                psi = aq.StateVector(random_state(rng, n))
                dense = aq.expectation(psi, build_annealing_hamiltonian(problem, lam0, lam1))
                matrix_free = _energy(psi.amplitudes.reshape((2,) * n), diagonal, lam0, lam1)
                assert abs(matrix_free - dense) < 1e-12

    def test_max_spins_ring_matches_ode_oracle(self):
        """A 12-spin ring against scipy's DOP853 with the Hamiltonian applied matrix-free."""
        pytest.importorskip("scipy")
        from scipy.integrate import solve_ivp

        n, t_final = MAX_SPINS, 1.0
        rng = np.random.default_rng(12)
        problem = aq.IsingProblem(n, tuple(rng.normal(size=n)),
                                  tuple((i, (i + 1) % n, float(rng.normal())) for i in range(n)))
        diagonal = problem.cost_diagonal()
        flips = [np.arange(2 ** n) ^ (1 << i) for i in range(n)]

        def rhs(t, psi):
            mixer = -sum(psi[flip] for flip in flips)
            return -1j * ((1 - t / t_final) * mixer + t / t_final * diagonal * psi)

        solution = solve_ivp(rhs, (0.0, t_final), np.full(2 ** n, 2 ** (-n / 2), dtype=complex),
                             method="DOP853", rtol=1e-12, atol=1e-12)
        reference = solution.y[:, -1]
        result = aq.anneal(problem, aq.AnnealSchedule(t_final, 200))
        assert 1 - aq.fidelity(result.final_state, aq.StateVector(
            reference / np.linalg.norm(reference))) <= 1e-8

    def test_norm_drift_is_reported(self):
        problem = aq.IsingProblem(8, (0.3,) * 8, tuple((i, (i + 1) % 8, -1.0) for i in range(8)))
        result = aq.anneal(problem, aq.AnnealSchedule(10.0, 5000))
        assert 0.0 <= result.max_norm_drift < 1e-10
        assert aq.anneal(problem, aq.AnnealSchedule(0.0, 1)).max_norm_drift == 0.0

    def test_schedule_endpoint_validation(self):
        with pytest.raises(ValueError, match="endpoints"):
            aq.AnnealSchedule(1.0, 10, lambda t: 0.5, lambda t: t)

    def test_schedule_step_cap(self):
        def refuse(t):
            raise AssertionError("evaluated the schedule past the step cap")

        assert aq.AnnealSchedule(1.0, MAX_ANNEAL_STEPS).num_steps == MAX_ANNEAL_STEPS
        with pytest.raises(ValueError, match=str(MAX_ANNEAL_STEPS)):
            aq.AnnealSchedule(1.0, MAX_ANNEAL_STEPS + 1, refuse, refuse)

    def test_schedule_monotonicity_validation(self):
        bump = lambda t: 1 - t + 4 * t * (1 - t)  # noqa: E731 (exact endpoints, not monotone)
        with pytest.raises(ValueError, match="non-increasing"):
            aq.AnnealSchedule(1.0, 10, bump, lambda t: t)


class TestAnnealSuccess:
    def test_ground_state_100_percent(self):
        assert aq.anneal_success(aq.basis_state(1, 0), aq.IsingProblem(1, (-1.0,))) == 1.0

    def test_plus_state_half(self):
        assert aq.anneal_success(aq.plus_state(1), aq.IsingProblem(1, (-1.0,))) \
            == pytest.approx(0.5, abs=1e-12)

    def test_random_problem_vs_exhaustive_scan(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            problem = aq.IsingProblem(
                3, tuple(rng.normal(size=3)),
                tuple((i, j, float(rng.normal())) for i, j in ((0, 1), (1, 2), (0, 2))))
            psi = aq.StateVector(random_state(rng, 3))
            # Oracle: evaluate the Ising cost of each bitstring directly.
            energies = []
            for idx in range(8):
                bits = [(idx >> q) & 1 for q in range(3)]
                z = [1 - 2 * b for b in bits]
                e = sum(h * z[i] for i, h in enumerate(problem.fields))
                e += sum(val * z[i] * z[j] for i, j, val in problem.couplings)
                energies.append(e)
            minimum = min(energies)
            expected = sum(abs(psi.amplitudes[idx]) ** 2
                           for idx in range(8) if energies[idx] <= minimum + 1e-12)
            assert aq.anneal_success(psi, problem) == pytest.approx(expected, abs=1e-12)


class TestEvolve:
    def test_fixed_hamiltonian_phase(self):
        # Z evolution leaves |0> fixed up to phase.
        out = aq.evolve(aq.basis_state(1, 0), gates.Z.astype(complex), 1.3)
        assert aq.fidelity(out, aq.basis_state(1, 0)) >= 1 - 1e-12

    def test_rabi_flip(self):
        # X drive for time pi/... H = X, t = pi/2 maps |0> to -i|1>.
        out = aq.evolve(aq.basis_state(1, 0), gates.X.astype(complex), np.pi / 2, num_steps=10)
        assert aq.fidelity(out, aq.basis_state(1, 1)) >= 1 - 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            aq.evolve(aq.basis_state(1, 0), np.array([[0, 1], [0, 0]], complex), 1.0)


class TestWalk:
    def test_zero_steps(self):
        assert aq.walk_run(aq.WalkSpec(0, 1))[0] == {0: 1.0}

    def test_one_step_hadamard(self):
        dist = aq.walk_run(aq.WalkSpec(1, 1))[1]
        assert dist[-1] == pytest.approx(0.5, abs=1e-12)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)

    def test_two_step_hadamard(self):
        dist = aq.walk_run(aq.WalkSpec(2, 2))[2]
        assert dist[-2] == pytest.approx(0.25, abs=1e-10)
        assert dist[0] == pytest.approx(0.5, abs=1e-10)
        assert dist[2] == pytest.approx(0.25, abs=1e-10)

    def test_distributions_normalized(self):
        history = aq.walk_run(aq.WalkSpec(40, 40))
        for dist in history:
            assert abs(sum(dist.values()) - 1.0) <= 1e-10

    def test_quantum_exponent_ballistic(self):
        alpha = aq.walk_variance_exponent(aq.WalkSpec(100, 100), 10, 100)
        assert 1.8 <= alpha <= 2.05

    def test_classical_exponent_diffusive(self):
        alpha = aq.walk_variance_exponent(aq.WalkSpec(100, 100), 10, 100, classical=True)
        assert 0.9 <= alpha <= 1.1

    def test_classical_matches_binomial_oracle(self):
        from oracles import binomial_walk_distribution
        history = aq.classical_walk_run(aq.WalkSpec(12, 12))
        expected = binomial_walk_distribution(12)
        assert set(history[12]) == set(expected)
        for x, p in expected.items():
            assert history[12][x] == pytest.approx(p, abs=1e-12)

    def test_deterministic_shift_exact_square(self):
        spec = aq.WalkSpec(50, 50, gates.I2, np.array([0.0, 1.0], complex))
        history = aq.walk_run(spec)
        for t in (1, 10, 50):
            assert history[t] == {t: pytest.approx(1.0, abs=1e-12)}
        alpha = aq.walk_variance_exponent(spec, 10, 50)
        assert alpha == pytest.approx(2.0, abs=1e-9)

    def test_boundary_overflow_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            aq.WalkSpec(5, 4)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ValueError, match="degenerate|t_min"):
            aq.walk_variance_exponent(aq.WalkSpec(10, 10), 5, 6)

    def test_exponent_window_beyond_line_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            aq.walk_variance_exponent(aq.WalkSpec(10, 10), 5, 20)


class TestClusterState:
    def test_two_qubit_cluster(self):
        graph = ConnectivityGraph.from_edges(2, [(0, 1)])
        state = aq.build_cluster_state(graph)
        assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2)

    def test_no_edges_gives_plus(self):
        state = aq.build_cluster_state(ConnectivityGraph.from_edges(3, []))
        assert aq.fidelity(state, aq.plus_state(3)) >= 1 - 1e-12

    def test_edge_order_irrelevant(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        reference = None
        for order in list(permutations(edges))[:8]:
            amps = np.array(aq.plus_state(4).amplitudes)
            for a, b in order:
                amps = embed_gate(gates.CZ, [a, b], 4) @ amps
            if reference is None:
                reference = amps
            assert np.max(np.abs(amps - reference)) < 1e-12
        built = aq.build_cluster_state(ConnectivityGraph.from_edges(4, edges))
        assert np.max(np.abs(built.amplitudes - reference)) < 1e-12

    def test_stabilizers_fix_cluster(self):
        for graph in (ConnectivityGraph.line(5), ConnectivityGraph.grid(2, 3)):
            state = aq.build_cluster_state(graph)
            for a in range(graph.num_qubits):
                op = embed_gate(gates.X, [a], graph.num_qubits)
                for b in graph.neighbors(a):
                    op = op @ embed_gate(gates.Z, [b], graph.num_qubits)
                value = np.vdot(state.amplitudes, op @ state.amplitudes).real
                assert abs(value - 1.0) <= 1e-10


class TestMbqc:
    def test_teleport_identity_both_outcomes(self):
        graph = ConnectivityGraph.line(2)
        pattern = aq.MeasurementPattern(
            graph, (aq.PatternStep(0, 0.0),), outputs=(1,), inputs=(0,),
            byproducts=(aq.ByproductRule("X", 1, (0,)),))
        expected = aq.StateVector(gates.H @ np.array([1, 0], complex))
        for outcome in (0, 1):
            result = aq.mbqc_execute(pattern, aq.basis_state(1, 0),
                                     forced_outcomes=[outcome])
            assert aq.fidelity(result.output_state, expected) >= 1 - 1e-12

    def test_euler_pattern_matches_circuit(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            t1, t2, t3 = rng.uniform(-np.pi, np.pi, size=3)
            pattern = aq.euler_rotation_pattern(t1, t2, t3)
            psi = aq.StateVector(random_state(rng, 1))
            oracle = aq.Circuit(1)
            oracle.add("RX", 0, angle=t1).add("RZ", 0, angle=t2).add("RX", 0, angle=t3)
            expected, _ = aq.apply_circuit(oracle, psi)
            for branch in product((0, 1), repeat=4):
                result = aq.mbqc_execute(pattern, psi, forced_outcomes=branch)
                assert aq.fidelity(result.output_state, expected) >= 1 - 1e-9

    def test_cnot_pattern_matches_circuit(self):
        rng = np.random.default_rng(72)
        pattern = aq.cnot_pattern()
        oracle_unitary = embed_gate(gates.CNOT, [1, 0], 2)
        for _ in range(5):
            psi = aq.StateVector(random_state(rng, 2))
            expected = aq.StateVector(oracle_unitary @ psi.amplitudes)
            for branch in product((0, 1), repeat=2):
                result = aq.mbqc_execute(pattern, psi, forced_outcomes=branch)
                assert aq.fidelity(result.output_state, expected) >= 1 - 1e-9

    def test_deterministic_patterns_outcome_independent(self):
        rng = np.random.default_rng(73)
        pattern = aq.euler_rotation_pattern(0.4, -1.1, 2.2)
        psi = aq.StateVector(random_state(rng, 1))
        outputs = [aq.mbqc_execute(pattern, psi, forced_outcomes=branch).output_state
                   for branch in product((0, 1), repeat=4)]
        for other in outputs[1:]:
            assert aq.fidelity(outputs[0], other) >= 1 - 1e-9

    @pytest.mark.parametrize("nodes, inputs, outputs", [
        (3, (2, 0, 1), (1, 2, 0)),
        (3, (1, 2, 0), (1, 2, 0)),
        (4, (3, 1), (2, 0, 3, 1)),
        (5, (4, 0, 2), (1, 3, 0, 4, 2)),
    ])
    def test_unsorted_inputs_and_outputs_match_index_loop(self, nodes, inputs, outputs):
        # With no edges and no measurements a pattern only relabels: the input
        # rides on `inputs`, |+> fills the rest, and the result is read in
        # `outputs` order. The loops in oracles.py do each step index by index.
        rng = np.random.default_rng(74)
        pattern = aq.MeasurementPattern(ConnectivityGraph.from_edges(nodes, []), (),
                                        outputs=outputs, inputs=inputs)
        psi = aq.StateVector(random_state(rng, len(inputs)))
        register = oracle_place_inputs(psi.amplitudes, inputs, nodes)
        expected = oracle_reorder(register, list(range(nodes)), outputs)
        result = aq.mbqc_execute(pattern, psi)
        assert np.array_equal(result.output_state.amplitudes, expected)

    def test_outputs_reordered_after_measurement(self):
        # Qubit 1 starts in |+> and is measured in the X basis, so outcome 0 is
        # certain and leaves the other qubits as they were, in live order 0, 2, 3.
        rng = np.random.default_rng(75)
        inputs, outputs = (3, 0), (2, 3, 0)
        pattern = aq.MeasurementPattern(ConnectivityGraph.from_edges(4, []),
                                        (aq.PatternStep(1, 0.0),), outputs=outputs,
                                        inputs=inputs)
        psi = aq.StateVector(random_state(rng, 2))
        survivors = oracle_place_inputs(psi.amplitudes, (2, 0), 3)
        expected = oracle_reorder(survivors, [0, 2, 3], outputs)
        result = aq.mbqc_execute(pattern, psi, forced_outcomes=[0])
        assert np.allclose(result.output_state.amplitudes, expected, rtol=0, atol=1e-12)

    def test_sampled_execution_deterministic_per_seed(self):
        pattern = aq.euler_rotation_pattern(0.3, 0.5, 0.7)
        first = aq.mbqc_execute(pattern, seed=9)
        second = aq.mbqc_execute(pattern, seed=9)
        assert first.outcomes == second.outcomes

    def test_future_reference_rejected(self):
        graph = ConnectivityGraph.line(3)
        with pytest.raises(ValueError, match="not measured earlier"):
            aq.MeasurementPattern(
                graph, (aq.PatternStep(0, 0.0, sign_deps=(1,)), aq.PatternStep(1, 0.0)),
                outputs=(2,))

    def test_order_must_cover_non_outputs(self):
        graph = ConnectivityGraph.line(3)
        with pytest.raises(ValueError, match="cover"):
            aq.MeasurementPattern(graph, (aq.PatternStep(0, 0.0),), outputs=(2,))

    def test_pattern_file_round_trip(self):
        import json
        data = {
            "nodes": 5,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
            "inputs": [0],
            "order": [0, 1, 2, 3],
            "angles": [0.0, -0.4, -0.9, -1.4],
            "adaptivity": [None, "(-1)^s[0] * theta", "(-1)^s[1] * theta",
                           "(-1)^(s[0]+s[2]) * theta"],
            "outputs": [4],
            "byproducts": [{"type": "X", "qubit": 4, "deps": [1, 3]},
                           {"type": "Z", "qubit": 4, "deps": [0, 2]}],
        }
        pattern = aq.parse_pattern(json.dumps(data))
        assert pattern == aq.euler_rotation_pattern(0.4, 0.9, 1.4)

    def test_bad_adaptivity_expression(self):
        import json
        data = {"nodes": 2, "edges": [[0, 1]], "order": [0], "angles": [0.0],
                "adaptivity": ["s[0] + theta"], "outputs": [1]}
        with pytest.raises(ValueError, match="adaptivity"):
            aq.parse_pattern(json.dumps(data))

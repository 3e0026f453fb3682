"""Annealing, quantum walk, and MBQC engines."""

import hashlib
import io
import json
import math
import tracemalloc
import warnings
from contextlib import redirect_stdout
from itertools import permutations, product

import numpy as np
import pytest

import aqmkit as aq
from aqmkit import annealing, gates, mbqc
from aqmkit.annealing import (MAX_ANNEAL_STEPS, MAX_SPINS, _energy_terms, _hamming,
                              build_annealing_hamiltonian)
from aqmkit.graphs import ConnectivityGraph
from aqmkit.cli import main
from aqmkit.simulate import MAX_SIM_QUBITS, apply_gate, embed_gate
from oracles import (kron_embed, oracle_mbqc_execute, oracle_place_inputs, oracle_reorder,
                     oracle_strang_anneal, random_state)


def fine_step_anneal(problem, t_final, num_steps=50000):
    """Oracle: same physics, 10x finer first-order product integration."""
    amps = np.array(aq.plus_state(problem.num_spins).amplitudes)
    dt = t_final / num_steps
    for k in range(num_steps):
        t = (k + 0.5) * dt
        h = build_annealing_hamiltonian(problem, 1 - t / t_final, t / t_final)
        eigenvalues, eigenvectors = np.linalg.eigh(h)
        amps = (eigenvectors * np.exp(-1j * eigenvalues * dt)) @ eigenvectors.conj().T @ amps
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
            shape = (2 ** (n // 2), 2 ** (n - n // 2))
            diagonal = problem.cost_diagonal().reshape(shape)
            adjacency = [(_hamming(k) == 1).astype(float) for k in (n // 2, n - n // 2)]
            for lam0, lam1 in ((1.0, 0.0), (0.0, 1.0), (0.3, 0.7), (-1.2, 2.5)):
                psi = aq.StateVector(random_state(rng, n))
                dense = aq.expectation(psi, build_annealing_hamiltonian(problem, lam0, lam1))
                (mixer,), (cost,) = _energy_terms(psi.amplitudes.reshape((1,) + shape),
                                                  diagonal, adjacency)
                assert abs(-lam0 * mixer + lam1 * cost - dense) < 1e-12

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

    def test_nan_at_a_step_midpoint_is_rejected(self):
        # The grid 0, 1/4, ..., 1 is finite and monotone, so the schedule is
        # accepted; the first step's midpoint 1/8 is not on it.
        lam1 = lambda t: math.nan if t == 0.125 else t  # noqa: E731
        schedule = aq.AnnealSchedule(1.0, 4, lambda t: 1 - t, lam1)
        with pytest.raises(ValueError, match="schedule values must be finite"):
            aq.anneal(aq.IsingProblem(2, (0.3, -0.7), ((0, 1, 0.5),)), schedule)

    def test_schedule_evaluated_once_per_point(self):
        # The schedule evaluates the grid for its checks; anneal reuses those
        # values and evaluates only the step midpoints.
        seen = []

        def lam1(t):
            seen.append(t)
            return t / 2.0

        schedule = aq.AnnealSchedule(2.0, 8, lambda t: 1 - t / 2.0, lam1)
        assert seen == [k / 4 for k in range(9)]
        seen.clear()
        result = aq.anneal(aq.IsingProblem(2, (0.3, -0.7), ((0, 1, 0.5),)), schedule)
        assert seen == [(k + 0.5) / 4 for k in range(8)]
        assert result.times.tolist() == [k / 4 for k in range(9)]

    @pytest.mark.parametrize("t_final, steps", [(1.0, 49), (1e-320, 3)])
    def test_trace_ends_at_t_final(self, t_final, steps):
        """(k + 1) dt misses t_final at 49 steps; at 1e-320 dt is subnormal."""
        problem = aq.IsingProblem(3, (0.4, -1.0, 0.2), ((0, 1, 0.5), (1, 2, -0.8)))
        result = aq.anneal(problem, aq.AnnealSchedule(t_final, steps))
        assert result.times[-1] == t_final and len(result.times) == steps + 1
        final = aq.expectation(result.final_state, build_annealing_hamiltonian(problem, 0, 1))
        assert abs(result.energies[-1] - final) < 1e-12

    def test_overflowing_step_is_refused_before_stepping(self):
        # t_final is finite, but dt * lam1 * max|H1| is not: refused up front,
        # with no numpy warning on the way.
        problem = aq.IsingProblem(2, (3.0, 2.0), ((0, 1, 5.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"t_final = 1\.7e\+308 over 1 steps"):
                aq.anneal(problem, aq.AnnealSchedule(1.7e308, 1))

    def test_overflowing_cost_is_refused_at_construction(self):
        # Every term is finite, but the cost diagonal would overflow: refused
        # with no numpy warning, before any schedule is read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the sum of \|h\| and \|J\| must be finite$"):
                aq.IsingProblem(2, (1e308, 1e308), ((0, 1, 1e308),))
            with pytest.raises(ValueError, match="must be finite"):
                aq.IsingProblem.from_json('{"n": 2, "h": [0, 0], "J": [[0, 1, 1e308], [1, 0, -1e308]]}')
            edge = aq.IsingProblem(1, (1.7e308,))
            assert aq.anneal_success(aq.plus_state(1), edge) == pytest.approx(0.5)


class TestAnnealBlocks:
    """`anneal` advances a block of steps at a time; the block length must not matter."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", range(1, MAX_SPINS + 1))
    def test_block_length_leaves_results_unchanged(self, n, block, monkeypatch):
        problem = _problem(n, "ring", np.random.default_rng(n))
        for schedule in (aq.AnnealSchedule(1.0, 10), aq.AnnealSchedule(2.0, 23)):
            default = aq.anneal(problem, schedule)
            monkeypatch.setattr(annealing, "_BLOCK_BYTES", block * 16 * 2 ** n)
            blocked = aq.anneal(problem, schedule)
            monkeypatch.undo()
            assert np.array_equal(blocked.final_state.amplitudes, default.final_state.amplitudes)
            assert blocked.max_norm_drift == default.max_norm_drift
            assert blocked.success_probability == default.success_probability
            assert np.all(np.abs(blocked.energies - default.energies)
                          <= 1e-12 * (1 + np.abs(default.energies)))

    def test_memory_grows_by_the_step_tables_alone(self):
        """Traced peak of a MAX_SPINS anneal: at most about 300 B more per step."""
        n = MAX_SPINS
        problem = aq.IsingProblem(n, (0.5,) * n, tuple((i, (i + 1) % n, -1.0) for i in range(n)))
        peaks = {}
        for steps in (500, 5000):
            schedule = aq.AnnealSchedule(1.0, steps)
            tracemalloc.start()
            try:
                aq.anneal(problem, schedule)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[5000] - peaks[500] <= 300 * 4500


def _problem(n, couplings, rng):
    pairs = ([(i, (i + 1) % n) for i in range(n)] if couplings == "ring" and n > 2
             else [(i, j) for i in range(n) for j in range(i + 1, n)])
    return aq.IsingProblem(n, tuple(rng.normal(size=n)),
                           tuple((i, j, float(rng.normal())) for i, j in pairs))


def _schedules():
    yield aq.AnnealSchedule(1.0, 49)
    yield aq.AnnealSchedule(3.0, 37, lambda t: (1 - t / 3.0) ** 2,
                            lambda t: math.sin(math.pi * t / 6.0))
    yield aq.AnnealSchedule(0.0, 5)


class TestAnnealVsStrangOracle:
    """The two-block-product engine against the per-axis Strang loop."""

    @pytest.mark.parametrize("couplings", ["ring", "all"])
    @pytest.mark.parametrize("n", range(1, MAX_SPINS + 1))
    def test_matches_per_axis_loop(self, n, couplings):
        problem = _problem(n, couplings, np.random.default_rng(100 * n + len(couplings)))
        for schedule in _schedules():
            result, oracle = aq.anneal(problem, schedule), oracle_strang_anneal(problem, schedule)
            assert np.max(np.abs(result.final_state.amplitudes
                                 - oracle.final_state.amplitudes)) <= 1e-12
            assert np.all(np.abs(result.energies - oracle.energies)
                          <= 1e-12 * (1 + np.abs(oracle.energies)))
            assert np.array_equal(result.times[:-1], oracle.times[:-1])
            assert result.times[-1] == schedule.t_final
            assert abs(oracle.times[-1] - schedule.t_final) <= 1e-15 * schedule.t_final


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
        out = aq.evolve(aq.basis_state(1, 0), gates.X.astype(complex), np.pi / 2)
        assert aq.fidelity(out, aq.basis_state(1, 1)) >= 1 - 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            aq.evolve(aq.basis_state(1, 0), np.array([[0, 1], [0, 0]], complex), 1.0)

    def test_rejects_non_finite_hamiltonian(self):
        with pytest.raises(ValueError, match="must be Hermitian"):
            aq.evolve(aq.basis_state(1, 0), np.full((2, 2), np.nan), 1.0)


class TestWalk:
    def test_zero_steps(self):
        assert aq.walk_run(aq.WalkSpec(0))[0] == {0: 1.0}

    def test_one_step_hadamard(self):
        dist = aq.walk_run(aq.WalkSpec(1))[1]
        assert dist[-1] == pytest.approx(0.5, abs=1e-12)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)

    def test_two_step_hadamard(self):
        dist = aq.walk_run(aq.WalkSpec(2))[2]
        assert dist[-2] == pytest.approx(0.25, abs=1e-10)
        assert dist[0] == pytest.approx(0.5, abs=1e-10)
        assert dist[2] == pytest.approx(0.25, abs=1e-10)

    def test_distributions_normalized(self):
        history = aq.walk_run(aq.WalkSpec(40))
        for dist in history:
            assert abs(sum(dist.values()) - 1.0) <= 1e-10

    def test_quantum_exponent_ballistic(self):
        alpha = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100)
        assert 1.8 <= alpha <= 2.05

    def test_classical_exponent_diffusive(self):
        alpha = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100, classical=True)
        assert 0.9 <= alpha <= 1.1

    def test_classical_matches_binomial_oracle(self):
        from oracles import binomial_walk_distribution
        history = aq.classical_walk_run(aq.WalkSpec(12))
        expected = binomial_walk_distribution(12)
        assert set(history[12]) == set(expected)
        for x, p in expected.items():
            assert history[12][x] == pytest.approx(p, abs=1e-12)

    def test_deterministic_shift_exact_square(self):
        spec = aq.WalkSpec(50, gates.I2, np.array([0.0, 1.0], complex))
        history = aq.walk_run(spec)
        for t in (1, 10, 50):
            assert history[t] == {t: pytest.approx(1.0, abs=1e-12)}
        alpha = aq.walk_variance_exponent(spec, 10, 50)
        assert alpha == pytest.approx(2.0, abs=1e-9)

    def test_line_half_width_is_num_steps(self):
        # The line is -num_steps..num_steps, and both ends are reached.
        dist = aq.walk_run(aq.WalkSpec(3, gates.I2, np.array([0.0, 1.0], complex)))[3]
        assert dist == {3: pytest.approx(1.0, abs=1e-12)}
        assert min(aq.walk_run(aq.WalkSpec(3, gates.I2))[3]) == -3

    def test_former_width_argument_rejected(self):
        # The second positional argument is the coin now; a width there fails loudly.
        with pytest.raises(ValueError, match="coin_unitary"):
            aq.WalkSpec(5, 5)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ValueError, match="degenerate|t_min"):
            aq.walk_variance_exponent(aq.WalkSpec(10), 5, 6)

    def test_exponent_window_sets_the_walk_length(self):
        # The fit runs t_max steps whatever num_steps the spec carries.
        assert aq.walk_variance_exponent(aq.WalkSpec(10), 5, 20) == \
            aq.walk_variance_exponent(aq.WalkSpec(20), 5, 20)


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


def cz_loop(amps, edges, n):
    """Reference entangler: one apply_gate(CZ) contraction per edge, in sorted order."""
    for a, b in sorted(edges):
        amps = apply_gate(amps, gates.CZ, [a, b], n)
    return amps


def run_mbqc_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["mbqc", *argv])
    return code, out.getvalue()


def grid_pattern_json(rng):
    """4x4 grid: inputs on column 0, outputs on column 3, columns 0-2 measured."""
    node = lambda r, c: 4 * r + c  # noqa: E731
    edges = [[node(r, c), node(r, c + 1)] for r in range(4) for c in range(3)]
    edges += [[node(r, c), node(r + 1, c)] for r in range(3) for c in range(4)]
    measured = [(r, c) for c in range(3) for r in range(4)]
    return json.dumps({
        "nodes": 16, "edges": edges, "order": [node(r, c) for r, c in measured],
        "angles": [float(a) for a in rng.uniform(-np.pi, np.pi, size=len(measured))],
        "outputs": [node(r, 3) for r in range(4)], "inputs": [node(r, 0) for r in range(4)],
        "adaptivity": [None if c == 0 else f"(-1)^s[{node(r, c - 1)}] * theta"
                       for r, c in measured],
        "byproducts": [{"type": kind, "qubit": node(r, 3), "deps": [node(r, col)]}
                       for r in range(4) for kind, col in (("X", 2), ("Z", 1))]})


class TestEntangling:
    def test_sign_flips_match_cz_loop_bytes_on_plus(self):
        rng = np.random.default_rng(81)
        graphs = [ConnectivityGraph.grid(4, 4), ConnectivityGraph.complete(6)]
        for n in range(1, 13):
            for _ in range(3):
                graphs.append(ConnectivityGraph.from_edges(
                    n, [(a, b) for a in range(n) for b in range(a + 1, n)
                        if rng.random() < 0.4]))
        for graph in graphs:
            n = graph.num_qubits
            plus = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
            expected = cz_loop(plus, graph.edges, n)
            assert aq.build_cluster_state(graph).amplitudes.tobytes() == expected.tobytes()

    def test_sign_flips_match_cz_loop_on_inputs_with_zeros(self, monkeypatch):
        # Every branch of random patterns whose input states hold zero
        # amplitudes: the executor with the reference entangler patched in
        # gives the same values (a zero may differ in sign) or the same refusal.
        def reference(amps, edges, n):
            amps[:] = cz_loop(amps, edges, n)

        rng = np.random.default_rng(82)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            qubits = [int(q) for q in rng.permutation(n)]
            num_outputs = int(rng.integers(1, 3))
            inputs = tuple(qubits[:int(rng.integers(1, 4))])
            outputs = tuple(qubits[n - num_outputs:])
            steps = tuple(aq.PatternStep(q, float(rng.uniform(-np.pi, np.pi)))
                          for q in qubits[:n - num_outputs])
            graph = ConnectivityGraph.from_edges(
                n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5])
            pattern = aq.MeasurementPattern(graph, steps, outputs=outputs, inputs=inputs)
            amps = random_state(rng, len(inputs))
            amps[rng.random(amps.size) < 0.5] = 0.0
            amps[int(rng.integers(amps.size))] = 1.0
            psi = aq.StateVector(amps / np.linalg.norm(amps))
            for branch in product((0, 1), repeat=len(steps)):
                results = []
                for entangle in (reference, mbqc._entangle):
                    with monkeypatch.context() as patch:
                        patch.setattr(mbqc, "_entangle", entangle)
                        try:
                            result = aq.mbqc_execute(pattern, psi, forced_outcomes=branch)
                        except ValueError as exc:
                            results.append(str(exc))
                        else:
                            results.append(result.output_state.amplitudes)
                if isinstance(results[0], str):
                    assert results[1] == results[0]
                else:
                    assert np.array_equal(results[0], results[1])

    def test_input_state_left_unchanged(self):
        rng = np.random.default_rng(83)
        for pattern in (aq.euler_rotation_pattern(0.4, -1.1, 2.2), aq.cnot_pattern()):
            psi = aq.StateVector(random_state(rng, len(pattern.inputs)))
            before = psi.amplitudes.tobytes()
            aq.mbqc_execute(pattern, psi, seed=3)
            assert psi.amplitudes.tobytes() == before

    def test_twenty_node_line_pattern_runs(self, tmp_path):
        nodes = 20
        path = tmp_path / "line.json"
        path.write_text(json.dumps({
            "nodes": nodes, "edges": [[q, q + 1] for q in range(nodes - 1)],
            "order": list(range(nodes - 1)), "angles": [0.0] * (nodes - 1),
            "outputs": [nodes - 1]}))
        code, out = run_mbqc_cli("--pattern", str(path), "--seed", "1", "--json")
        assert code == 0 and len(json.loads(out)["output_amplitudes"]) == 2

    def test_seeded_stdout_is_pinned(self, tmp_path):
        # Prefixes of the sha256 of stdout as the live-register executor prints
        # it, with both branches of a step from one contraction. Projecting each
        # branch with its own tensordot printed a91ef5374526b22c and
        # 0d5bc2a21fdc88e6, and the whole-register executor 4f73837bcbf8f3be
        # and 9ce03a6998b4782c: their outcomes and byproducts were the ones
        # below, and their amplitudes (`oracle_mbqc_execute`) agree within 1e-12.
        path = tmp_path / "grid.json"
        path.write_text(grid_pattern_json(np.random.Generator(np.random.PCG64(5))))
        grid_outcomes = {"0": 1, "1": 0, "2": 0, "4": 1, "5": 0, "6": 1, "8": 1, "9": 0,
                         "10": 1, "12": 0, "13": 0, "14": 0}
        grid_byproduct = {"3": {"x": 0, "z": 0}, "7": {"x": 1, "z": 0},
                          "11": {"x": 1, "z": 0}, "15": {"x": 0, "z": 0}}
        euler_outcomes = {"0": 1, "1": 1, "2": 1, "3": 0}
        for argv, pattern, prefix, outcomes, byproduct in (
                (["--pattern", str(path)], aq.parse_pattern(path.read_text()),
                 "30f4ae11b7efe17a", grid_outcomes, grid_byproduct),
                (["--euler", "0.1", "0.2", "0.3"], aq.euler_rotation_pattern(0.1, 0.2, 0.3),
                 "d0c505890f675533", euler_outcomes, {"4": {"x": 1, "z": 0}})):
            code, out = run_mbqc_cli(*argv, "--seed", "5", "--json")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)
            payload = json.loads(out)
            assert payload["outcomes"] == outcomes and payload["byproduct"] == byproduct
            amplitudes = np.array([complex(*pair) for pair in payload["output_amplitudes"]])
            oracle = oracle_mbqc_execute(pattern, seed=5).output_state.amplitudes
            assert np.max(np.abs(amplitudes - oracle)) <= 1e-12


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

    def test_one_contraction_per_measured_node(self, monkeypatch):
        # With no byproducts, every apply_gate call is a measurement step's
        # contraction; both branches come from it, so outcome 1 costs no second one.
        rng = np.random.default_rng(73)
        graph = ConnectivityGraph.grid(2, 4)
        order = [0, 4, 1, 5, 2, 6]
        pattern = aq.MeasurementPattern(
            graph, tuple(aq.PatternStep(q, float(a))
                         for q, a in zip(order, rng.uniform(-np.pi, np.pi, len(order)))),
            outputs=(3, 7), inputs=(0, 4))
        psi = aq.StateVector(random_state(rng, 2))
        calls = []

        def counting(*args):
            calls.append(args[1].shape)
            return apply_gate(*args)

        monkeypatch.setattr(mbqc, "apply_gate", counting)
        forced = [1] * len(order)
        result = aq.mbqc_execute(pattern, psi, forced_outcomes=forced)
        assert calls == [(2, 2)] * len(order)
        assert result.outcomes == dict.fromkeys(order, 1)
        oracle = oracle_mbqc_execute(pattern, psi, forced_outcomes=forced)
        assert np.max(np.abs(result.output_state.amplitudes
                             - oracle.output_state.amplitudes)) <= 1e-12

    def test_sampled_execution_deterministic_per_seed(self):
        pattern = aq.euler_rotation_pattern(0.3, 0.5, 0.7)
        first = aq.mbqc_execute(pattern, seed=9)
        second = aq.mbqc_execute(pattern, seed=9)
        assert first.outcomes == second.outcomes

    def test_live_width_cap_rejects_before_executing(self, monkeypatch):
        # A 25-leaf star whose centre is measured first: all 26 nodes are live
        # at once. The refusal comes before the executor's first step.
        def refuse(*args, **kwargs):
            raise AssertionError("executed a pattern past the live-width cap")

        monkeypatch.setattr(mbqc, "generator", refuse)
        graph = ConnectivityGraph.from_edges(26, [(0, leaf) for leaf in range(1, 26)])
        pattern = aq.MeasurementPattern(
            graph, tuple(aq.PatternStep(q, 0.0) for q in range(25)), outputs=(25,))
        assert mbqc.live_width(pattern) == 26
        message = f"live width of 26 qubits; at most {MAX_SIM_QUBITS}"
        with pytest.raises(ValueError, match=message):
            aq.mbqc_execute(pattern)

    def test_future_reference_rejected(self):
        graph = ConnectivityGraph.line(3)
        with pytest.raises(ValueError, match="not measured earlier"):
            aq.MeasurementPattern(
                graph, (aq.PatternStep(0, 0.0, sign_deps=(1,)), aq.PatternStep(1, 0.0)),
                outputs=(2,))

    def test_empty_outputs_rejected(self):
        with pytest.raises(ValueError, match="at least one output qubit"):
            aq.MeasurementPattern(ConnectivityGraph.line(1), (aq.PatternStep(0, 0.0),),
                                  outputs=())

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

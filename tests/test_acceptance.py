"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Each line states the same conditions its test asserts.
"""

import json
import time
from itertools import product

import numpy as np

import aqmkit as aq
from aqmkit import gates
from aqmkit.demand import BUILTIN_DEMAND_NAMES, builtin_demand
from aqmkit.devices import builtin_profile
from aqmkit.graphs import ConnectivityGraph
from aqmkit.simulate import circuit_unitary, embed_gate
from oracles import (connected_graphs, haar_unitary, oracle_circuit_unitary, random_circuit,
                     random_measurement_set, random_state)
from test_measure import trine_set

DISCRETE_BASIS = {"H", "T", "TDG", "S", "SDG", "X", "Y", "Z", "RX", "RY", "RZ", "CNOT"}


def report(number: int, passed: bool, description: str):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} {description}")
    return passed


def test_criterion_1_semantics_core():
    rng = np.random.default_rng(1001)
    worst_fidelity = 1.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 13)))
        start = aq.StateVector(random_state(rng, n))
        state, _ = aq.apply_circuit(circuit, start)
        expected = oracle_circuit_unitary(circuit) @ start.amplitudes
        worst_fidelity = min(worst_fidelity, abs(np.vdot(expected, state.amplitudes)) ** 2)
    worst_sum_error = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        mset = aq.MeasurementOperatorSet(
            n, tuple(random_measurement_set(rng, n, int(rng.integers(1, 6)))))
        psi = aq.StateVector(random_state(rng, n))
        total = sum(p for p, _ in aq.measurement_branches(mset, psi))
        worst_sum_error = max(worst_sum_error, abs(total - 1.0))
    ok = worst_fidelity >= 1 - 1e-10 and worst_sum_error <= 1e-9
    assert report(1, ok, f"500 random circuits vs matrix-chain oracle "
                         f"(worst fidelity {worst_fidelity:.3e} from 1, "
                         f"worst prob-sum error {worst_sum_error:.3e})")


def test_criterion_2_routing():
    rng = np.random.default_rng(1002)
    worst = 0.0
    checked = 0
    for n in (2, 3, 4):
        for graph in connected_graphs(n):
            for _ in range(100):
                circuit = random_circuit(rng, n, int(rng.integers(1, 13)))
                routed = aq.route_circuit(circuit, graph)
                expanded = aq.rewrite_to_basis(routed, DISCRETE_BASIS)
                distance = aq.phase_invariant_distance(
                    circuit_unitary(expanded), oracle_circuit_unitary(circuit))
                worst = max(worst, distance)
                checked += 1
    counts_ok = True
    for hops in range(1, 5):
        line = ConnectivityGraph.line(hops + 1)
        single = aq.Circuit(hops + 1).add("CNOT", 0, hops)
        expanded = aq.rewrite_to_basis(aq.route_circuit(single, line), DISCRETE_BASIS)
        counts_ok &= expanded.gate_counts()["CNOT"] == 6 * (hops - 1) + 1
    ok = worst < 1e-9 and counts_ok
    assert report(2, ok, f"{checked} routed circuits across all connected graphs on "
                         f"<=4 nodes (worst distance {worst:.3e}); "
                         f"6(h-1)+1 CNOT counts {'hold' if counts_ok else 'violated'}")


def test_criterion_3_decomposition():
    t_result = aq.approximate_single_qubit(
        aq.ApproximationRequest(gates.rz(np.pi / 4), ("H", "T"), 1e-12, 1))
    t_ok = t_result.achieved and t_result.distance < 1e-12
    rng = np.random.default_rng(1003)
    monotone = True
    for _ in range(20):
        target = haar_unitary(rng)
        best = [aq.approximate_single_qubit(
            aq.ApproximationRequest(target, ("H", "T", "TDG"), 1e-13, depth)).distance
            for depth in range(13)]
        monotone &= all(b <= a + 1e-12 for a, b in zip(best, best[1:]))
    ok = t_ok and monotone
    assert report(3, ok, f"T-from-RZ(pi/4) depth-1 distance {t_result.distance:.3e}; "
                         f"20 random targets monotone to depth 12: {monotone}")


def test_criterion_4_naimark_dilation():
    rng = np.random.default_rng(1004)
    worst_tv = 0.0
    worst_fidelity = 1.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        mset = aq.MeasurementOperatorSet(1, tuple(random_measurement_set(rng, 1, k)))
        dilated = aq.synthesize_measurement(mset)
        psi = aq.StateVector(random_state(rng, 1))
        direct = aq.measurement_branches(mset, psi)
        synthesized = dilated.branches(psi)
        tv = 0.5 * sum(abs(p - q) for (p, _), (q, _) in zip(direct, synthesized))
        worst_tv = max(worst_tv, tv)
        for (p, direct_post), (_, synth_post) in zip(direct, synthesized):
            if direct_post is not None:
                worst_fidelity = min(worst_fidelity, aq.fidelity(direct_post, synth_post))
    trine = aq.synthesize_measurement(trine_set())
    probs = np.array([p for p, _ in trine.branches(aq.basis_state(1, 0))])
    trine_ok = np.max(np.abs(probs - [2 / 3, 1 / 6, 1 / 6])) < 1e-10
    ok = worst_tv <= 1e-9 and worst_fidelity >= 1 - 1e-9 and trine_ok
    assert report(4, ok, f"50 random dilations: worst TV {worst_tv:.3e}, worst post-state "
                         f"fidelity {worst_fidelity:.12f}; trine on |0> = (2/3, 1/6, 1/6): "
                         f"{trine_ok}")


# Adiabatic theorem with an explicit constant (Jansen, Ruskai & Seiler,
# J. Math. Phys. 48, 102111, 2007, Thm. 3). For a non-degenerate ground state
# of H(s), s = t/T, with gap g(s), the evolved and instantaneous ground-state
# projectors end at most C/T apart in norm, where
#   C = ||H'(0)||/g(0)^2 + ||H'(1)||/g(1)^2 + int_0^1 (||H''||/g^2 + 7||H'||^2/g^3) ds.
# For pure states that norm is sqrt(1 - P(T)), so 1 - P(T) <= (C/T)^2.
# One spin, h = -1: H(s) = (1-s)(-X) + s(-Z), so H' = X - Z with norm sqrt(2),
# H'' = 0 and g(s) = 2 sqrt((1-s)^2 + s^2), g(0) = g(1) = 2. The integral is
# (7/4) int_0^1 ((1-s)^2 + s^2)^(-3/2) ds = 7/2, so C = sqrt(2)/2 + 7/2.
# The bound asks nothing of the order of the sweep: with an abrupt start and
# end, the leftover amplitude oscillates in T, so success is not monotone.
SINGLE_SPIN_ADIABATIC_C = np.sqrt(2) / 2 + 7 / 2


def test_criterion_5_annealing():
    start = time.time()
    single = aq.IsingProblem(1, (-1.0,))
    quench = aq.anneal(single, aq.AnnealSchedule(0.0, 1)).success_probability
    slow = aq.anneal(single, aq.AnnealSchedule(50.0, 5000)).success_probability
    pair = aq.IsingProblem(2, (0.0, 0.0), ((0, 1, 1.0),))
    afm = aq.anneal(pair, aq.AnnealSchedule(50.0, 5000)).success_probability
    t_grid = (1, 5, 20, 50)
    sweep = [aq.anneal(single, aq.AnnealSchedule(float(t), 2000)).success_probability
             for t in t_grid]
    limits = [(SINGLE_SPIN_ADIABATIC_C / t) ** 2 for t in t_grid]
    elapsed = time.time() - start
    within_bound = all(1 - p <= limit for p, limit in zip(sweep, limits))
    ok = (abs(quench - 0.5) < 1e-12 and slow >= 0.99 and afm >= 0.99
          and within_bound and elapsed < 30)
    assert report(5, ok, f"quench {quench:.6f}, t=50 {slow:.6f}, antiferromagnet {afm:.6f}, "
                         f"sweep over t_final {t_grid}: 1-P = "
                         f"{[f'{1 - p:.3e}' for p in sweep]} <= (C/T)^2 = "
                         f"{[f'{limit:.3e}' for limit in limits]} "
                         f"(C = {SINGLE_SPIN_ADIABATIC_C:.4f}): {within_bound}, "
                         f"{elapsed:.1f}s")


def test_criterion_6_quantum_walk():
    dist = aq.walk_run(aq.WalkSpec(2))[2]
    hand = {-2: 0.25, 0: 0.5, 2: 0.25}
    dist_ok = set(dist) == set(hand) and all(abs(dist[x] - hand[x]) < 1e-10 for x in hand)
    alpha_q = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100)
    alpha_c = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100, classical=True)
    ok = dist_ok and 1.8 <= alpha_q <= 2.05 and 0.9 <= alpha_c <= 1.1
    assert report(6, ok, f"t=2 distribution exact: {dist_ok}; quantum alpha "
                         f"{alpha_q:.3f} in [1.8, 2.05]; classical alpha {alpha_c:.3f} "
                         f"in [0.9, 1.1]")


def test_criterion_7_mbqc():
    rng = np.random.default_rng(1007)
    worst = 1.0
    for _ in range(100):
        t1, t2, t3 = rng.uniform(-np.pi, np.pi, size=3)
        pattern = aq.euler_rotation_pattern(t1, t2, t3)
        psi = aq.StateVector(random_state(rng, 1))
        oracle = aq.Circuit(1)
        oracle.add("RX", 0, angle=t1).add("RZ", 0, angle=t2).add("RX", 0, angle=t3)
        expected, _ = aq.apply_circuit(oracle, psi)
        for branch in product((0, 1), repeat=4):
            result = aq.mbqc_execute(pattern, psi, forced_outcomes=branch)
            worst = min(worst, aq.fidelity(result.output_state, expected))
    stabilizer_dev = 0.0
    for graph in (ConnectivityGraph.line(5), ConnectivityGraph.grid(2, 3)):
        cluster = aq.build_cluster_state(graph)
        for a in range(graph.num_qubits):
            op = embed_gate(gates.X, [a], graph.num_qubits)
            for b in graph.neighbors(a):
                op = op @ embed_gate(gates.Z, [b], graph.num_qubits)
            value = np.vdot(cluster.amplitudes, op @ cluster.amplitudes).real
            stabilizer_dev = max(stabilizer_dev, abs(value - 1.0))
    ok = worst >= 1 - 1e-9 and stabilizer_dev <= 1e-10
    assert report(7, ok, f"100 angle triples x 16 branches worst fidelity {worst:.12f}; "
                         f"stabilizer eigenvalue deviation {stabilizer_dev:.3e}")


def test_criterion_8_golden_data():
    transmon = builtin_profile("superconducting-transmon")
    ion = builtin_profile("trapped-ion")
    atom = builtin_profile("neutral-atom")
    nv = builtin_profile("nv-center")
    memory = builtin_profile("quantum-memory-ensemble")
    constants_ok = (
        transmon.gate_spec("CZ").fidelity == 0.998
        and transmon.gate_spec("CZ").duration_ns == 40.0
        and builtin_profile("fluxonium").t2_us == 1480.0           # 1.48 ms
        and ion.t2_us == 5.5e9                                     # 5500 s
        and ion.gate_spec("CNOT").fidelity == 0.999
        and atom.gate_spec("CZ").fidelity == 0.995
        and atom.gate_spec("CZ").duration_ns == 200.0
        and nv.t2_dd_us == 1.58e6                                  # electron 1.58 s
        and aq.CITED_CONSTANTS["nv-center"]["nuclear_t2_dd_us"] == 6.3e7   # nuclear 63 s
        and aq.CITED_CONSTANTS["nv-center"]["entanglement_rate_hz"] == 9.0
        and memory.t2_us == 1.6e7                                  # 16 s
        and memory.t2_dd_us == 52.9 * 60.0 * 1e6)                  # 52.9 min
    annealing_demand = builtin_demand("quantum-annealing")
    memory_demand = builtin_demand("quantum-memory")
    demand_ok = (
        annealing_demand.demand("operations") == aq.Level.NONE
        and annealing_demand.demand("connectivity") == aq.Level.FULL
        and annealing_demand.demand("readout") == aq.Level.PARTIAL
        and memory_demand.demand("coherence") == aq.Level.FULL
        and memory_demand.demand("readout") == aq.Level.NONE
        and all(d.level == aq.Level.FULL
                for d in builtin_demand("circuit-model-universal").rule_demand.values()))
    matrix = {
        (demand, device): aq.match_profiles(builtin_profile(device),
                                            builtin_demand(demand)).overall
        for demand in BUILTIN_DEMAND_NAMES
        for device in aq.BUILTIN_PROFILE_NAMES}
    expected_matrix = {
        "analogue-simulation": dict.fromkeys(aq.BUILTIN_PROFILE_NAMES, "supported"),
        "quantum-walk": dict.fromkeys(aq.BUILTIN_PROFILE_NAMES, "supported"),
        "quantum-memory": dict.fromkeys(aq.BUILTIN_PROFILE_NAMES, "supported"),
        "circuit-model-universal": {
            "fluxonium": "supported_with_compensation",
            "neutral-atom": "supported_with_compensation",
            "nv-center": "unsupported",
            "photonic-mbqc": "unsupported",
            "quantum-memory-ensemble": "unsupported",
            "superconducting-transmon": "supported_with_compensation",
            "trapped-ion": "supported_with_compensation"},
        "mbqc": {
            "fluxonium": "supported_with_compensation",
            "neutral-atom": "supported_with_compensation",
            "nv-center": "unsupported",
            "photonic-mbqc": "supported",
            "quantum-memory-ensemble": "unsupported",
            "superconducting-transmon": "supported_with_compensation",
            "trapped-ion": "supported_with_compensation"},
        "quantum-annealing": {
            "fluxonium": "supported_with_compensation",
            "neutral-atom": "supported_with_compensation",
            "nv-center": "unsupported",
            "photonic-mbqc": "unsupported",
            "quantum-memory-ensemble": "unsupported",
            "superconducting-transmon": "supported_with_compensation",
            "trapped-ion": "supported"},
    }
    matrix_ok = all(matrix[(demand, device)] == expected
                    for demand, row in expected_matrix.items()
                    for device, expected in row.items())
    pinned_ok = (matrix[("circuit-model-universal", "quantum-memory-ensemble")]
                 == "unsupported"
                 and matrix[("mbqc", "photonic-mbqc")] == "supported")
    ok = constants_ok and demand_ok and matrix_ok and pinned_ok
    assert report(8, ok, f"cited constants exact: {constants_ok}; demand rows: "
                         f"{demand_ok}; 6x7 matrix stable: {matrix_ok}; pinned cells: "
                         f"{pinned_ok}")


def test_criterion_9_cli_contract(tmp_path):
    from test_cli import BELL, run_cli
    bell = tmp_path / "bell.txt"
    bell.write_text(BELL)
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits 1\nNOPE 0\n")
    code_ok, out, _ = run_cli("simulate", str(bell), "--shots", "10000",
                              "--seed", "0", "--json")
    counts = json.loads(out)["counts"]
    bell_ok = code_ok == 0 and set(counts) <= {"00", "11"} \
        and sum(counts.values()) == 10000
    usage_code, _, _ = run_cli("simulate", str(bad))
    rule_code, _, _ = run_cli("match", "--profile", "quantum-memory-ensemble",
                              "--demand", "circuit-model-universal")
    reruns = [run_cli("simulate", str(bell), "--shots", "2000", "--seed", "3")
              for _ in range(2)]
    ok = (bell_ok and usage_code == 1 and rule_code == 2
          and reruns[0] == reruns[1])
    assert report(9, ok, f"exit codes (0/1/2) = ({code_ok}/{usage_code}/{rule_code}); "
                         f"10^4-shot Bell sampling gave only 00/11: {bell_ok}; "
                         f"byte-identical reruns: {reruns[0] == reruns[1]}")

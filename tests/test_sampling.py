"""sample_counts: shot branching over the measurement tree.

Exact record distributions come from ``oracles.oracle_circuit_unitary``
(Kronecker-chain unitaries) with an explicit loop over basis indices for
terminal MEASURE suffixes, and from ``oracles.oracle_record_distribution``
(every MEASURE/RESET branch enumerated) for mid-circuit measurement. Every
count must lie within a Bernstein bound at false-alarm probability 1e-9.
"""

import math

import numpy as np
import pytest
from oracles import oracle_circuit_unitary, oracle_record_distribution, random_circuit

from aqmkit import Circuit, parse_circuit, sample_counts
from aqmkit import simulate

_LOG_TERM = math.log(2 / 1e-9)  # false-alarm probability 1e-9 per count


def bernstein_slack(shots: int, p: float) -> float:
    """Deviation |count - shots*p| exceeded with probability < 1e-9 (Bernstein)."""
    third = _LOG_TERM / 3
    return third + math.sqrt(third ** 2 + 2 * shots * p * (1 - p) * _LOG_TERM)


def exact_records(circuit: Circuit) -> dict[str, float]:
    """Record-string distribution of a unitary prefix plus a MEASURE suffix."""
    first = next(i for i, inst in enumerate(circuit.instructions) if inst.gate == "MEASURE")
    prefix = Circuit(circuit.num_qubits, circuit.instructions[:first])
    order = [inst.qubits[0] for inst in circuit.instructions[first:]]
    amps = oracle_circuit_unitary(prefix)[:, 0]
    probs: dict[str, float] = {}
    for index, amp in enumerate(amps):
        key = "".join(str((index >> q) & 1) for q in order)
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    return probs


def assert_matches(counts: dict[str, int], probs: dict[str, float], shots: int):
    assert sum(counts.values()) == shots
    for key in set(counts) | set(probs):
        p = probs.get(key, 0.0)
        assert p > 1e-14 or key not in counts, f"outcome {key} has probability {p}"
        assert abs(counts.get(key, 0) - shots * p) <= bernstein_slack(shots, p), key


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def with_suffix(circuit: Circuit, order) -> Circuit:
    circuit = circuit.copy()
    for q in order:
        circuit.add("MEASURE", q)
    return circuit


def sample_circuits():
    """Random gate prefixes with MEASUREs on a permuted subset of the qubits."""
    source = rng(2024)
    circuits = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            order = [int(q) for q in source.permutation(n)[:1 + int(source.integers(n))]]
            circuits.append(with_suffix(random_circuit(source, n, 12), order))
    return circuits


def mid_circuit_circuits():
    """Random gates with MEASUREs and RESETs between them, 4 circuits per width 1-5."""
    source = rng(2025)
    circuits = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            circuit = Circuit(n)
            for marker in ("MEASURE", "RESET", "MEASURE"):
                circuit.extend(random_circuit(source, n, 3 * n).instructions)
                circuit.add(marker, int(source.integers(n)))
            if source.random() < 0.5:
                circuit.add("H", int(source.integers(n)))
            circuit.add("MEASURE", int(source.integers(n)))
            circuits.append(circuit)
    return circuits


class TestSampleCounts:
    @pytest.mark.parametrize("index", range(15))
    def test_terminal_suffix_matches_oracle_marginal(self, index):
        circuit = sample_circuits()[index]
        shots = 20000
        counts = sample_counts(circuit, shots, rng(index))
        assert_matches(counts, exact_records(circuit), shots)

    @pytest.mark.parametrize("index", (4, 8, 13))
    def test_branching_after_trailing_gate_matches_oracle(self, index):
        circuit = sample_circuits()[index]
        # A trailing gate changes no record but turns every MEASURE into a
        # split of the walk instead of part of the terminal multinomial.
        forced = circuit.copy().add("Z", 0)
        shots = 2000
        probs = oracle_record_distribution(forced)
        exact = exact_records(circuit)
        for key in set(probs) | set(exact):
            assert abs(probs.get(key, 0.0) - exact.get(key, 0.0)) <= 1e-12, key
        assert_matches(sample_counts(circuit, shots, rng(1)), probs, shots)
        assert_matches(sample_counts(forced, shots, rng(1)), probs, shots)

    @pytest.mark.parametrize("index", range(20))
    def test_mid_circuit_measure_and_reset_match_oracle(self, index):
        circuit = mid_circuit_circuits()[index]
        shots = 4000
        counts = sample_counts(circuit, shots, rng(index))
        assert_matches(counts, oracle_record_distribution(circuit), shots)

    def test_record_order_differs_from_qubit_order(self):
        circuit = parse_circuit("qubits 3\nX 0\nX 2\nMEASURE 1\nMEASURE 2\nMEASURE 0\n")
        assert sample_counts(circuit, 100, rng(0)) == {"011": 100}
        bell = parse_circuit("qubits 3\nH 2\nCNOT 2 0\nMEASURE 2\nMEASURE 1\nMEASURE 0\n")
        counts = sample_counts(bell, 10000, rng(0))
        assert_matches(counts, {"000": 0.5, "101": 0.5}, 10000)

    def test_qubit_measured_twice_repeats_its_bit(self):
        circuit = parse_circuit("qubits 2\nH 0\nX 1\nMEASURE 0\nMEASURE 1\nMEASURE 0\n")
        counts = sample_counts(circuit, 10000, rng(3))
        assert_matches(counts, exact_records(circuit), 10000)
        assert set(counts) == {"010", "111"}

    def test_only_measures(self):
        circuit = parse_circuit("qubits 3\nMEASURE 2\nMEASURE 0\n")
        assert sample_counts(circuit, 50, rng(0)) == {"00": 50}

    def test_zero_probability_outcomes_never_appear(self):
        assert sample_counts(parse_circuit("qubits 1\nX 0\nMEASURE 0\n"), 64, rng(0)) == {"1": 64}
        # H·H leaves rounding-level amplitude on |1>, below ZERO_PROB.
        circuit = parse_circuit("qubits 2\nH 0\nH 0\nH 1\nMEASURE 0\nMEASURE 1\n")
        assert set(sample_counts(circuit, 10 ** 6, rng(0))) == {"00", "01"}
        # P(0) = sin^2(1e-8) = 1e-16 is below ZERO_PROB, so even 10^18 shots
        # (about 100 expected) never draw it, neither from the terminal
        # multinomial nor at a mid-circuit split (forced by the trailing H).
        tilted = parse_circuit("qubits 1\nX 0\nRY 0 2e-8\nMEASURE 0\n")
        assert sample_counts(tilted, 10 ** 18, rng(0)) == {"1": 10 ** 18}
        assert sample_counts(tilted.copy().add("H", 0), 10 ** 18, rng(0)) == {"1": 10 ** 18}

    def test_reruns_identical_per_seed(self):
        for circuit in (sample_circuits()[10], mid_circuit_circuits()[13]):
            first = sample_counts(circuit, 5000, rng(7))
            assert list(sample_counts(circuit, 5000, rng(7)).items()) == list(first.items())
            assert sample_counts(circuit, 5000, rng(8)) != first

    def test_terminal_suffix_simulates_once(self, monkeypatch):
        # Counted in block applications: H and CNOT fuse into one block.
        calls = []
        original = simulate.apply_gate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "apply_gate", counting)
        terminal = parse_circuit("qubits 2\nH 0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n")
        sample_counts(terminal, 300, rng(0))
        assert len(calls) == 1
        calls.clear()
        # H once, then the MEASURE splits the 300 shots into two branches
        # and each applies CNOT once: 3 calls, where one run per shot made 600.
        mid_circuit = parse_circuit("qubits 2\nH 0\nMEASURE 0\nCNOT 0 1\nMEASURE 1\n")
        sample_counts(mid_circuit, 300, rng(0))
        assert len(calls) == 3

    def test_reset_branches_match_oracle(self):
        circuit = parse_circuit("qubits 1\nH 0\nMEASURE 0\nRESET 0\nMEASURE 0\n")
        probs = oracle_record_distribution(circuit)
        assert probs == pytest.approx({"00": 0.5, "10": 0.5}, abs=1e-12)
        counts = sample_counts(circuit, 2000, rng(5))
        assert_matches(counts, probs, 2000)

    def test_pending_byte_cap_replays_identically(self, monkeypatch):
        circuit = mid_circuit_circuits()[18]
        uncapped = sample_counts(circuit, 3000, rng(4))
        replays = []
        original = simulate.basis_state

        def counting(*args, **kwargs):
            replays.append(1)
            return original(*args, **kwargs)

        # The walk starts from |0...0> once for the root branch and once for
        # every sibling it rebuilds by replaying its outcomes.
        monkeypatch.setattr(simulate, "basis_state", counting)
        monkeypatch.setattr(simulate, "MAX_PENDING_BYTES", 0)
        capped = sample_counts(circuit, 3000, rng(4))
        assert len(replays) > 1  # every pending sibling was rebuilt by replay
        assert list(capped.items()) == list(uncapped.items())

    def test_invalid_states_still_raise(self, monkeypatch):
        # A non-unitary "I" leaves an unnormalized state. In the mid-circuit
        # case the second MEASURE renormalizes it before the trailing Z ends
        # the walk, so only the check on each collapsed branch can see it.
        original = simulate.gates.gate_matrix

        def scaled_identity(name, angle=None):
            return 1.5 * np.eye(2) if name == "I" else original(name, angle)

        monkeypatch.setattr(simulate.gates, "gate_matrix", scaled_identity)
        terminal = parse_circuit("qubits 1\nI 0\nMEASURE 0\n")
        mid_circuit = parse_circuit("qubits 1\nI 0\nMEASURE 0\nX 0\nMEASURE 0\nZ 0\n")
        for circuit in (terminal, mid_circuit):
            with pytest.raises(ValueError, match="not normalized"):
                sample_counts(circuit, 10, rng(0))

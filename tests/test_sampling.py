"""sample_counts: one-simulation sampling of terminal MEASURE suffixes.

The exact record distribution comes from ``oracles.oracle_circuit_unitary``
(Kronecker-chain unitaries) and an explicit loop over basis indices; the
per-shot path, forced by a trailing gate, is the distributional reference
for the one-simulation path.
"""

import math

import numpy as np
import pytest
from oracles import oracle_circuit_unitary, random_circuit

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


class TestSampleCounts:
    @pytest.mark.parametrize("index", range(15))
    def test_terminal_suffix_matches_oracle_marginal(self, index):
        circuit = sample_circuits()[index]
        shots = 20000
        counts = sample_counts(circuit, shots, rng(index))
        assert_matches(counts, exact_records(circuit), shots)

    @pytest.mark.parametrize("index", (4, 8, 13))
    def test_matches_forced_per_shot_path(self, index):
        circuit = sample_circuits()[index]
        # A trailing gate after the suffix changes no record but forces the
        # per-shot path.
        forced = circuit.copy().add("Z", 0)
        shots = 2000
        fast = sample_counts(circuit, shots, rng(1))
        slow = sample_counts(forced, shots, rng(1))
        probs = exact_records(circuit)
        assert_matches(slow, probs, shots)
        for key in set(fast) | set(slow):
            p = probs.get(key, 0.0)
            assert abs(fast.get(key, 0) - slow.get(key, 0)) <= 2 * bernstein_slack(shots, p)

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
        # P(0) = sin^2(1e-8) = 1e-16 is below ZERO_PROB, so, as in the per-shot
        # path, even 10^18 shots (about 100 expected) never draw it.
        tilted = parse_circuit("qubits 1\nX 0\nRY 0 2e-8\nMEASURE 0\n")
        assert sample_counts(tilted, 10 ** 18, rng(0)) == {"1": 10 ** 18}

    def test_reruns_identical_per_seed(self):
        circuit = sample_circuits()[10]
        first = sample_counts(circuit, 5000, rng(7))
        assert sample_counts(circuit, 5000, rng(7)) == first
        assert sample_counts(circuit, 5000, rng(8)) != first

    def test_terminal_suffix_simulates_once(self, monkeypatch):
        calls = []
        original = simulate.apply_circuit

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "apply_circuit", counting)
        terminal = parse_circuit("qubits 2\nH 0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n")
        sample_counts(terminal, 300, rng(0))
        assert len(calls) == 1
        calls.clear()
        mid_circuit = parse_circuit("qubits 2\nH 0\nMEASURE 0\nCNOT 0 1\nMEASURE 1\n")
        sample_counts(mid_circuit, 300, rng(0))
        assert len(calls) == 300

    def test_reset_keeps_per_shot_path(self):
        circuit = parse_circuit("qubits 1\nH 0\nMEASURE 0\nRESET 0\nMEASURE 0\n")
        counts = sample_counts(circuit, 2000, rng(5))
        assert_matches(counts, {"00": 0.5, "10": 0.5}, 2000)

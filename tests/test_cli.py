"""Command-line contract: exit codes, schemas, determinism."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from aqmkit import cli, simulate
from aqmkit.cli import MAX_SHOTS, main
from aqmkit.mbqc import MAX_PATTERN_NODES, parse_pattern
from aqmkit.walk import MAX_WALK_STEPS, WalkSpec, walk_run

BELL = "qubits 2\nH 0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n"
GHZ = "qubits 3\nH 0\nCNOT 0 1\nCNOT 1 2\nMEASURE 0\nMEASURE 1\nMEASURE 2\n"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.fixture()
def bell_path(tmp_path):
    path = tmp_path / "bell.txt"
    path.write_text(BELL)
    return str(path)


@pytest.fixture()
def problem_path(tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "h": [-1.0], "J": []}')
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, bell_path):
        code, _, _ = run_cli("simulate", bell_path, "--shots", "10", "--seed", "0")
        assert code == 0

    def test_parse_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("qubits 2\nFROB 0\n")
        code, _, err = run_cli("simulate", str(bad))
        assert code == 1 and "FROB" in err

    def test_missing_file_is_one(self):
        code, _, _ = run_cli("simulate", "/nonexistent/file.txt")
        assert code == 1

    def test_usage_error_is_one(self):
        code, _, _ = run_cli("simulate")  # missing positional
        assert code == 1

    def test_unknown_subcommand_is_one(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 1

    def test_rule_failure_is_two(self):
        code, _, _ = run_cli("match", "--profile", "quantum-memory-ensemble",
                             "--demand", "circuit-model-universal")
        assert code == 2

    def test_transpile_rule_failure_is_two(self, tmp_path):
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 2\nCNOT 0 1\n")
        code, _, err = run_cli("transpile", str(circuit), "--profile",
                               "quantum-memory-ensemble")
        assert code == 2 and "operations" in err


class TestSimulate:
    def test_bell_correlations(self, bell_path):
        code, out, _ = run_cli("simulate", bell_path, "--shots", "10000",
                               "--seed", "0", "--json")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 10000

    def test_deterministic_gate_all_ones(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("qubits 1\nX 0\nMEASURE 0\n")
        code, out, _ = run_cli("simulate", str(path), "--shots", "64", "--json")
        assert code == 0
        assert json.loads(out)["counts"] == {"1": 64}

    def test_byte_identical_reruns(self, bell_path):
        first = run_cli("simulate", bell_path, "--shots", "500", "--seed", "7")
        second = run_cli("simulate", bell_path, "--shots", "500", "--seed", "7")
        assert first == second

    def test_seed_changes_histogram(self, bell_path):
        _, a, _ = run_cli("simulate", bell_path, "--shots", "500", "--seed", "1")
        _, b, _ = run_cli("simulate", bell_path, "--shots", "500", "--seed", "2")
        assert a != b

    def test_aqm_seed_env(self, bell_path, monkeypatch):
        monkeypatch.setenv("AQM_SEED", "7")
        env_run = run_cli("simulate", bell_path, "--shots", "100")
        monkeypatch.delenv("AQM_SEED")
        explicit = run_cli("simulate", bell_path, "--shots", "100", "--seed", "7")
        assert env_run == explicit

    def test_aqm_seed_read_on_every_call(self, bell_path, monkeypatch):
        def seed_and_err():
            code, out, err = run_cli("simulate", bell_path, "--shots", "10", "--json")
            assert code == 0
            return json.loads(out)["seed"], err

        monkeypatch.setenv("AQM_SEED", "3")
        assert seed_and_err() == (3, "")
        monkeypatch.setenv("AQM_SEED", "5")
        assert seed_and_err() == (5, "")
        monkeypatch.setenv("AQM_SEED", "five")
        warning = "warning: ignoring non-integer AQM_SEED='five'\n"
        assert seed_and_err() == (0, warning)
        assert seed_and_err() == (0, warning)
        code, out, err = run_cli("mbqc", "--euler", "0.1", "0.2", "0.3", "--json")
        assert code == 0 and err == warning
        monkeypatch.setenv("AQM_SEED", "9")
        code, out, err = run_cli("simulate", bell_path, "--shots", "10", "--seed", "4", "--json")
        assert json.loads(out)["seed"] == 4 and err == ""

    def test_ghz_100k_shots_in_process_under_100ms(self, tmp_path):
        path = tmp_path / "ghz.txt"
        path.write_text(GHZ)
        run_cli("simulate", str(path), "--shots", "10")  # warm-up: a first call builds the parser
        start = time.perf_counter()
        code, out, _ = run_cli("simulate", str(path), "--shots", "100000", "--json")
        elapsed = time.perf_counter() - start
        counts = json.loads(out)["counts"]
        assert code == 0 and set(counts) == {"000", "111"}
        assert sum(counts.values()) == 100000
        assert elapsed < 0.1

    def test_trillion_shots_sum_exactly(self, tmp_path):
        path = tmp_path / "ghz.txt"
        path.write_text(GHZ)
        code, out, _ = run_cli("simulate", str(path), "--shots", str(10 ** 12), "--json")
        assert code == 0
        assert sum(json.loads(out)["counts"].values()) == 10 ** 12

    def test_shots_beyond_int64_is_usage_error(self, bell_path):
        assert_one_error_line(*run_cli("simulate", bell_path, "--shots", str(MAX_SHOTS + 1)))

    def test_width_cap_rejects_before_simulating(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a capped circuit must not reach the simulator")

        monkeypatch.setattr(simulate, "apply_circuit", refuse)
        for width in (simulate.MAX_SIM_QUBITS + 1, 40):
            path = tmp_path / f"wide{width}.txt"
            path.write_text(f"qubits {width}\nH 0\nMEASURE 0\n")
            code, out, err = run_cli("simulate", str(path))
            assert_one_error_line(code, out, err)
            assert f"at most {simulate.MAX_SIM_QUBITS}" in err

    def test_hadamard_frequency(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("qubits 1\nH 0\nMEASURE 0\n")
        _, out, _ = run_cli("simulate", str(path), "--shots", "100000",
                            "--seed", "0", "--json")
        counts = json.loads(out)["counts"]
        assert abs(counts["1"] / 100000 - 0.5) < 0.006  # 3 sigma binomial bound


TRANSMON_BELL_JSON = """\
{
  "circuit": "qubits 5\\nH 0\\nH 1\\nCZ 0 1\\nH 1\\nMEASURE 1\\n",
  "cost": {
    "gate_count_by_name": {
      "CZ": 1,
      "H": 3,
      "MEASURE": 1
    },
    "total_duration_ns": 200.0,
    "fidelity_estimate": 0.9928010180386327,
    "added_ancillas": 0
  },
  "budget": {
    "ok": true,
    "ratio": 0.0003590664272890485
  },
  "passes": [
    {
      "name": "rewrite",
      "before": 3,
      "after": 5
    },
    {
      "name": "approximate",
      "before": 5,
      "after": 5
    },
    {
      "name": "route",
      "before": 5,
      "after": 5
    },
    {
      "name": "expand-swaps",
      "before": 5,
      "after": 5
    }
  ]
}
"""


class TestTranspile:
    def test_swap_to_three_cnots(self, tmp_path):
        circuit = tmp_path / "swap.txt"
        circuit.write_text("qubits 2\nSWAP 0 1\n")
        code, out, _ = run_cli("transpile", str(circuit), "--profile", "trapped-ion")
        assert code == 0
        from aqmkit import parse_circuit
        assert parse_circuit(out).gate_counts() == {"CNOT": 3}

    def test_routed_cnot_seven_cnots(self, tmp_path):
        circuit = tmp_path / "far.txt"
        circuit.write_text("qubits 3\nCNOT 0 2\n")
        profile = tmp_path / "line.json"
        profile.write_text(json.dumps({
            "name": "line3", "num_qubits": 3, "connectivity": [[0, 1], [1, 2]],
            "native_gates": [
                {"gate": "H", "arity": 1, "duration_ns": 10, "fidelity": 0.999},
                {"gate": "T", "arity": 1, "duration_ns": 10, "fidelity": 0.999},
                {"gate": "TDG", "arity": 1, "duration_ns": 10, "fidelity": 0.999},
                {"gate": "CNOT", "arity": 2, "duration_ns": 50, "fidelity": 0.99}],
            "t1_us": 100.0, "t2_us": 100.0,
            "measurement": {"computational_only": True, "fidelity": 0.99,
                            "duration_ns": 100, "mid_circuit": True},
            "rule_support": {"states": "full", "operations": "full",
                             "connectivity": "partial", "coherence": "full",
                             "readout": "partial"},
            "qec_capable": False, "notes": {}}))
        code, out, _ = run_cli("transpile", str(circuit), "--profile", str(profile),
                               "--json")
        assert code == 0
        assert json.loads(out)["cost"]["gate_count_by_name"]["CNOT"] == 7

    def test_rotation_over_discrete_basis(self, tmp_path):
        circuit = tmp_path / "rz.txt"
        circuit.write_text("qubits 1\nRZ 0 0.2\n")
        profile = tmp_path / "ht.json"
        profile.write_text(json.dumps({
            "name": "ht", "num_qubits": 1, "connectivity": [],
            "native_gates": [
                {"gate": "H", "arity": 1, "duration_ns": 10, "fidelity": 0.999},
                {"gate": "T", "arity": 1, "duration_ns": 10, "fidelity": 0.999}],
            "t1_us": 100.0, "t2_us": 100.0,
            "measurement": {"computational_only": True, "fidelity": 0.99,
                            "duration_ns": 100, "mid_circuit": False},
            "rule_support": {"states": "full", "operations": "partial",
                             "connectivity": "partial", "coherence": "full",
                             "readout": "partial"},
            "qec_capable": False, "notes": {}}))
        code, out, _ = run_cli("transpile", str(circuit), "--profile", str(profile),
                               "--epsilon", "0.1", "--max-depth", "12")
        assert code == 0 and "fidelity_estimate" in out

    def test_output_file(self, tmp_path):
        circuit = tmp_path / "swap.txt"
        circuit.write_text("qubits 2\nSWAP 0 1\n")
        target = tmp_path / "out.txt"
        code, out, _ = run_cli("transpile", str(circuit), "--profile", "trapped-ion",
                               "--output", str(target))
        assert code == 0
        from aqmkit import parse_circuit
        compiled = parse_circuit(target.read_text())
        assert compiled.gate_counts()["CNOT"] == 3

    def test_pass_toggles(self, tmp_path):
        circuit = tmp_path / "far.txt"
        circuit.write_text("qubits 3\nRX 0 0.5\nCNOT 0 2\n")
        # Routing disabled: the non-adjacent CNOT survives untouched.
        code, out, _ = run_cli("transpile", str(circuit), "--profile", "trapped-ion",
                               "--skip-route", "--json")
        assert code == 0
        assert "SWAP" not in json.loads(out)["circuit"]
        # Rewrite disabled on a device without native SWAP: rule failure.
        swap = tmp_path / "swap.txt"
        swap.write_text("qubits 2\nSWAP 0 1\n")
        code, _, err = run_cli("transpile", str(swap), "--profile", "trapped-ion",
                               "--skip-rewrite", "--skip-expand")
        assert code == 2 and "operations" in err

    def test_json_bytes_pinned(self, tmp_path):
        circuit = tmp_path / "bell.txt"
        circuit.write_text("qubits 2\nH 0\nCNOT 0 1\nMEASURE 1\n")
        code, out, _ = run_cli("transpile", str(circuit), "--profile",
                               "superconducting-transmon", "--json")
        assert code == 0
        assert out == TRANSMON_BELL_JSON

    def test_profile_directory_is_usage_error(self, tmp_path):
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nH 0\n")
        assert_one_error_line(*run_cli("transpile", str(circuit), "--profile", str(tmp_path)))

    @pytest.mark.parametrize("flags", [
        ("--epsilon", "2"), ("--epsilon", "1"), ("--epsilon", "0"), ("--epsilon", "-0.5"),
        ("--epsilon", "nan"), ("--max-depth", "-1"),
    ], ids=["epsilon-2", "epsilon-1", "epsilon-0", "epsilon-negative", "epsilon-nan",
            "max-depth-negative"])
    def test_approximation_bounds_checked_up_front(self, tmp_path, flags):
        # Nothing here needs approximating, so only the up-front check can fail.
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nH 0\n")
        code, out, err = run_cli("transpile", str(circuit), "--profile",
                                 "superconducting-transmon", *flags)
        assert_one_error_line(code, out, err)

    def test_shots_must_be_positive(self, bell_path):
        code, _, _ = run_cli("simulate", bell_path, "--shots", "0")
        assert code == 1


class TestOtherCommands:
    @pytest.mark.parametrize("steps", [0, 1, 2, 50])
    def test_walk_json_is_last_walk_run_distribution(self, steps):
        code, out, _ = run_cli("walk", "--steps", str(steps), "--json")
        assert code == 0
        spec = WalkSpec(steps, max(steps, 1))
        expected = {str(x): p for x, p in sorted(walk_run(spec)[-1].items())}
        assert out == json.dumps({"steps": steps, "distribution": expected}) + "\n"

    @pytest.mark.parametrize("steps", [MAX_WALK_STEPS + 1, 10 ** 8])
    def test_walk_steps_cap_rejects_before_walking(self, monkeypatch, steps):
        def refuse(*args, **kwargs):
            raise AssertionError("walked past the step cap")

        monkeypatch.setattr(cli, "WalkSpec", refuse)
        monkeypatch.setattr(cli, "walk_final", refuse)
        code, out, err = run_cli("walk", "--steps", str(steps))
        assert_one_error_line(code, out, err)
        assert str(MAX_WALK_STEPS) in err

    @staticmethod
    def _line_pattern(nodes):
        return json.dumps({
            "nodes": nodes, "edges": [[q, q + 1] for q in range(nodes - 1)],
            "order": list(range(nodes - 1)), "angles": [0.0] * (nodes - 1),
            "outputs": [nodes - 1]})

    def test_mbqc_node_cap_admits_the_limit(self):
        # Parsing builds no register, so the largest admitted pattern is cheap here.
        assert parse_pattern(self._line_pattern(MAX_PATTERN_NODES)).graph.num_qubits \
            == MAX_PATTERN_NODES

    def test_mbqc_node_cap_rejects_before_executing(self, tmp_path, monkeypatch):
        # One node past the cap: were the cap missing, the pattern would still
        # build cheaply and reach the patched executor instead of allocating.
        def refuse(*args, **kwargs):
            raise AssertionError("executed a pattern past the node cap")

        monkeypatch.setattr(cli, "mbqc_execute", refuse)
        pattern = tmp_path / "wide.json"
        pattern.write_text(self._line_pattern(MAX_PATTERN_NODES + 1))
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        assert_one_error_line(code, out, err)
        assert "nodes" in err

    def test_walk_two_steps(self):
        code, out, _ = run_cli("walk", "--steps", "2", "--coin", "hadamard", "--json")
        assert code == 0
        dist = json.loads(out)["distribution"]
        assert dist == {"-2": 0.25, "0": 0.5, "2": 0.25} or \
            all(abs(dist[k] - v) < 1e-10 for k, v in
                {"-2": 0.25, "0": 0.5, "2": 0.25}.items())

    def test_anneal(self, problem_path):
        code, out, _ = run_cli("anneal", "--problem", problem_path,
                               "--t-final", "5", "--steps", "500", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["success_probability"] > 0.99

    def test_mbqc_euler_deterministic(self):
        first = run_cli("mbqc", "--euler", "0.1", "0.2", "0.3", "--seed", "5", "--json")
        second = run_cli("mbqc", "--euler", "0.1", "0.2", "0.3", "--seed", "5", "--json")
        assert first == second and first[0] == 0

    def test_mbqc_pattern_file(self, tmp_path):
        pattern = tmp_path / "teleport.json"
        pattern.write_text(json.dumps({
            "nodes": 2, "edges": [[0, 1]], "inputs": [0], "order": [0],
            "angles": [0.0], "adaptivity": [None], "outputs": [1],
            "byproducts": [{"type": "X", "qubit": 1, "deps": [0]}]}))
        code, out, _ = run_cli("mbqc", "--pattern", str(pattern), "--seed", "0", "--json")
        assert code == 0
        amplitudes = json.loads(out)["output_amplitudes"]
        assert len(amplitudes) == 2

    def test_mbqc_bad_pattern_is_usage_error(self, tmp_path):
        pattern = tmp_path / "bad.json"
        pattern.write_text('{"nodes": 2}')
        code, _, err = run_cli("mbqc", "--pattern", str(pattern))
        assert code == 1 and "missing" in err

    def test_anneal_trace(self, problem_path):
        code, out, _ = run_cli("anneal", "--problem", problem_path, "--t-final", "2",
                               "--steps", "50", "--trace", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["times"]) == 51 and len(payload["energies"]) == 51

    def test_anneal_bad_steps_is_usage_error(self, problem_path):
        code, _, _ = run_cli("anneal", "--problem", problem_path, "--steps", "0")
        assert code == 1

    @pytest.mark.parametrize("body", [
        "5",
        '{"n": 1, "h": null}',
        '{"n": 1, "h": [-1.0], "J": 5}',
        '{"n": 2.7, "h": [1.0, 1.0]}',
        '{"n": true, "h": [1.0]}',
    ], ids=["top-level-number", "null-fields", "number-couplings", "fractional-n", "boolean-n"])
    def test_anneal_malformed_problem_is_usage_error(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code, out, err = run_cli("anneal", "--problem", str(path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: cannot load problem")

    def test_profiles_list(self):
        code, out, _ = run_cli("profiles", "list")
        assert code == 0
        assert "superconducting-transmon" in out and "photonic-mbqc" in out

    def test_profiles_show_fluxonium_citation(self):
        code, out, _ = run_cli("profiles", "show", "fluxonium")
        assert code == 0
        assert "t2_us: 1480" in out
        assert "Somoroff" in out  # citation note for the coherence figure

    def test_profiles_show_json_round_trips(self):
        from aqmkit import parse_device_profile
        code, out, _ = run_cli("profiles", "show", "trapped-ion", "--json")
        assert code == 0
        assert parse_device_profile(out).name == "trapped-ion"

    def test_profiles_show_without_name(self):
        code, _, _ = run_cli("profiles", "show")
        assert code == 1

    def test_match_json_schema(self):
        code, out, _ = run_cli("match", "--profile", "superconducting-transmon",
                               "--demand", "circuit-model-universal", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["overall"] == "supported_with_compensation"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_match_jobs_below_one_is_usage_error(self, jobs):
        assert_one_error_line(*run_cli("match", "--matrix", "--jobs", jobs))

    def test_match_matrix_with_jobs(self):
        serial = run_cli("match", "--matrix")
        parallel = run_cli("match", "--matrix", "--jobs", "4")
        assert serial == parallel and serial[0] == 0

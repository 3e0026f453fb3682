"""Command-line contract: exit codes, schemas, determinism."""

import io
import json
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from aqmkit import cli, simulate
from aqmkit.annealing import MAX_ANNEAL_STEPS
from aqmkit.approx import MAX_APPROX_DEPTH
from aqmkit.cli import MAX_SHOTS, main
from aqmkit.devices import builtin_profile
from aqmkit.mbqc import MAX_PATTERN_NODES, live_width, parse_pattern
from aqmkit.profiles import profile_to_dict
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
        mid_circuit = "qubits 2\nH 0\nMEASURE 0\nRESET 0\nH 1\nCNOT 1 0\nMEASURE 0\nH 0\n"
        for name, text in (("ghz", GHZ), ("mid", mid_circuit)):
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            code, out, _ = run_cli("simulate", str(path), "--shots", str(10 ** 12), "--json")
            assert code == 0
            assert sum(json.loads(out)["counts"].values()) == 10 ** 12

    def test_shots_beyond_int64_is_usage_error(self, bell_path):
        assert_one_error_line(*run_cli("simulate", bell_path, "--shots", str(MAX_SHOTS + 1)))

    def test_width_cap_rejects_before_simulating(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a capped circuit must not reach the simulator")

        monkeypatch.setattr(cli, "sample_counts", refuse)
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

    @pytest.mark.parametrize("profile", ["superconducting-transmon", "trapped-ion"])
    def test_signed_zero_angles_kept_apart(self, tmp_path, profile):
        circuit = tmp_path / "zeros.txt"
        circuit.write_text("qubits 1\nRZ 0 0.0\nRZ 0 -0.0\nRZ 0 0.0\nRZ 0 -0.0\n")
        code, out, _ = run_cli("transpile", str(circuit), "--profile", profile)
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("RZ")] == [
            "RZ 0 0.0", "RZ 0 -0.0", "RZ 0 0.0", "RZ 0 -0.0"]

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

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_unwritable_output_is_usage_error(self, tmp_path, where, json_flag):
        circuit = tmp_path / "swap.txt"
        circuit.write_text("qubits 2\nSWAP 0 1\n")
        target = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
        code, out, err = run_cli("transpile", str(circuit), "--profile", "trapped-ion",
                                 "--output", str(target), *json_flag)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("field, raw, message", [
        ("t1_us", "1" + "0" * 400, "t1_us is out of range"),
        ("duration_ns", str(10 ** 400), "measurement.duration_ns is out of range"),
        ("t1_us", "NaN", "t1_us must be finite, got nan"),
        ("t1_us", "Infinity", "t1_us must be finite, got inf"),
        ("t2_dd_us", "NaN", "t2_dd_us must be finite, got nan"),
    ], ids=["huge-t1", "huge-measurement-duration", "nan-t1", "infinite-t1", "nan-t2-dd"])
    def test_profile_bad_number_is_usage_error(self, tmp_path, field, raw, message):
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 2\nH 0\nCNOT 0 1\n")
        data = profile_to_dict(builtin_profile("superconducting-transmon"))
        (data["measurement"] if field == "duration_ns" else data)[field] = "@"
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(data).replace('"@"', raw))
        code, out, err = run_cli("transpile", str(circuit), "--profile", str(profile))
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"

    def test_unknown_profile_reads_alike_in_match_and_transpile(self, bell_path):
        _, _, match_err = run_cli("match", "--profile", "it's", "--demand", "mbqc")
        code, out, err = run_cli("transpile", bell_path, "--profile", "it's")
        assert_one_error_line(code, out, err)
        assert match_err == err and err.startswith("error: \"it's\" is neither")

    @pytest.mark.parametrize("flags", [
        ("--epsilon", "2"), ("--epsilon", "1"), ("--epsilon", "0"), ("--epsilon", "-0.5"),
        ("--epsilon", "nan"), ("--max-depth", "-1"), ("--max-depth", str(MAX_APPROX_DEPTH + 1)),
    ], ids=["epsilon-2", "epsilon-1", "epsilon-0", "epsilon-negative", "epsilon-nan",
            "max-depth-negative", "max-depth-above-cap"])
    def test_approximation_bounds_checked_up_front(self, tmp_path, flags):
        # Nothing here needs approximating, so only the up-front check can fail.
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nH 0\n")
        code, out, err = run_cli("transpile", str(circuit), "--profile",
                                 "superconducting-transmon", *flags)
        assert_one_error_line(code, out, err)

    def test_finite_alphabet_is_a_rule_failure(self, tmp_path):
        # {X} runs out of new words at depth 2; deeper levels must stay empty.
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nRZ 0 1.0\n")
        data = profile_to_dict(builtin_profile("superconducting-transmon"))
        data["native_gates"] = [g for g in data["native_gates"] if g["gate"] in ("X", "CZ")]
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(data))
        code, out, err = run_cli("transpile", str(circuit), "--profile", str(profile),
                                 "--max-depth", "10", "--epsilon", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error: rule failure (operations): RZ(1) not approximable")

    @pytest.fixture()
    def rotation_profile(self, tmp_path):
        """The transmon with RY as its only native rotation."""
        data = profile_to_dict(builtin_profile("superconducting-transmon"))
        data["native_gates"] = [g for g in data["native_gates"] if g["gate"] not in ("RZ", "RX")]
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(data))
        circuit = tmp_path / "rz.txt"
        circuit.write_text("qubits 1\nRZ 0 0.3\n")
        return str(circuit), str(profile)

    def test_native_rotation_stays_out_of_the_alphabet(self, rotation_profile):
        # RZ is approximated over the fixed gates alone, and misses epsilon 0.01.
        circuit, profile = rotation_profile
        code, out, err = run_cli("transpile", circuit, "--profile", profile)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: rule failure (operations): RZ(0.3) not approximable")

    def test_rotation_beside_a_native_rotation_compiles(self, rotation_profile):
        circuit, profile = rotation_profile
        code, out, err = run_cli("transpile", circuit, "--profile", profile, "--epsilon", "0.15")
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_budget_threshold_must_be_finite_and_positive(self, tmp_path, value):
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nH 0\n")
        code, out, err = run_cli("transpile", str(circuit), "--profile",
                                 "superconducting-transmon", f"--budget-threshold={value}")
        assert_one_error_line(code, out, err)
        assert "--budget-threshold" in err

    def test_non_finite_angle_is_parse_error(self, tmp_path):
        for angle in ("nan", "inf", "-inf"):
            circuit = tmp_path / f"{angle}.txt"
            circuit.write_text(f"qubits 1\nRZ 0 {angle}\n")
            code, out, err = run_cli("transpile", str(circuit), "--profile", "trapped-ion")
            assert_one_error_line(code, out, err)
            assert "line 2" in err and "finite" in err

    def test_shots_must_be_positive(self, bell_path):
        code, _, _ = run_cli("simulate", bell_path, "--shots", "0")
        assert code == 1


class TestOtherCommands:
    @pytest.mark.parametrize("steps", [0, 1, 2, 50])
    def test_walk_json_is_last_walk_run_distribution(self, steps):
        code, out, _ = run_cli("walk", "--steps", str(steps), "--json")
        assert code == 0
        spec = WalkSpec(steps)
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
        # A 10 000-node line parses without building a register; it needs two live qubits.
        pattern = parse_pattern(self._line_pattern(MAX_PATTERN_NODES))
        assert MAX_PATTERN_NODES == 10_000 and pattern.graph.num_qubits == MAX_PATTERN_NODES
        assert live_width(pattern) == 2

    def test_mbqc_node_cap_rejects_before_executing(self, tmp_path, monkeypatch):
        # One node past the 10 000-node cap: were the cap missing, the line
        # would parse and reach the patched executor.
        def refuse(*args, **kwargs):
            raise AssertionError("executed a pattern past the node cap")

        monkeypatch.setattr(cli, "mbqc_execute", refuse)
        pattern = tmp_path / "long.json"
        pattern.write_text(self._line_pattern(MAX_PATTERN_NODES + 1))
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        assert_one_error_line(code, out, err)
        assert "10001 nodes" in err

    def test_mbqc_live_width_cap_rejects_before_executing(self, tmp_path, monkeypatch):
        # A 25-leaf star whose centre is measured first: all 26 nodes are live at once.
        def refuse(*args, **kwargs):
            raise AssertionError("executed a pattern past the live-width cap")

        monkeypatch.setattr(cli, "mbqc_execute", refuse)
        pattern = tmp_path / "star.json"
        pattern.write_text(json.dumps({
            "nodes": 26, "edges": [[0, leaf] for leaf in range(1, 26)],
            "order": list(range(25)), "angles": [0.0] * 25, "outputs": [25]}))
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        assert_one_error_line(code, out, err)
        assert f"live width of 26 qubits; at most {simulate.MAX_SIM_QUBITS}" in err

    def test_mbqc_wide_pattern_refused_in_linear_time(self, tmp_path):
        # 10 000 outputs and 100 000 byproduct rules: validation is linear in
        # the input (a rule-by-output scan took 13 s), then the live width of
        # 10 000 is refused.
        nodes = MAX_PATTERN_NODES
        pattern = tmp_path / "wide.json"
        pattern.write_text(json.dumps({
            "nodes": nodes, "edges": [], "order": [], "angles": [],
            "outputs": list(range(nodes)),
            "byproducts": [{"type": "X", "qubit": nodes - 1, "deps": []}] * 100_000}))
        start = time.perf_counter()
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        elapsed = time.perf_counter() - start
        assert_one_error_line(code, out, err)
        assert f"live width of {nodes} qubits" in err and elapsed < 5

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

    def test_seeded_stdout_pinned(self, tmp_path):
        # Seeded stdout is part of the CLI contract: these bytes must not move
        # when the code that draws the outcomes is reorganized.
        code, out, _ = run_cli("mbqc", "--euler", "0.3", "1.1", "-0.7", "--seed", "5")
        assert code == 0 and out == (
            "outcomes: {'0': 1, '1': 1, '2': 1, '3': 0}\n"
            "byproduct: {'4': {'x': 1, 'z': 0}}\n"
            "output amplitudes:\n"
            "  |0> -0.028339+0.460577j\n"
            "  |1> -0.767371+0.445206j\n")
        circuit = tmp_path / "mid.txt"
        circuit.write_text("qubits 3\nH 0\nMEASURE 0\nCNOT 0 1\nH 2\nMEASURE 2\nRESET 0\n"
                           "RY 1 0.7\nMEASURE 1\nMEASURE 0\n")
        code, out, _ = run_cli("simulate", str(circuit), "--shots", "1000", "--seed", "7")
        assert code == 0 and out == (
            "0000 226\n0010 27\n0100 212\n0110 35\n1000 21\n1010 247\n1100 25\n1110 207\n")

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

    @pytest.mark.parametrize("body", [
        '{"nodes": null, "edges": [], "order": [], "angles": [], "outputs": []}',
        '{"nodes": Infinity, "edges": [], "order": [], "angles": [], "outputs": []}',
        "5",
        '{"nodes": 1, "edges": [], "order": [0], "angles": [NaN], "outputs": []}',
    ], ids=["null-nodes", "infinite-nodes", "top-level-number", "nan-angle"])
    def test_mbqc_malformed_pattern_is_usage_error(self, tmp_path, body):
        pattern = tmp_path / "bad.json"
        pattern.write_text(body)
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        assert_one_error_line(code, out, err)
        assert err.startswith("error: cannot load pattern")

    @pytest.mark.parametrize("fields, message", [
        ({"nodes": 2.7}, "'nodes' must be an integer, got 2.7"),
        ({"nodes": True}, "'nodes' must be an integer, got True"),
        ({"edges": [[0, 1.5]]}, "'edges' qubit must be an integer, got 1.5"),
        ({"order": [False]}, "'order' qubit must be an integer, got False"),
        ({"outputs": [1.2]}, "'outputs' qubit must be an integer, got 1.2"),
        ({"inputs": [0.5]}, "'inputs' qubit must be an integer, got 0.5"),
        ({"byproducts": [{"type": "X", "qubit": True, "deps": [0]}]},
         "byproduct 'qubit' must be an integer, got True"),
        ({"byproducts": [{"type": "X", "qubit": 1, "deps": [0.5]}]},
         "byproduct 'deps' qubit must be an integer, got 0.5"),
        ({"nodes": 1, "edges": [], "outputs": []}, "a pattern needs at least one output qubit"),
        ({"angles": [True]}, "'angles' entry must be a number, got True"),
        ({"angles": ["0.5"]}, "'angles' entry must be a number, got '0.5'"),
        ({"edges": [[0]]}, "'edges' entry must be a list of length 2, got [0]"),
        ({"byproducts": [5]}, "byproduct must be an object, got 5"),
        ({"byproducts": [{"type": "X", "deps": [0]}]}, "byproduct is missing field(s) ['qubit']"),
        ({"adaptivity": [5]}, "'adaptivity' entry must be a string, got 5"),
        ({"angles": {"a": 1}}, "'angles' must be a list, got {'a': 1}"),
        ({"nodes": [0] * 10 ** 5}, "'nodes' must be an integer, got [0, 0, 0, 0, 0, 0, ...]"),
    ], ids=["fractional-nodes", "boolean-nodes", "fractional-edge", "boolean-order",
            "fractional-output", "fractional-input", "boolean-byproduct-qubit",
            "fractional-byproduct-dep", "no-outputs", "boolean-angle", "string-angle",
            "one-qubit-edge", "number-byproduct", "byproduct-without-qubit",
            "number-adaptivity", "object-angles", "long-list-nodes"])
    def test_mbqc_strict_pattern_fields(self, tmp_path, fields, message):
        # A two-node teleport pattern with one field replaced.
        data = {"nodes": 2, "edges": [[0, 1]], "order": [0], "angles": [0.0],
                "outputs": [1], **fields}
        pattern = tmp_path / "bad.json"
        pattern.write_text(json.dumps(data))
        code, out, err = run_cli("mbqc", "--pattern", str(pattern))
        assert_one_error_line(code, out, err)
        assert err == f"error: cannot load pattern: {message}\n"

    def test_anneal_trace(self, problem_path):
        code, out, _ = run_cli("anneal", "--problem", problem_path, "--t-final", "2",
                               "--steps", "50", "--trace", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["times"]) == 51 and len(payload["energies"]) == 51

    def test_anneal_bad_steps_is_usage_error(self, problem_path):
        code, _, _ = run_cli("anneal", "--problem", problem_path, "--steps", "0")
        assert code == 1

    @pytest.mark.parametrize("t_final", ["inf", "-inf", "nan"])
    def test_anneal_non_finite_t_final_is_refused(self, problem_path, t_final):
        # One line that names t_final, and no numpy warning before it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli("anneal", "--problem", problem_path,
                                     f"--t-final={t_final}")
        assert_one_error_line(code, out, err)
        assert "t_final" in err and caught == []

    def test_anneal_overflowing_step_is_refused(self, tmp_path):
        # t_final is finite, but a step's cost phase dt * lam1 * max|H1| is not.
        path = tmp_path / "p.json"
        path.write_text('{"n": 2, "h": [3, 2], "J": [[0, 1, 5]]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli("anneal", "--problem", str(path),
                                     "--t-final", "1.7e308", "--steps", "1")
        assert_one_error_line(code, out, err)
        assert "t_final" in err and "1 steps" in err and caught == []

    @pytest.mark.parametrize("t_final", ["50", "0"])
    def test_anneal_overflowing_cost_is_a_load_error(self, tmp_path, t_final):
        # Each coefficient is finite, their sum is not: the problem is refused
        # when loaded, whatever t_final is, and no numpy warning comes first.
        path = tmp_path / "p.json"
        path.write_text('{"n": 2, "h": [1e308, 1e308], "J": [[0, 1, 1e308]]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli("anneal", "--problem", str(path), "--t-final", t_final)
        assert_one_error_line(code, out, err)
        assert err == "error: cannot load problem: the sum of |h| and |J| must be finite\n"
        assert caught == []

    @pytest.mark.parametrize("steps", [MAX_ANNEAL_STEPS + 1, 10 ** 11])
    def test_anneal_steps_cap_rejects_before_annealing(self, problem_path, monkeypatch, steps):
        def refuse(*args, **kwargs):
            raise AssertionError("annealed past the step cap")

        monkeypatch.setattr(cli, "anneal", refuse)
        code, out, err = run_cli("anneal", "--problem", problem_path, "--steps", str(steps))
        assert_one_error_line(code, out, err)
        assert str(MAX_ANNEAL_STEPS) in err

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

    @pytest.mark.parametrize("command, flag, what", [
        ("transpile", "--profile", "profile"),
        ("mbqc", "--pattern", "pattern"),
        ("anneal", "--problem", "problem"),
    ], ids=["profile", "pattern", "problem"])
    @pytest.mark.parametrize("body, fault", [
        ("[" * 100_000 + "]" * 100_000, "is nested too deeply"),
        ('{"n": ' + "1" * 5000 + "}", "has an integer of more than"),
    ], ids=["deep-nesting", "long-integer"])
    def test_json_input_faults_name_the_input(self, tmp_path, bell_path, command, flag, what,
                                              body, fault):
        path = tmp_path / "bad.json"
        path.write_text(body)
        circuit = (bell_path,) if command == "transpile" else ()
        code, out, err = run_cli(command, *circuit, flag, str(path))
        assert_one_error_line(code, out, err)
        assert f"{what} {fault}" in err and "set_int_max_str_digits" not in err

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

"""Connectivity graphs, profile schema, and the builtin device dataset."""

import json

import pytest

import aqmkit as aq
from aqmkit.devices import BUILTIN_PROFILE_NAMES, CITED_CONSTANTS, builtin_profile
from aqmkit.graphs import ConnectivityGraph
from aqmkit.profiles import Level, profile_to_dict
from oracles import all_simple_paths, connected_graphs


class TestShortestPath:
    def test_line_unique_path(self):
        assert aq.shortest_path(ConnectivityGraph.line(3), 0, 2) == [0, 1, 2]

    def test_same_node(self):
        assert aq.shortest_path(ConnectivityGraph.line(3), 1, 1) == [1]

    def test_four_cycle_lexicographic_tie(self):
        ring = ConnectivityGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert aq.shortest_path(ring, 0, 2) == [0, 1, 2]

    def test_disconnected_raises(self):
        graph = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(aq.DisconnectedError):
            aq.shortest_path(graph, 0, 3)

    def test_minimal_and_lex_smallest_vs_enumeration(self):
        for n in (2, 3, 4, 5):
            for graph in connected_graphs(n)[::3]:
                for a in range(n):
                    for b in range(n):
                        found = aq.shortest_path(graph, a, b)
                        candidates = all_simple_paths(graph, a, b)
                        shortest = min(len(p) for p in candidates)
                        assert len(found) == shortest
                        assert found == min(p for p in candidates if len(p) == shortest)

    def test_six_node_random_graphs_vs_enumeration(self):
        import numpy as np
        rng = np.random.default_rng(13)
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        checked = 0
        while checked < 25:
            chosen = [pair for pair in pairs if rng.random() < 0.4]
            graph = ConnectivityGraph.from_edges(6, chosen)
            if not graph.is_connected():
                continue
            checked += 1
            a, b = rng.choice(6, size=2, replace=False)
            found = aq.shortest_path(graph, int(a), int(b))
            candidates = all_simple_paths(graph, int(a), int(b))
            shortest = min(len(p) for p in candidates)
            assert len(found) == shortest
            assert found == min(p for p in candidates if len(p) == shortest)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ConnectivityGraph.from_edges(2, [(0, 0)])


class TestProfileSchema:
    def test_parse_builtin_serialization(self):
        profile = builtin_profile("superconducting-transmon")
        parsed = aq.parse_device_profile(aq.serialize_device_profile(profile))
        assert parsed == profile
        cz = parsed.gate_spec("CZ")
        assert cz.duration_ns == 40.0 and cz.fidelity == 0.998

    def test_round_trip_all_builtins(self):
        for name in BUILTIN_PROFILE_NAMES:
            profile = builtin_profile(name)
            assert aq.parse_device_profile(aq.serialize_device_profile(profile)) == profile

    def test_fidelity_out_of_range_names_field(self):
        data = profile_to_dict(builtin_profile("fluxonium"))
        data["native_gates"][0]["fidelity"] = 1.2
        with pytest.raises(aq.ProfileError, match=r"native_gates\[0\].fidelity"):
            aq.parse_device_profile(json.dumps(data))

    @pytest.mark.parametrize("path, value, message", [
        (("t1_us",), 10 ** 400, "t1_us is out of range"),
        (("t1_us",), float("nan"), "t1_us must be finite, got nan"),
        (("t1_us",), float("inf"), "t1_us must be finite, got inf"),
        (("t2_dd_us",), float("-inf"), "t2_dd_us must be finite, got -inf"),
        (("t2_us",), "300", "t2_us must be a number, got '300'"),
        (("measurement", "duration_ns"), 10 ** 400, "measurement.duration_ns is out of range"),
        (("native_gates", 0, "fidelity"), True,
         "native_gates[0].fidelity must be a number, got True"),
        (("num_qubits",), 5.5, "num_qubits must be an integer, got 5.5"),
        (("num_qubits",), 10 ** 9, "num_qubits must be at most 10000"),
    ], ids=["huge-t1", "nan-t1", "infinite-t1", "infinite-t2-dd", "string-t2",
            "huge-measurement-duration", "boolean-fidelity", "fractional-num-qubits",
            "num-qubits-over-cap"])
    def test_bad_number_names_field(self, path, value, message):
        data = profile_to_dict(builtin_profile("superconducting-transmon"))
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(aq.ProfileError) as info:
            aq.parse_device_profile(json.dumps(data))
        assert str(info.value) == message

    def test_integral_floats_read_as_integers(self):
        profile = builtin_profile("superconducting-transmon")
        data = profile_to_dict(profile)
        data["num_qubits"] = float(data["num_qubits"])
        data["connectivity"] = [[float(a), float(b)] for a, b in data["connectivity"]]
        assert aq.parse_device_profile(json.dumps(data)) == profile

    def test_missing_connectivity(self):
        data = profile_to_dict(builtin_profile("fluxonium"))
        del data["connectivity"]
        with pytest.raises(aq.ProfileError, match="missing field.*connectivity"):
            aq.parse_device_profile(json.dumps(data))

    def test_unknown_field_rejected(self):
        data = profile_to_dict(builtin_profile("fluxonium"))
        data["vendor"] = "acme"
        with pytest.raises(aq.ProfileError, match="unknown field.*vendor"):
            aq.parse_device_profile(json.dumps(data))

    def test_syntax_error(self):
        with pytest.raises(aq.ProfileError, match="syntax"):
            aq.parse_device_profile("{not json")

    def test_edge_out_of_range(self):
        data = profile_to_dict(builtin_profile("fluxonium"))
        data["connectivity"].append([0, 9])
        with pytest.raises(aq.ProfileError, match="connectivity"):
            aq.parse_device_profile(json.dumps(data))

    def test_two_qubit_gate_with_operations_none(self):
        data = profile_to_dict(builtin_profile("fluxonium"))
        data["rule_support"]["operations"] = "none"
        with pytest.raises(aq.ProfileError, match="operations"):
            aq.parse_device_profile(json.dumps(data))

    def test_validate_profile_passes_builtins(self):
        for name in BUILTIN_PROFILE_NAMES:
            assert aq.validate_profile(builtin_profile(name)) == []

    def test_unknown_builtin_lists_available(self):
        with pytest.raises(KeyError, match="trapped-ion"):
            builtin_profile("nonexistent")


class TestGoldenDataset:
    """Builtin constants pinned against their literature figures."""

    def test_transmon(self):
        p = builtin_profile("superconducting-transmon")
        assert p.gate_spec("CZ").duration_ns == 40.0
        assert p.gate_spec("CZ").fidelity == 0.998
        assert p.t1_us == 500.0 and p.t2_us == 300.0 and p.t2_dd_us == 557.0
        assert p.rule_support["connectivity"] == Level.PARTIAL

    def test_fluxonium(self):
        p = builtin_profile("fluxonium")
        assert p.t2_us == 1480.0
        assert p.gate_spec("CZ").fidelity == 0.999

    def test_trapped_ion(self):
        p = builtin_profile("trapped-ion")
        assert p.t2_us == 5.5e9  # 5500 s
        assert p.gate_spec("CNOT").fidelity == 0.999
        n = p.connectivity.num_qubits
        assert len(p.connectivity.edges) == n * (n - 1) // 2  # all-to-all

    def test_neutral_atom(self):
        p = builtin_profile("neutral-atom")
        assert p.gate_spec("CZ").fidelity == 0.995
        assert p.gate_spec("CZ").duration_ns == 200.0

    def test_nv_center(self):
        p = builtin_profile("nv-center")
        assert p.t2_dd_us == 1.58e6  # 1.58 s electron
        constants = CITED_CONSTANTS["nv-center"]
        assert constants["nuclear_t2_dd_us"] == 6.3e7  # 63 s nuclear
        assert constants["entanglement_rate_hz"] == 9.0
        assert "9 Hz" in p.notes["rule_support.connectivity"]
        assert "63 s" in p.notes["t2_dd_us"]
        assert not p.has_native_entangler()

    def test_quantum_memory(self):
        p = builtin_profile("quantum-memory-ensemble")
        assert p.t2_us == 1.6e7  # 16 s
        assert p.t2_dd_us == 52.9 * 60.0 * 1e6  # 52.9 min
        assert p.native_gates == ()
        assert p.rule_support["operations"] == Level.NONE

    def test_cited_constants_match_profile_fields(self):
        p = builtin_profile("superconducting-transmon")
        c = CITED_CONSTANTS["superconducting-transmon"]
        assert p.gate_spec("CZ").duration_ns == c["cz_duration_ns"]
        assert p.gate_spec("CZ").fidelity == c["cz_fidelity"]
        assert (p.t1_us, p.t2_us, p.t2_dd_us) == (c["t1_us"], c["t2_us"], c["t2_dd_us"])

    def test_every_numeric_field_has_a_note(self):
        # Timing/fidelity constants must be traceable: a citation or an
        # explicit nominal marker somewhere in the notes.
        for name in BUILTIN_PROFILE_NAMES:
            p = builtin_profile(name)
            assert p.notes, f"{name} has no notes"
            blob = " ".join(p.notes.values()).lower()
            assert ("et al" in blob) or ("nominal" in blob)
            for field in ("t1_us", "t2_us"):
                assert any(key.startswith(field.split("_")[0]) for key in p.notes), \
                    f"{name}: no note covering {field}"

"""Demand dataset, device-demand matching, and compensation planning."""

import json
from dataclasses import replace

import pytest

import aqmkit as aq
from aqmkit.demand import BUILTIN_DEMAND_NAMES, builtin_demand
from aqmkit.devices import BUILTIN_PROFILE_NAMES, builtin_profile
from aqmkit.matcher import report_to_dict
from aqmkit.profiles import Level, profile_from_dict, profile_to_dict


class TestDemandDataset:
    def test_quantum_annealing_row(self):
        demand = builtin_demand("quantum-annealing")
        assert demand.demand("operations") == Level.NONE
        assert demand.demand("connectivity") == Level.FULL
        assert demand.demand("readout") == Level.PARTIAL

    def test_quantum_memory_row(self):
        demand = builtin_demand("quantum-memory")
        assert demand.demand("coherence") == Level.FULL
        assert demand.demand("readout") == Level.NONE

    def test_universal_all_full(self):
        demand = builtin_demand("circuit-model-universal")
        assert all(d.level == Level.FULL for d in demand.rule_demand.values())

    def test_walk_states_partial_with_note(self):
        demand = builtin_demand("quantum-walk")
        assert demand.rule_demand["states"].level == Level.PARTIAL
        assert demand.rule_demand["states"].note

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="mbqc"):
            builtin_demand("grover")


class TestMatchProfiles:
    def test_photonic_supports_mbqc(self):
        report = aq.match_profiles(builtin_profile("photonic-mbqc"), builtin_demand("mbqc"))
        assert report.overall == "supported"

    def test_memory_cannot_do_universal(self):
        report = aq.match_profiles(builtin_profile("quantum-memory-ensemble"),
                                   builtin_demand("circuit-model-universal"))
        assert report.overall == "unsupported"
        operations = next(v for v in report.rules if v.rule == "operations")
        assert operations.verdict == "fail"

    def test_transmon_universal_with_routing(self):
        report = aq.match_profiles(builtin_profile("superconducting-transmon"),
                                   builtin_demand("circuit-model-universal"))
        assert report.overall == "supported_with_compensation"
        connectivity = next(v for v in report.rules if v.rule == "connectivity")
        assert connectivity.verdict == "ok_with_compensation"
        assert connectivity.compensation.technique == "gate routing"

    def test_upgrading_support_never_breaks(self):
        order = [Level.NONE, Level.PARTIAL, Level.FULL]
        for device_name in BUILTIN_PROFILE_NAMES:
            device = builtin_profile(device_name)
            for demand_name in BUILTIN_DEMAND_NAMES:
                demand = builtin_demand(demand_name)
                base = {v.rule: v.verdict
                        for v in aq.match_profiles(device, demand).rules}
                for rule in aq.RULES:
                    level = device.rule_support[rule]
                    if level == Level.FULL:
                        continue
                    upgraded = replace(
                        device,
                        rule_support={**device.rule_support,
                                      rule: order[order.index(level) + 1]})
                    new = {v.rule: v.verdict
                           for v in aq.match_profiles(upgraded, demand).rules}
                    if base[rule] != "fail":
                        assert new[rule] != "fail", (device_name, demand_name, rule)

    def test_qec_coherence_flag_configurable(self):
        transmon = builtin_profile("superconducting-transmon")
        weak = replace(transmon,
                       rule_support={**transmon.rule_support, "coherence": Level.PARTIAL})
        default = aq.match_profiles(weak, builtin_demand("circuit-model-universal"))
        coherence = next(v for v in default.rules if v.rule == "coherence")
        assert coherence.verdict == "fail"
        allowed = aq.match_profiles(weak, builtin_demand("circuit-model-universal"),
                                    allow_qec_for_coherence=True)
        coherence = next(v for v in allowed.rules if v.rule == "coherence")
        assert coherence.verdict == "ok_with_compensation"


class TestPlanCompensation:
    def bell(self):
        return aq.Circuit(2).add("H", 0).add("CNOT", 0, 1)

    def test_bell_on_transmon(self):
        outcome = aq.plan_compensation(builtin_profile("superconducting-transmon"),
                                       self.bell())
        assert outcome.ok
        assert outcome.result.cost.fidelity_estimate > 0.99
        native = builtin_profile("superconducting-transmon").native_names()
        for inst in outcome.result.circuit.instructions:
            assert inst.gate in native

    def test_disconnected_pair_fails_connectivity(self):
        device = builtin_profile("superconducting-transmon")
        broken = replace(device,
                         connectivity=aq.ConnectivityGraph.from_edges(5, [(0, 1), (2, 3)]))
        circuit = aq.Circuit(4).add("CNOT", 0, 3)
        outcome = aq.plan_compensation(broken, circuit)
        assert not outcome.ok and outcome.failed_rule == "connectivity"

    def test_identity_circuit_costs_nothing(self):
        outcome = aq.plan_compensation(builtin_profile("trapped-ion"), aq.Circuit(2))
        assert outcome.ok
        assert outcome.result.cost.total_duration_ns == 0.0
        assert outcome.result.cost.fidelity_estimate == pytest.approx(1.0)

    def test_budget_failure_cites_coherence(self):
        device = builtin_profile("trapped-ion")
        tiny = replace(device, t2_us=1.0, t2_dd_us=None)  # 1 us, CNOT takes 100 us
        outcome = aq.plan_compensation(tiny, self.bell())
        assert not outcome.ok and outcome.failed_rule == "coherence"

    def test_no_operations_fails_fast(self):
        outcome = aq.plan_compensation(builtin_profile("quantum-memory-ensemble"),
                                       self.bell())
        assert not outcome.ok and outcome.failed_rule == "operations"

    def test_unreachable_rotation_fails_operations(self):
        # RY is native and RZ is not: RZ(0.3) is approximated over the fixed
        # gates, misses the default epsilon, and the outcome names the rule.
        data = profile_to_dict(builtin_profile("superconducting-transmon"))
        data["native_gates"] = [g for g in data["native_gates"] if g["gate"] not in ("RZ", "RX")]
        outcome = aq.plan_compensation(profile_from_dict(data),
                                       aq.Circuit(1).add("RZ", 0, angle=0.3))
        assert not outcome.ok and outcome.failed_rule == "operations"
        assert outcome.reason.startswith("RZ(0.3) not approximable")

    def test_consistency_with_match(self):
        universal = builtin_demand("circuit-model-universal")
        for name in BUILTIN_PROFILE_NAMES:
            device = builtin_profile(name)
            supported = aq.match_profiles(device, universal).overall != "unsupported"
            assert supported == aq.plan_compensation(device, self.bell()).ok, name


class TestRenderReport:
    def test_json_schema_round_trip(self):
        report = aq.match_profiles(builtin_profile("superconducting-transmon"),
                                   builtin_demand("mbqc"))
        data = json.loads(aq.render_report(report, "json"))
        assert set(data) >= {"device", "demand", "rules", "overall"}
        assert len(data["rules"]) == 5
        for entry in data["rules"]:
            assert set(entry) >= {"rule", "demand", "support", "verdict"}
            assert entry["demand"] in ("full", "partial", "none")
            assert entry["verdict"] in ("ok", "ok_with_compensation", "fail")

    def test_fail_report_recommends_exit_2(self):
        report = aq.match_profiles(builtin_profile("quantum-memory-ensemble"),
                                   builtin_demand("circuit-model-universal"))
        data = report_to_dict(report)
        assert data["exit_code_recommendation"] == 2
        assert "exit-code recommendation: 2" in aq.render_report(report, "text")

    def test_full_matrix_renders(self):
        for demand_name in BUILTIN_DEMAND_NAMES:
            for device_name in BUILTIN_PROFILE_NAMES:
                report = aq.match_profiles(builtin_profile(device_name),
                                           builtin_demand(demand_name))
                assert aq.render_report(report, "text")
                json.loads(aq.render_report(report, "json"))

    def test_unknown_format(self):
        report = aq.match_profiles(builtin_profile("fluxonium"), builtin_demand("mbqc"))
        with pytest.raises(ValueError, match="format"):
            aq.render_report(report, "yaml")

    def test_device_citations_surface_in_report(self):
        report = aq.match_profiles(builtin_profile("nv-center"),
                                   builtin_demand("circuit-model-universal"))
        text = aq.render_report(report, "text")
        assert "9 Hz" in text  # connectivity note carries the literature figure

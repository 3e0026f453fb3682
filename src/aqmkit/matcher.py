"""Reconciling device support against application demand, rule by rule.

A rule whose demand exceeds the device's support either has a compensation
technique (gate decomposition, routing, measurement synthesis) that the
device can actually execute, or it fails; the overall verdict aggregates the
rules. ``plan_compensation`` is the concrete counterpart: it runs the full
compiler pipeline on a circuit and reports which rule blocked, if any.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import Circuit
from .demand import DemandProfile
from .pipeline import CompensationError, CompilationResult, compile_for_device
from .profiles import RULES, DeviceProfile, Level
from .rewrite import RewriteError, rewrite_to_basis

OK = "ok"
OK_WITH_COMPENSATION = "ok_with_compensation"
FAIL = "fail"

SUPPORTED = "supported"
SUPPORTED_WITH_COMPENSATION = "supported_with_compensation"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Compensation:
    technique: str
    cost_summary: str


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    demand: Level
    support: Level
    verdict: str
    compensation: Compensation | None = None
    note: str = ""


@dataclass(frozen=True)
class MatchReport:
    device: str
    demand: str
    rules: tuple[RuleVerdict, ...]
    overall: str


def _has_universal_kit(device: DeviceProfile) -> bool:
    """Can the native set exactly express the H/T/CNOT closure?"""
    probe = Circuit(2)
    probe.add("H", 0)
    probe.add("T", 0)
    probe.add("CNOT", 0, 1)
    try:
        rewrite_to_basis(probe, device.native_names())
    except RewriteError:
        return False
    return True


def _verdict_for_rule(rule: str, device: DeviceProfile, want: Level,
                      allow_qec_for_coherence: bool) -> tuple[str, Compensation | None, str]:
    support = device.rule_support[rule]
    if want <= support:
        return OK, None, ""
    if rule == "states":
        return FAIL, None, "no compensation technique covers missing qubit states"
    if rule == "operations":
        if support == Level.PARTIAL and _has_universal_kit(device):
            return OK_WITH_COMPENSATION, Compensation(
                "gate decomposition",
                "more gate operations and longer execution time"), ""
        return FAIL, None, "native gates cannot express a universal discrete set"
    if rule == "connectivity":
        if (support == Level.PARTIAL and device.has_native_entangler()
                and device.connectivity.is_connected()):
            return OK_WITH_COMPENSATION, Compensation(
                "gate routing",
                "extra SWAP operations and time along connection paths"), ""
        return FAIL, None, "routing needs a connected graph and a native two-qubit gate"
    if rule == "readout":
        if support >= Level.PARTIAL and device.has_native_entangler():
            return OK_WITH_COMPENSATION, Compensation(
                "measurement synthesis with auxiliary qubits",
                "ancilla qubits plus entangling gates before a projective readout"), ""
        return FAIL, None, ("general measurements need projective readout plus a "
                            "native entangler for the ancilla coupling")
    if rule == "coherence":
        if device.qec_capable and allow_qec_for_coherence:
            return OK_WITH_COMPENSATION, Compensation(
                "quantum error correction (capability flag)",
                "many more physical qubits and gate/measurement operations"), ""
        note = ("circuit-level coherence budgeting may still admit short workloads"
                + ("; device flags error-correction capability" if device.qec_capable else ""))
        return FAIL, None, note
    raise ValueError(f"unknown rule {rule!r}")


def match_profiles(device: DeviceProfile, demand: DemandProfile,
                   allow_qec_for_coherence: bool = False) -> MatchReport:
    """Classify every rule as ok, compensable, or failed; aggregate the verdict."""
    verdicts = []
    for rule in RULES:
        want = demand.rule_demand[rule].level
        verdict, compensation, note = _verdict_for_rule(
            rule, device, want, allow_qec_for_coherence)
        notes = [text for text in (demand.rule_demand[rule].note,
                                   device.notes.get(f"rule_support.{rule}", ""),
                                   note) if text]
        verdicts.append(RuleVerdict(rule, want, device.rule_support[rule], verdict,
                                    compensation, "; ".join(notes)))
    if any(v.verdict == FAIL for v in verdicts):
        overall = UNSUPPORTED
    elif any(v.verdict == OK_WITH_COMPENSATION for v in verdicts):
        overall = SUPPORTED_WITH_COMPENSATION
    else:
        overall = SUPPORTED
    return MatchReport(device.name, demand.name, tuple(verdicts), overall)


@dataclass(frozen=True)
class PlanOutcome:
    ok: bool
    result: CompilationResult | None = None
    failed_rule: str | None = None
    reason: str = ""


def plan_compensation(device: DeviceProfile, circuit: Circuit, epsilon: float = 0.01,
                      max_depth: int = 10, budget_threshold: float = 0.01) -> PlanOutcome:
    """Compile a circuit for the device, or report the rule that blocked it."""
    if device.rule_support["operations"] == Level.NONE:
        return PlanOutcome(False, failed_rule="operations",
                           reason=f"device {device.name!r} offers no gate operations")
    try:
        result = compile_for_device(circuit, device, epsilon=epsilon, max_depth=max_depth,
                                    budget_threshold=budget_threshold)
    except CompensationError as exc:
        return PlanOutcome(False, failed_rule=exc.rule, reason=str(exc))
    if not result.budget.ok:
        return PlanOutcome(
            False, result=result, failed_rule="coherence",
            reason=(f"duration {result.budget.total_duration_ns:.0f} ns exceeds "
                    f"{result.budget.threshold:g} x T2 ({result.budget.t2_us:g} us)"))
    return PlanOutcome(True, result=result)


# --- report rendering -------------------------------------------------------

def report_to_dict(report: MatchReport) -> dict:
    rules = []
    for v in report.rules:
        entry: dict = {
            "rule": v.rule,
            "demand": v.demand.value,
            "support": v.support.value,
            "verdict": v.verdict,
        }
        if v.compensation is not None:
            entry["compensation"] = {
                "technique": v.compensation.technique,
                "cost": {"summary": v.compensation.cost_summary},
            }
        if v.note:
            entry["notes"] = v.note
        rules.append(entry)
    return {
        "device": report.device,
        "demand": report.demand,
        "rules": rules,
        "overall": report.overall,
        "exit_code_recommendation": 2 if report.overall == UNSUPPORTED else 0,
    }


def render_report(report: MatchReport, format: str = "text") -> str:
    """Human-readable table or schema-stable JSON for a match report."""
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r} (expected 'text' or 'json')")
    lines = [f"device: {report.device}", f"demand: {report.demand}", ""]
    header = f"{'rule':<14}{'demand':<10}{'support':<10}{'verdict':<24}compensation"
    lines.append(header)
    lines.append("-" * len(header))
    for v in report.rules:
        technique = v.compensation.technique if v.compensation else "-"
        lines.append(f"{v.rule:<14}{v.demand.value:<10}{v.support.value:<10}"
                     f"{v.verdict:<24}{technique}")
    lines.append("")
    lines.append(f"overall: {report.overall}")
    if report.overall == UNSUPPORTED:
        lines.append("exit-code recommendation: 2")
    notes = [(v.rule, v.note) for v in report.rules if v.note]
    if notes:
        lines.append("")
        lines.append("notes:")
        for rule, note in notes:
            lines.append(f"  {rule}: {note}")
    return "\n".join(lines) + "\n"

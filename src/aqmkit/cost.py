"""Cost accounting and coherence budgeting for device-legal circuits.

The fidelity model is a deliberate heuristic: the product of per-gate and
per-measurement fidelities times one exp(-duration/T2) decay factor per
participating qubit, with instructions scheduled serially. MEASURE and RESET
are priced with the device's measurement spec (RESET is
initialization-by-measurement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .gates import MARKERS
from .profiles import DeviceProfile


@dataclass(frozen=True)
class CostRecord:
    gate_counts: dict[str, int]
    total_duration_ns: float
    gate_fidelity_product: float
    fidelity_estimate: float
    added_ancillas: int = 0


@dataclass(frozen=True)
class BudgetCheck:
    ok: bool
    ratio: float
    total_duration_ns: float
    t2_us: float
    threshold: float

    def failure_reason(self) -> str:
        """Why the budget is blown, as `aqm transpile` and the matcher report it."""
        return (f"duration {self.total_duration_ns:.0f} ns exceeds "
                f"{self.threshold:g} x T2 ({self.t2_us:g} us)")


def estimate_cost(circuit: Circuit, profile: DeviceProfile) -> CostRecord:
    """Serial-schedule duration and heuristic fidelity for a legal circuit."""
    duration = 0.0
    fidelity_product = 1.0
    specs = {}  # each distinct gate is looked up once
    for inst in circuit.instructions:
        if inst.gate in MARKERS:
            duration += profile.measurement.duration_ns
            fidelity_product *= profile.measurement.fidelity
        else:
            spec = specs.get(inst.gate)
            if spec is None:
                try:
                    spec = specs[inst.gate] = profile.gate_spec(inst.gate)
                except KeyError:
                    raise ValueError(
                        f"{inst.gate} is not native to device {profile.name!r}") from None
            duration += spec.duration_ns
            fidelity_product *= spec.fidelity
    participants = len(circuit.used_qubits())
    t2_ns = profile.effective_t2_us() * 1000.0
    decay = float(np.exp(-duration / t2_ns)) ** participants
    return CostRecord(
        gate_counts=circuit.gate_counts(),
        total_duration_ns=duration,
        gate_fidelity_product=fidelity_product,
        fidelity_estimate=fidelity_product * decay)


def budget_from_cost(cost: CostRecord, profile: DeviceProfile,
                     threshold: float = 0.01) -> BudgetCheck:
    """The coherence budget check for a circuit whose cost is already known."""
    t2_us = profile.effective_t2_us()
    ratio = cost.total_duration_ns / (t2_us * 1000.0)
    return BudgetCheck(ratio <= threshold, ratio, cost.total_duration_ns, t2_us, threshold)


def check_coherence_budget(circuit: Circuit, profile: DeviceProfile,
                           threshold: float = 0.01) -> BudgetCheck:
    """Pass iff total serial duration <= threshold * T2 (decoupled T2 if known)."""
    return budget_from_cost(estimate_cost(circuit, profile), profile, threshold)


def cost_to_dict(cost: CostRecord) -> dict:
    """The JSON form of a cost record, as `aqm transpile --json` writes it."""
    return {
        "gate_count_by_name": dict(sorted(cost.gate_counts.items())),
        "total_duration_ns": cost.total_duration_ns,
        "fidelity_estimate": cost.fidelity_estimate,
        "added_ancillas": cost.added_ancillas,
    }

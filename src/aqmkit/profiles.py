"""Device capability profiles.

A profile records, per capability rule (states, operations, connectivity,
coherence, readout), how well a device supports it, together with the
concrete gate set, connectivity graph, and timing/fidelity/coherence
constants used by the compiler passes. Profiles are immutable after parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from ._fields import (read_boolean, read_integer, read_json, read_list, read_number,
                      read_object, read_qubits, read_string)
from .gates import GATE_ARITY, MARKERS
from .graphs import ConnectivityGraph

RULES = ("states", "operations", "connectivity", "coherence", "readout")


class Level(str, Enum):
    """Three-level support/demand grade for one rule."""

    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"

    @property
    def rank(self) -> int:
        return ("none", "partial", "full").index(self.value)

    def __ge__(self, other: "Level") -> bool:  # type: ignore[override]
        return self.rank >= other.rank

    def __gt__(self, other: "Level") -> bool:  # type: ignore[override]
        return self.rank > other.rank

    def __le__(self, other: "Level") -> bool:  # type: ignore[override]
        return self.rank <= other.rank

    def __lt__(self, other: "Level") -> bool:  # type: ignore[override]
        return self.rank < other.rank


class ProfileError(ValueError):
    """Schema or invariant violation; message names the field path."""


@dataclass(frozen=True)
class GateSpec:
    gate: str
    arity: int
    duration_ns: float
    fidelity: float


@dataclass(frozen=True)
class MeasurementSpec:
    computational_only: bool
    fidelity: float
    duration_ns: float
    mid_circuit: bool


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    num_qubits: int
    connectivity: ConnectivityGraph
    native_gates: tuple[GateSpec, ...]
    t1_us: float
    t2_us: float
    measurement: MeasurementSpec
    rule_support: dict[str, Level]
    qec_capable: bool
    t2_dd_us: float | None = None
    notes: dict[str, str] = field(default_factory=dict)

    def native_names(self) -> frozenset[str]:
        return frozenset(spec.gate for spec in self.native_gates)

    def gate_spec(self, name: str) -> GateSpec:
        for spec in self.native_gates:
            if spec.gate == name.upper():
                return spec
        raise KeyError(f"gate {name!r} is not native to device {self.name!r}")

    def has_native_entangler(self) -> bool:
        return any(spec.arity >= 2 for spec in self.native_gates)

    def effective_t2_us(self) -> float:
        """Coherence constant used for budgeting (decoupling-enhanced if known)."""
        return self.t2_dd_us if self.t2_dd_us is not None else self.t2_us

    def support(self, rule: str) -> Level:
        return self.rule_support[rule]


def validate_profile(profile: DeviceProfile) -> list[str]:
    """Check all invariants; returns violation strings (empty = pass)."""
    violations: list[str] = []
    if profile.num_qubits < 1:
        violations.append("num_qubits: must be >= 1")
    if profile.connectivity.num_qubits != profile.num_qubits:
        violations.append("connectivity: graph qubit count differs from num_qubits")
    for i, spec in enumerate(profile.native_gates):
        path = f"native_gates[{i}]"
        if spec.gate not in GATE_ARITY or spec.gate in MARKERS:
            violations.append(f"{path}.gate: {spec.gate!r} is not in the circuit alphabet")
        elif spec.arity != GATE_ARITY[spec.gate]:
            violations.append(
                f"{path}.arity: {spec.arity} but {spec.gate} takes {GATE_ARITY[spec.gate]}")
        if not spec.duration_ns > 0:
            violations.append(f"{path}.duration_ns: must be > 0")
        if not 0 < spec.fidelity <= 1:
            violations.append(f"{path}.fidelity: must be in (0, 1]")
    names = [spec.gate for spec in profile.native_gates]
    if len(names) != len(set(names)):
        violations.append("native_gates: duplicate gate entries")
    if profile.t1_us <= 0:
        violations.append("t1_us: must be > 0")
    if profile.t2_us <= 0:
        violations.append("t2_us: must be > 0")
    if profile.t2_dd_us is not None and profile.t2_dd_us <= 0:
        violations.append("t2_dd_us: must be > 0")
    if not 0 < profile.measurement.fidelity <= 1:
        violations.append("measurement.fidelity: must be in (0, 1]")
    if profile.measurement.duration_ns <= 0:
        violations.append("measurement.duration_ns: must be > 0")
    if set(profile.rule_support) != set(RULES):
        violations.append("rule_support: must cover exactly the five rules")
    has_multi = any(spec.arity >= 2 for spec in profile.native_gates)
    if has_multi and not profile.connectivity.edges:
        violations.append("connectivity: multi-qubit native gate but no edges")
    if has_multi and profile.rule_support.get("operations") == Level.NONE:
        violations.append(
            "rule_support.operations: 'none' is inconsistent with native two-qubit gates")
    return violations


# --- JSON schema ------------------------------------------------------------

# Most qubits a profile may declare. The connectivity graph keeps one
# neighbour list per qubit, so a larger count would cost memory before any
# edge is read (three million qubits took 0.9 GiB).
MAX_PROFILE_QUBITS = 10_000

_REQUIRED = ("name", "num_qubits", "connectivity", "native_gates", "t1_us", "t2_us",
             "measurement", "rule_support", "qec_capable", "notes")
_GATE_FIELDS = ("gate", "arity", "duration_ns", "fidelity")
_MEAS_FIELDS = ("computational_only", "fidelity", "duration_ns", "mid_circuit")


def _level(value, path: str) -> Level:
    if value not in ("full", "partial", "none"):
        raise ValueError(f"{path}: bad level {value!r}")
    return Level(value)


def _read_profile(data) -> DeviceProfile:
    """The profile that `data` spells out, before its invariants are checked."""
    data = read_object(data, "profile", _REQUIRED, ("t2_dd_us",))
    num_qubits = read_integer(data["num_qubits"], "num_qubits")
    if num_qubits > MAX_PROFILE_QUBITS:
        raise ValueError(f"num_qubits must be at most {MAX_PROFILE_QUBITS}")
    edges = [read_qubits(read_list(pair, f"connectivity[{i}]", 2), f"connectivity[{i}]")
             for i, pair in enumerate(read_list(data["connectivity"], "connectivity"))]
    try:
        connectivity = ConnectivityGraph.from_edges(num_qubits, edges)
    except ValueError as exc:
        raise ValueError(f"connectivity: {exc}") from None

    specs = []
    for i, raw in enumerate(read_list(data["native_gates"], "native_gates")):
        path = f"native_gates[{i}]"
        raw = read_object(raw, path, _GATE_FIELDS)
        specs.append(GateSpec(read_string(raw["gate"], f"{path}.gate").upper(),
                              read_integer(raw["arity"], f"{path}.arity"),
                              read_number(raw["duration_ns"], f"{path}.duration_ns"),
                              read_number(raw["fidelity"], f"{path}.fidelity")))

    raw_meas = read_object(data["measurement"], "measurement", _MEAS_FIELDS)
    measurement = MeasurementSpec(
        read_boolean(raw_meas["computational_only"], "measurement.computational_only"),
        read_number(raw_meas["fidelity"], "measurement.fidelity"),
        read_number(raw_meas["duration_ns"], "measurement.duration_ns"),
        read_boolean(raw_meas["mid_circuit"], "measurement.mid_circuit"))

    raw_rules = read_object(data["rule_support"], "rule_support", RULES)
    # Notes take any key; each key and value is a string.
    notes = read_object(data["notes"], "notes", (), data["notes"])
    for key, value in notes.items():
        read_string(key, "notes key")
        read_string(value, f"notes.{key}")

    return DeviceProfile(
        name=read_string(data["name"], "name"),
        num_qubits=num_qubits,
        connectivity=connectivity,
        native_gates=tuple(specs),
        t1_us=read_number(data["t1_us"], "t1_us"),
        t2_us=read_number(data["t2_us"], "t2_us"),
        t2_dd_us=read_number(data["t2_dd_us"], "t2_dd_us") if "t2_dd_us" in data else None,
        measurement=measurement,
        rule_support={rule: _level(raw_rules[rule], f"rule_support.{rule}") for rule in RULES},
        qec_capable=read_boolean(data["qec_capable"], "qec_capable"),
        notes=dict(notes))


def profile_from_dict(data: dict) -> DeviceProfile:
    """Build and validate a DeviceProfile from schema-shaped data."""
    try:
        profile = _read_profile(data)
    except ValueError as exc:
        raise ProfileError(str(exc)) from None
    violations = validate_profile(profile)
    if violations:
        raise ProfileError("; ".join(violations))
    return profile


def parse_device_profile(text: str) -> DeviceProfile:
    """Parse profile JSON; rejects unknown fields and invariant violations."""
    try:
        data = read_json(text, "profile")
    except json.JSONDecodeError as exc:
        raise ProfileError(f"syntax error: {exc}") from None
    except ValueError as exc:
        raise ProfileError(str(exc)) from None
    return profile_from_dict(data)


def profile_to_dict(profile: DeviceProfile) -> dict:
    data = {
        "name": profile.name,
        "num_qubits": profile.num_qubits,
        "connectivity": [[a, b] for a, b in sorted(profile.connectivity.edges)],
        "native_gates": [
            {"gate": s.gate, "arity": s.arity, "duration_ns": s.duration_ns,
             "fidelity": s.fidelity}
            for s in profile.native_gates],
        "t1_us": profile.t1_us,
        "t2_us": profile.t2_us,
        "measurement": {
            "computational_only": profile.measurement.computational_only,
            "fidelity": profile.measurement.fidelity,
            "duration_ns": profile.measurement.duration_ns,
            "mid_circuit": profile.measurement.mid_circuit},
        "rule_support": {rule: profile.rule_support[rule].value for rule in RULES},
        "qec_capable": profile.qec_capable,
        "notes": dict(profile.notes),
    }
    if profile.t2_dd_us is not None:
        data["t2_dd_us"] = profile.t2_dd_us
    return data


def serialize_device_profile(profile: DeviceProfile, indent: int = 2) -> str:
    return json.dumps(profile_to_dict(profile), indent=indent) + "\n"

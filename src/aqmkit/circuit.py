"""Circuit representation and the plain-text circuit format.

Text format: one instruction per line, '#' starts a comment, names are
case-insensitive. The first non-comment line must be ``qubits N``. Gates:
I X Y Z H S SDG T TDG (1 operand), RX RY RZ (1 operand + radian angle),
CNOT CZ SWAP (2 operands, CNOT order control target), CCX (3 operands,
controls then target), MEASURE q, RESET q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gates import GATE_ARITY, ROTATION_GATES


class CircuitError(ValueError):
    """Invalid instruction (unknown gate, bad operands, missing angle)."""


class CircuitParseError(CircuitError):
    """Text-format parse failure; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instruction:
    gate: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        name = self.gate.upper()
        qubits = tuple(map(int, self.qubits))
        object.__setattr__(self, "gate", name)
        object.__setattr__(self, "qubits", qubits)
        arity = GATE_ARITY.get(name)
        if arity is None:
            raise CircuitError(f"unknown gate {name!r}")
        if len(qubits) != arity:
            raise CircuitError(f"{name} takes {arity} operand(s), got {len(qubits)}")
        if arity > 1 and len(set(qubits)) != arity:
            raise CircuitError(f"{name} operands must be pairwise distinct: {qubits}")
        if name in ROTATION_GATES:
            if self.angle is None:
                raise CircuitError(f"{name} requires an angle")
            angle = float(self.angle)
            if not math.isfinite(angle):
                raise CircuitError(f"{name} angle must be finite, got {angle}")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise CircuitError(f"{name} takes no angle")


@dataclass
class Circuit:
    """Ordered instruction list over a fixed qubit register."""

    num_qubits: int
    instructions: list[Instruction] = field(default_factory=list)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("num_qubits must be >= 1")
        for inst in self.instructions:
            self._check_range(inst)

    def _check_range(self, inst: Instruction):
        for q in inst.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"operand {q} out of range for {self.num_qubits} qubit(s)")

    def add(self, gate: str, *qubits: int, angle: float | None = None) -> "Circuit":
        inst = Instruction(gate, tuple(qubits), angle)
        self._check_range(inst)
        self.instructions.append(inst)
        return self

    def extend(self, instructions) -> "Circuit":
        for inst in instructions:
            self._check_range(inst)
            self.instructions.append(inst)
        return self

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self.instructions))

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self.instructions:
            counts[inst.gate] = counts.get(inst.gate, 0) + 1
        return counts

    def used_qubits(self) -> set[int]:
        return {q for inst in self.instructions for q in inst.qubits}


def parse_circuit(text: str) -> Circuit:
    """Parse the plain-text circuit format."""
    circuit: Circuit | None = None
    # Each distinct gate line is validated once: the text of a line that parsed
    # maps to its (frozen) Instruction, and a repeat reuses it.
    parsed: dict[str, Instruction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        inst = parsed.get(line)
        if inst is not None:
            circuit.instructions.append(inst)
            continue
        tokens = line.split()
        name = tokens[0].upper()
        if circuit is None:
            if name != "QUBITS" or len(tokens) != 2:
                raise CircuitParseError(line_no, "expected header 'qubits N'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise CircuitParseError(line_no, f"bad qubit count {tokens[1]!r}") from None
            if n < 1:
                raise CircuitParseError(line_no, "qubit count must be >= 1")
            circuit = Circuit(n)
            continue
        if name not in GATE_ARITY:
            raise CircuitParseError(line_no, f"unknown gate {tokens[0]!r}")
        arity = GATE_ARITY[name]
        takes_angle = name in ROTATION_GATES
        expected = 1 + arity + (1 if takes_angle else 0)
        if len(tokens) != expected:
            raise CircuitParseError(
                line_no,
                f"{name} expects {arity} operand(s)" + (" and an angle" if takes_angle else ""))
        try:
            qubits = tuple(int(t) for t in tokens[1:1 + arity])
        except ValueError:
            raise CircuitParseError(line_no, f"bad operand in {line!r}") from None
        angle = None
        if takes_angle:
            try:
                angle = float(tokens[1 + arity])
            except ValueError:
                raise CircuitParseError(line_no, f"bad angle {tokens[1 + arity]!r}") from None
        try:
            circuit.add(name, *qubits, angle=angle)
        except CircuitError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        parsed[line] = circuit.instructions[-1]
    if circuit is None:
        raise CircuitParseError(1, "empty circuit file (missing 'qubits N' header)")
    return circuit


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to the text format (round-trips with parse)."""
    lines = [f"qubits {circuit.num_qubits}"]
    for inst in circuit.instructions:
        parts = [inst.gate] + [str(q) for q in inst.qubits]
        if inst.angle is not None:
            parts.append(repr(inst.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"

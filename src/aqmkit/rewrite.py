"""Exact gate rewriting into a device's native basis.

Every rule is an exact identity (up to global phase): SWAP becomes three
CNOTs, CZ and CNOT interconvert through Hadamard sandwiches, CCX expands to
the standard 15-instruction form, and discrete phase gates fall back to
T/TDG chains or native rotations. Rotation gates with generic angles have no
exact rule; callers route those through the approximation pass.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, CircuitError, Instruction
from .gates import MARKERS, ROTATION_GATES

PI = np.pi


class RewriteError(CircuitError):
    """No exact rewrite of a gate into the requested basis."""


def _ccx_expansion(c1: int, c2: int, t: int) -> list[Instruction]:
    seq = [("H", (t,)), ("CNOT", (c2, t)), ("TDG", (t,)), ("CNOT", (c1, t)),
           ("T", (t,)), ("CNOT", (c2, t)), ("TDG", (t,)), ("CNOT", (c1, t)),
           ("T", (c2,)), ("T", (t,)), ("H", (t,)), ("CNOT", (c1, c2)),
           ("T", (c1,)), ("TDG", (c2,)), ("CNOT", (c1, c2))]
    return [Instruction(g, q) for g, q in seq]


def _expansion(inst: Instruction, native: frozenset[str]) -> list[Instruction] | None:
    """One rewrite step for a non-native gate; None when no rule applies."""
    name = inst.gate
    q = inst.qubits

    if name == "I":
        return []
    if name == "Z":
        if "RZ" in native:
            return [Instruction("RZ", q, PI)]
        if {"S", "T", "TDG"} & native:
            return [Instruction("S", q), Instruction("S", q)]
        return None
    if name == "S":
        if "RZ" in native:
            return [Instruction("RZ", q, PI / 2)]
        if "T" in native:
            return [Instruction("T", q)] * 2
        if "TDG" in native:
            return [Instruction("TDG", q)] * 6
        return None
    if name == "SDG":
        if "RZ" in native:
            return [Instruction("RZ", q, -PI / 2)]
        if "TDG" in native:
            return [Instruction("TDG", q)] * 2
        if "T" in native:
            return [Instruction("T", q)] * 6
        return None
    if name == "T":
        if "RZ" in native:
            return [Instruction("RZ", q, PI / 4)]
        if "TDG" in native:
            return [Instruction("TDG", q)] * 7
        return None
    if name == "TDG":
        if "RZ" in native:
            return [Instruction("RZ", q, -PI / 4)]
        if "T" in native:
            return [Instruction("T", q)] * 7
        return None
    if name == "X":
        if "RX" in native:
            return [Instruction("RX", q, PI)]
        if "H" in native:
            return [Instruction("H", q), Instruction("Z", q), Instruction("H", q)]
        return None
    if name == "Y":
        if "RY" in native:
            return [Instruction("RY", q, PI)]
        # Z @ X = iY: apply X first, then Z.
        return [Instruction("X", q), Instruction("Z", q)]
    if name == "H":
        if "RY" in native:
            # X @ RY(pi/2) = H exactly.
            return [Instruction("RY", q, PI / 2), Instruction("X", q)]
        return None
    if name == "CNOT":
        if "CZ" in native:
            a, b = q
            return [Instruction("H", (b,)), Instruction("CZ", (a, b)), Instruction("H", (b,))]
        return None
    if name == "CZ":
        if "CNOT" in native:
            a, b = q
            return [Instruction("H", (b,)), Instruction("CNOT", (a, b)), Instruction("H", (b,))]
        return None
    if name == "SWAP":
        a, b = q
        return [Instruction("CNOT", (a, b)), Instruction("CNOT", (b, a)),
                Instruction("CNOT", (a, b))]
    if name == "CCX":
        return _ccx_expansion(*q)
    return None


def _rewrite_instruction(inst: Instruction, native: frozenset[str],
                         defer_rotations: bool) -> list[Instruction]:
    if inst.gate in native or inst.gate in MARKERS:
        return [inst]
    rule = _expansion(inst, native)
    if rule is None:
        if inst.gate in ROTATION_GATES and defer_rotations:
            return [inst]
        hint = ("; use the single-qubit approximation pass for rotation gates"
                if inst.gate in ROTATION_GATES else "")
        raise RewriteError(
            f"no exact rewrite of {inst.gate} into basis {sorted(native)}{hint}")
    out: list[Instruction] = []
    for step in rule:
        out.extend(_rewrite_instruction(step, native, defer_rotations))
    return out


def rewrite_to_basis(circuit: Circuit, native_gate_names,
                     defer_rotations: bool = False) -> Circuit:
    """Rewrite every instruction into the native gate set, exactly.

    With defer_rotations=True, non-native RX/RY/RZ pass through untouched
    for a later approximation pass instead of raising.
    """
    native = frozenset(name.upper() for name in native_gate_names)
    result = Circuit(circuit.num_qubits)
    # Each distinct instruction is expanded once; Instruction is frozen, so the
    # expansions are shared. Rotations skip the memo: they are only ever kept
    # or deferred, and RZ 0 -0.0 == RZ 0 0.0 would merge their angles' signs.
    # An expansion acts only on its source's operands, so only the source's
    # range is checked.
    expansions: dict[Instruction, list[Instruction]] = {}
    for inst in circuit.instructions:
        result._check_range(inst)
        if inst.angle is not None:
            result.instructions.extend(_rewrite_instruction(inst, native, defer_rotations))
            continue
        expansion = expansions.get(inst)
        if expansion is None:
            expansion = expansions[inst] = _rewrite_instruction(inst, native, defer_rotations)
        result.instructions.extend(expansion)
    return result

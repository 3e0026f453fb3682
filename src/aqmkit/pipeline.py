"""The fixed compensation pipeline: rewrite, approximate, route, expand, cost.

Each pass is a pure circuit-to-circuit function; the pipeline composes them
in a fixed order and accounts for the result. Failures raise a
CompensationError naming the capability rule that could not be covered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .approx import ApproximationRequest, approximate_single_qubit
from .circuit import Circuit, Instruction
from .cost import BudgetCheck, CostRecord, budget_from_cost, estimate_cost
from .gates import FIXED_GATES, ROTATION_GATES, SINGLE_QUBIT_GATES
from .graphs import DisconnectedError
from .profiles import DeviceProfile
from .rewrite import RewriteError, rewrite_to_basis
from .route import route_circuit


class CompensationError(Exception):
    """A compiler pass could not cover the device's missing capability."""

    rule = "operations"


class UnexpressibleError(CompensationError):
    rule = "operations"


class UnroutableError(CompensationError):
    rule = "connectivity"


class CapacityError(CompensationError):
    rule = "states"


@dataclass(frozen=True)
class PassLogEntry:
    name: str
    instructions_before: int
    instructions_after: int
    detail: str = ""


@dataclass(frozen=True)
class CompilationResult:
    circuit: Circuit
    cost: CostRecord
    budget: BudgetCheck
    pass_log: tuple[PassLogEntry, ...]


def _approximate_rotations(circuit: Circuit, profile: DeviceProfile, epsilon: float,
                           max_depth: int) -> tuple[Circuit, int]:
    native = profile.native_names()
    # Native rotations are continuous, so only the fixed gates can spell a word.
    alphabet = tuple(sorted(name for name in native & SINGLE_QUBIT_GATES
                            if name in FIXED_GATES and name != "I"))
    out = Circuit(circuit.num_qubits)
    replaced = 0
    for inst in circuit.instructions:
        if inst.gate not in ROTATION_GATES or inst.gate in native:
            out.instructions.append(inst)
            continue
        if not alphabet:
            raise UnexpressibleError(
                f"no discrete single-qubit gates on {profile.name!r} to approximate {inst.gate}")
        request = ApproximationRequest(
            ROTATION_GATES[inst.gate](inst.angle), alphabet, epsilon, max_depth)
        result = approximate_single_qubit(request)
        if not result.achieved:
            raise UnexpressibleError(
                f"{inst.gate}({inst.angle:g}) not approximable to {epsilon:g} over "
                f"{list(alphabet)} within depth {max_depth} (best {result.distance:.3g})")
        out.extend(Instruction(name, inst.qubits) for name in result.word)
        replaced += 1
    return out, replaced


def _rewrite(circuit: Circuit, native: frozenset[str]) -> Circuit:
    try:
        return rewrite_to_basis(circuit, native, defer_rotations=True)
    except RewriteError as exc:
        raise UnexpressibleError(str(exc)) from exc


def compile_for_device(circuit: Circuit, profile: DeviceProfile, epsilon: float = 0.01,
                       max_depth: int = 10, budget_threshold: float = 0.01, *,
                       do_rewrite: bool = True, do_approximate: bool = True,
                       do_route: bool = True, do_expand: bool = True) -> CompilationResult:
    """Run the fixed pass order and return the legal circuit with its cost.

    The budget check result is reported, not raised; callers decide whether
    a blown coherence budget is fatal.
    """
    if circuit.num_qubits > profile.num_qubits:
        raise CapacityError(
            f"circuit needs {circuit.num_qubits} qubit(s); device {profile.name!r} "
            f"has {profile.num_qubits}")
    native = profile.native_names()
    log: list[PassLogEntry] = []
    current = circuit

    if do_rewrite:
        before = len(current.instructions)
        current = _rewrite(current, native)
        log.append(PassLogEntry("rewrite", before, len(current.instructions)))

    if do_approximate:
        before = len(current.instructions)
        current, replaced = _approximate_rotations(current, profile, epsilon, max_depth)
        log.append(PassLogEntry("approximate", before, len(current.instructions),
                                f"{replaced} rotation(s) replaced"))

    if do_route:
        before = len(current.instructions)
        try:
            current = route_circuit(current, profile.connectivity)
        except DisconnectedError as exc:
            raise UnroutableError(str(exc)) from exc
        log.append(PassLogEntry("route", before, len(current.instructions)))

    if do_expand:
        before = len(current.instructions)
        current = _rewrite(current, native)
        log.append(PassLogEntry("expand-swaps", before, len(current.instructions)))

    if do_route and do_expand:
        for inst in current.instructions:
            if len(inst.qubits) == 2 and not profile.connectivity.has_edge(*inst.qubits):
                raise UnroutableError(
                    f"{inst.gate} {inst.qubits} is not on a device edge after routing")

    try:
        cost = estimate_cost(current, profile)
    except ValueError as exc:
        raise UnexpressibleError(str(exc)) from exc
    budget = budget_from_cost(cost, profile, budget_threshold)
    return CompilationResult(current, cost, budget, tuple(log))

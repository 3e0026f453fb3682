"""Adiabatic evolution of Ising problems, plus the fixed-Hamiltonian engine.

The interpolating Hamiltonian is H(t) = lam0(t) * H0 + lam1(t) * H1 with the
mixer H0 = -sum_i X_i (whose ground state is the uniform superposition) and
H1 the diagonal Ising cost. `anneal` never forms H: each step is the
symmetric (Strang) product at the step midpoint,

    exp(-i lam1 H1 dt/2) . prod_i exp(i lam0 dt X_i) . exp(-i lam1 H1 dt/2),

whose factors are a diagonal phase and n commuting single-qubit rotations,
so a step costs O(n 2**n) and is second-order accurate in dt (Strang 1968;
Suzuki 1991). The energy trace is likewise taken from the cost diagonal and
the per-qubit <X_i>. `build_annealing_hamiltonian` and `_step_unitary`
remain as the dense form, and `evolve` exponentiates any dense H exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gates
from .simulate import embed_gate
from .state import StateVector, plus_state

MAX_SPINS = 12


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans, strings and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _integer(value, what: str) -> int:
    """A JSON integer; an integral float such as 3.0 is accepted, 2.7 and true are not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class IsingProblem:
    """Fields h_i on sites and couplings J_ij on site pairs (Z basis)."""

    num_spins: int
    fields: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if not 1 <= self.num_spins <= MAX_SPINS:
            raise ValueError(f"num_spins must be in [1, {MAX_SPINS}]")
        fields = tuple(float(h) for h in self.fields)
        if len(fields) != self.num_spins:
            raise ValueError("one field coefficient per spin required")
        if not all(np.isfinite(fields)):
            raise ValueError("field coefficients must be finite")
        couplings = []
        for i, j, strength in self.couplings:
            i, j, strength = int(i), int(j), float(strength)
            if not (0 <= i < self.num_spins and 0 <= j < self.num_spins) or i == j:
                raise ValueError(f"bad coupling pair ({i}, {j})")
            if not np.isfinite(strength):
                raise ValueError("coupling strengths must be finite")
            couplings.append((i, j, strength))
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "couplings", tuple(couplings))

    @classmethod
    def from_dict(cls, data: dict) -> "IsingProblem":
        """Parse {"n": int, "h": [number], "J": [[i, j, number]]}; bad input is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("problem must be a JSON object")
        unknown = set(data) - {"n", "h", "J"}
        if unknown:
            raise ValueError(f"unknown field(s) {sorted(unknown)}")
        if "n" not in data:
            raise ValueError("missing field 'n'")
        fields = data.get("h", [])
        couplings = data.get("J", [])
        if not isinstance(fields, list):
            raise ValueError("'h' must be a list of numbers")
        if not (isinstance(couplings, list)
                and all(isinstance(c, list) and len(c) == 3 for c in couplings)):
            raise ValueError("'J' must be a list of [i, j, strength] triples")
        return cls(_integer(data["n"], "'n'"), tuple(_number(h, "'h'") for h in fields),
                   tuple((_integer(i, "'J' site"), _integer(j, "'J' site"),
                          _number(v, "'J' strength")) for i, j, v in couplings))

    @classmethod
    def from_json(cls, text: str) -> "IsingProblem":
        return cls.from_dict(json.loads(text))

    def cost_diagonal(self) -> np.ndarray:
        """Diagonal of H1 over computational basis states (Z|0> = +|0>)."""
        dim = 2 ** self.num_spins
        index = np.arange(dim)
        z = 1.0 - 2.0 * ((index[:, None] >> np.arange(self.num_spins)) & 1)
        diagonal = z @ np.array(self.fields)
        for i, j, strength in self.couplings:
            diagonal = diagonal + strength * z[:, i] * z[:, j]
        return diagonal


def build_annealing_hamiltonian(problem: IsingProblem, lam0: float, lam1: float) -> np.ndarray:
    """Dense lam0 * H0 + lam1 * H1 with H0 = -sum_i X_i."""
    if not (np.isfinite(lam0) and np.isfinite(lam1)):
        raise ValueError("schedule values must be finite")
    n = problem.num_spins
    dim = 2 ** n
    h = np.diag(lam1 * problem.cost_diagonal()).astype(complex)
    if lam0 != 0.0:
        mixer = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            mixer -= embed_gate(gates.X, [i], n)
        h = h + lam0 * mixer
    return h


@dataclass(frozen=True)
class AnnealSchedule:
    """Ramps lam0: 1 -> 0 and lam1: 0 -> 1 over [0, t_final], both monotone.

    t_final = 0 is the quench limit: no evolution happens and the endpoint
    conditions are vacuous.
    """

    t_final: float
    num_steps: int
    lambda0: Callable[[float], float] | None = None
    lambda1: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.t_final < 0:
            raise ValueError("t_final must be >= 0")
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", lambda t: 1.0 - t / self.t_final)
        if self.lambda1 is None:
            object.__setattr__(self, "lambda1", lambda t: t / self.t_final)
        if self.t_final == 0:
            return
        lam0, lam1 = self.lambda0, self.lambda1
        if not (lam0(0.0) == 1.0 and lam1(0.0) == 0.0
                and lam0(self.t_final) == 0.0 and lam1(self.t_final) == 1.0):
            raise ValueError("schedule endpoints must satisfy lam0: 1->0, lam1: 0->1")
        grid = np.linspace(0.0, self.t_final, self.num_steps + 1)
        values0 = [lam0(t) for t in grid]
        values1 = [lam1(t) for t in grid]
        if any(b > a + 1e-12 for a, b in zip(values0, values0[1:])):
            raise ValueError("lambda0 must be non-increasing")
        if any(b < a - 1e-12 for a, b in zip(values1, values1[1:])):
            raise ValueError("lambda1 must be non-decreasing")


@dataclass(frozen=True)
class AnnealResult:
    final_state: StateVector
    times: np.ndarray
    energies: np.ndarray
    success_probability: float
    # Largest |norm - 1| of the state after a step, before it is renormalised.
    max_norm_drift: float = 0.0


def _step_unitary(hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian)
    return (eigenvectors * np.exp(-1j * eigenvalues * dt)) @ eigenvectors.conj().T


def _flip(tensor: np.ndarray, axis: int) -> np.ndarray:
    """X on one qubit of the (2,)*n view of a state: np.flip as a plain slice view."""
    return tensor[(slice(None),) * axis + (slice(None, None, -1),)]


def _apply_mixer(tensor: np.ndarray, angle: float) -> np.ndarray:
    """prod_i exp(i angle X_i) on the (2,)*n view of a state: one pass per qubit."""
    cos, isin = np.cos(angle), 1j * np.sin(angle)
    for axis in range(tensor.ndim):
        tensor = cos * tensor + isin * _flip(tensor, axis)
    return tensor


def _energy(tensor: np.ndarray, diagonal: np.ndarray, lam0: float, lam1: float) -> float:
    """<psi| lam0 H0 + lam1 H1 |psi> with H0 = -sum_i X_i, without forming H."""
    mixer = sum(np.vdot(tensor, _flip(tensor, axis)).real for axis in range(tensor.ndim))
    cost = np.dot(np.abs(tensor.reshape(-1)) ** 2, diagonal)
    return float(-lam0 * mixer + lam1 * cost)


def _schedule_values(schedule: AnnealSchedule, t: float) -> tuple[float, float]:
    """(lam0, lam1) at time t; the quench (t_final = 0) stays on the mixer."""
    if schedule.t_final == 0:
        return 1.0, 0.0
    lam0, lam1 = schedule.lambda0(t), schedule.lambda1(t)
    if not (np.isfinite(lam0) and np.isfinite(lam1)):
        raise ValueError("schedule values must be finite")
    return lam0, lam1


def anneal(problem: IsingProblem, schedule: AnnealSchedule) -> AnnealResult:
    """Evolve from the mixer ground state |+>^n along the schedule.

    The energy trace records <H(t)> at t = 0 and after every step; its final
    entry is the expectation of H(t_final) in the returned state.
    """
    n = problem.num_spins
    diagonal = problem.cost_diagonal()
    tensor = np.array(plus_state(n).amplitudes).reshape((2,) * n)
    times = [0.0]
    energies = [_energy(tensor, diagonal, *_schedule_values(schedule, 0.0))]
    max_norm_drift = 0.0
    if schedule.t_final > 0:
        dt = schedule.t_final / schedule.num_steps
        for k in range(schedule.num_steps):
            lam0, lam1 = _schedule_values(schedule, (k + 0.5) * dt)
            half_cost = np.exp(-0.5j * lam1 * dt * diagonal).reshape(tensor.shape)
            tensor = half_cost * _apply_mixer(half_cost * tensor, lam0 * dt)
            norm = np.linalg.norm(tensor)
            max_norm_drift = max(max_norm_drift, abs(norm - 1.0))
            tensor = tensor / norm
            t_next = (k + 1) * dt
            times.append(t_next)
            energies.append(_energy(tensor, diagonal, *_schedule_values(schedule, t_next)))
    state = StateVector(tensor.reshape(-1))
    return AnnealResult(state, np.array(times), np.array(energies),
                        anneal_success(state, problem), max_norm_drift)


def anneal_success(state: StateVector, problem: IsingProblem) -> float:
    """Total probability on the computational basis minima of the cost."""
    diagonal = problem.cost_diagonal()
    ground = diagonal <= np.min(diagonal) + 1e-12
    return float(np.sum(state.probabilities()[ground]))


def evolve(state: StateVector, hamiltonian: np.ndarray, duration: float,
           num_steps: int = 1) -> StateVector:
    """Fixed-Hamiltonian dynamics: the analogue-simulation use of the engine."""
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    dim = state.amplitudes.size
    if hamiltonian.shape != (dim, dim):
        raise ValueError(f"Hamiltonian shape {hamiltonian.shape} does not match state")
    if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    step = _step_unitary(hamiltonian, duration / num_steps)
    amps = np.array(state.amplitudes)
    for _ in range(num_steps):
        amps = step @ amps
    return StateVector(amps / np.linalg.norm(amps))

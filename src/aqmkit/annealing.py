"""Adiabatic evolution of Ising problems, plus the fixed-Hamiltonian engine.

The interpolating Hamiltonian is H(t) = lam0(t) * H0 + lam1(t) * H1 with the
mixer H0 = -sum_i X_i (whose ground state is the uniform superposition) and
H1 the diagonal Ising cost. `anneal` never forms H: each step is the
symmetric (Strang) product at the step midpoint,

    exp(-i lam1 H1 dt/2) . prod_i exp(i lam0 dt X_i) . exp(-i lam1 H1 dt/2),

which is second-order accurate in dt (Strang 1968; Suzuki 1991). The state
is held as a (2**a, 2**b) matrix with a = n // 2 and b = n - a, rows indexed
by the high qubits. The mixer product then splits into one 2**a-sided factor
on the rows and one 2**b-sided factor on the columns; each is the symmetric
matrix with entries cos**(k-d) (i sin)**d at Hamming distance d between its
row and column indices. So a step is two block products, O(2**(3n/2)).
`anneal` advances a block of consecutive steps at a time: one exponential
gives every step's half-cost factor, one gather every step's mixer matrices,
and one pass the energy of every state of the block, so the numpy calls are
fixed per block whatever n is; only the block products and the
renormalisation run step by step. The energy trace takes the cost term from
the diagonal and the mixer term from the distance-1 matrices.
`build_annealing_hamiltonian` remains as the dense form, and `evolve`
exponentiates any dense H exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gates
from ._fields import read_integer, read_json, read_list, read_number, read_object
from .linalg import is_hermitian
from .simulate import embed_gate
from .state import StateVector

MAX_SPINS = 12

# Most steps an AnnealSchedule accepts. Each step keeps at most about 300 B of
# schedule tables and trace; the block buffers of `anneal` do not grow with the
# step count (see _BLOCK_BYTES). On a 2-vCPU VM 10**5 steps took 0.6 s at 1 spin
# and 30 s at MAX_SPINS.
MAX_ANNEAL_STEPS = 10 ** 5

# Bytes of states one block of `anneal` steps holds. Each buffer of a block (the
# half-cost factors, the states, the energy pass's temporaries) takes at most
# this or one state, whichever is larger, and one state is 64 KiB at MAX_SPINS.
# A 50-step run at n <= 4 is one block; n = 8 takes blocks of 16 steps and
# n = MAX_SPINS blocks of one step.
_BLOCK_BYTES = 64 * 1024


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
        data = read_object(data, "problem", ("n",), ("h", "J"))
        fields = [read_number(h, "'h'") for h in read_list(data.get("h", []), "'h'")]
        couplings = [read_list(c, "'J' entry", 3) for c in read_list(data.get("J", []), "'J'")]
        return cls(read_integer(data["n"], "'n'"), tuple(fields),
                   tuple((read_integer(i, "'J' site"), read_integer(j, "'J' site"),
                          read_number(v, "'J' strength")) for i, j, v in couplings))

    @classmethod
    def from_json(cls, text: str) -> "IsingProblem":
        return cls.from_dict(read_json(text, "problem"))

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
    conditions are vacuous. `grid_values` holds (lam0, lam1) at the
    num_steps + 1 grid times the checks read, for `anneal` to reuse.
    """

    t_final: float
    num_steps: int
    lambda0: Callable[[float], float] | None = None
    lambda1: Callable[[float], float] | None = None
    grid_values: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be a finite number >= 0, got {self.t_final}")
        if not 1 <= self.num_steps <= MAX_ANNEAL_STEPS:
            raise ValueError(f"the step count must be in [1, {MAX_ANNEAL_STEPS}], "
                             f"got {self.num_steps}")
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", lambda t: 1.0 - t / self.t_final)
        if self.lambda1 is None:
            object.__setattr__(self, "lambda1", lambda t: t / self.t_final)
        if self.t_final == 0:
            # The quench stays on the mixer.
            object.__setattr__(self, "grid_values", np.array([[1.0], [0.0]]))
            return
        grid = np.linspace(0.0, self.t_final, self.num_steps + 1).tolist()
        values0, values1 = values = np.array(
            [np.fromiter(map(lam, grid), float, len(grid)) for lam in (self.lambda0, self.lambda1)])
        if not (values0[0] == 1.0 and values1[0] == 0.0
                and values0[-1] == 0.0 and values1[-1] == 1.0):
            raise ValueError("schedule endpoints must satisfy lam0: 1->0, lam1: 0->1")
        if np.any(values0[1:] > values0[:-1] + 1e-12):
            raise ValueError("lambda0 must be non-increasing")
        if np.any(values1[1:] < values1[:-1] - 1e-12):
            raise ValueError("lambda1 must be non-decreasing")
        values.setflags(write=False)
        object.__setattr__(self, "grid_values", values)


@dataclass(frozen=True, eq=False)
class AnnealResult:
    final_state: StateVector
    times: np.ndarray
    energies: np.ndarray
    success_probability: float
    # Largest |norm - 1| of the state after a step, before it is renormalised.
    max_norm_drift: float = 0.0


def _hamming(k: int) -> np.ndarray:
    """Hamming distances between the indices of a 2**k-sided matrix."""
    index = np.arange(2 ** k)
    return ((index[:, None] ^ index)[..., None] >> np.arange(k) & 1).sum(axis=-1)


def _mixer_table(angles: np.ndarray, k: int) -> np.ndarray:
    """cos**(k-d) (i sin)**d for d = 0..k, one row per angle.

    prod_{i<k} exp(i angle X_i) is the 2**k-sided matrix whose entry at Hamming
    distance d takes row d of this table.
    """
    d = np.arange(k + 1)
    return np.cos(angles)[:, None] ** (k - d) * (1j * np.sin(angles))[:, None] ** d


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a[k] * b[k]) for each k of two stacks, one (1, m) @ (m, 1) product each."""
    count = len(a)
    return (a.reshape(count, 1, -1) @ b.reshape(count, -1, 1)).reshape(count)


def _energy_terms(states: np.ndarray, diagonal: np.ndarray,
                  adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i <X_i>, <H1>) of each normalised state of a (count, 2**a, 2**b) stack.

    `adjacency` holds the real 0/1 distance-1 matrices S_a and S_b over the row
    and the column qubits, so sum_i <X_i> = Re<psi, S_a psi + psi S_b>. Each
    term is one real product on interleaved (re, im) pairs: S_a on the rows of
    every psi, S_b on the rows of its transpose.
    """
    rows = states.view(float)
    columns = states.transpose(0, 2, 1).copy().view(float)
    mixer = _dots(rows, adjacency[0] @ rows) + _dots(columns, adjacency[1] @ columns)
    return mixer, _dots(states.conj(), diagonal * states).real


def anneal(problem: IsingProblem, schedule: AnnealSchedule) -> AnnealResult:
    """Evolve from the mixer ground state |+>^n along the schedule.

    The energy trace records <H(t)> on the grid t_k = k t_final / steps; its
    final entry is the expectation of H(t_final) in the returned state.
    """
    n = problem.num_spins
    sides = (n // 2, n - n // 2)
    # Row index: the high n // 2 qubits; column index: the low ones.
    shape = (2 ** sides[0], 2 ** sides[1])
    cost = problem.cost_diagonal()
    diagonal = cost.reshape(shape)
    # Tables per side length, so the two equal sides of an even n share theirs.
    hamming = {k: _hamming(k) for k in set(sides)}
    ones = {k: (d == 1).astype(float) for k, d in hamming.items()}
    distances = [hamming[k] for k in sides]
    adjacency = [ones[k] for k in sides]
    psi = np.full(shape, 1.0 / np.sqrt(2 ** n), dtype=complex)  # |+>^n

    steps = schedule.num_steps if schedule.t_final > 0 else 0
    dt = schedule.t_final / schedule.num_steps
    times = np.linspace(0.0, schedule.t_final, steps + 1)
    grid = schedule.grid_values
    points = ((np.arange(steps) + 0.5) * dt).tolist()
    midpoints = np.array([np.fromiter(map(lam, points), float, steps)
                          for lam in (schedule.lambda0, schedule.lambda1)])
    if not (np.isfinite(grid).all() and np.isfinite(midpoints).all()):
        raise ValueError("schedule values must be finite")
    # Python floats, so an overflow here is a refusal and not a numpy warning.
    lam0, lam1 = np.abs(midpoints).max(axis=1, initial=0.0).tolist()
    if not (math.isfinite(lam0 * dt) and math.isfinite(lam1 * dt * float(np.abs(cost).max()))):
        raise ValueError(f"t_final = {schedule.t_final:g} over {schedule.num_steps} steps "
                         "makes a step's cost phase or mixer angle overflow")
    angles = midpoints[0] * dt
    row_table = _mixer_table(angles, sides[0])
    column_table = row_table if sides[0] == sides[1] else _mixer_table(angles, sides[1])
    phases = -0.5j * midpoints[1] * dt

    block = max(1, _BLOCK_BYTES // psi.nbytes)
    states = np.empty((min(block, steps),) + shape, dtype=complex)
    trace = np.empty((2, steps + 1))  # (sum_i <X_i>, <H1>) on the grid
    trace[:, :1] = _energy_terms(psi[None], diagonal, adjacency)
    max_norm_drift = 0.0
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        half_costs = np.exp(phases[start:stop, None, None] * diagonal)
        row_mixers = row_table[start:stop, distances[0]]
        column_mixers = (row_mixers if row_table is column_table
                         else column_table[start:stop, distances[1]])
        for half_cost, rows, columns, out in zip(half_costs, row_mixers, column_mixers, states):
            psi = half_cost * (rows @ (half_cost * psi) @ columns)
            norm = math.sqrt(np.vdot(psi, psi).real)
            max_norm_drift = max(max_norm_drift, abs(norm - 1.0))
            psi = np.divide(psi, norm, out=out)
        trace[:, start + 1:stop + 1] = _energy_terms(states[:stop - start], diagonal, adjacency)
    state = StateVector(psi.reshape(-1))
    return AnnealResult(state, times, -grid[0] * trace[0] + grid[1] * trace[1],
                        _ground_probability(state.probabilities(), cost), max_norm_drift)


def _ground_probability(probabilities: np.ndarray, diagonal: np.ndarray) -> float:
    """Total of `probabilities` on the basis states where `diagonal` is least."""
    ground = diagonal <= np.min(diagonal) + 1e-12
    return float(np.sum(probabilities[ground]))


def anneal_success(state: StateVector, problem: IsingProblem) -> float:
    """Total probability on the computational basis minima of the cost."""
    return _ground_probability(state.probabilities(), problem.cost_diagonal())


def evolve(state: StateVector, hamiltonian: np.ndarray, duration: float,
           num_steps: int = 1) -> StateVector:
    """Fixed-Hamiltonian dynamics: the analogue-simulation use of the engine."""
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    dim = state.amplitudes.size
    if hamiltonian.shape != (dim, dim):
        raise ValueError(f"Hamiltonian shape {hamiltonian.shape} does not match state")
    if not is_hermitian(hamiltonian):
        raise ValueError("Hamiltonian must be Hermitian")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian)
    step = (eigenvectors * np.exp(-1j * eigenvalues * (duration / num_steps))
            ) @ eigenvectors.conj().T
    amps = np.array(state.amplitudes)
    for _ in range(num_steps):
        amps = step @ amps
    return StateVector(amps / np.linalg.norm(amps))

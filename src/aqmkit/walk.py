"""Coined discrete-time quantum walk on a line.

One step applies the coin unitary to the coin register, then the conditional
shift |0><0| (x) (move -1) + |1><1| (x) (move +1). Positions live on
-W..W with W at least num_steps plus the starting offset, so nothing ever
reaches the boundary. The classical reference measures the coin every step,
which reduces the evolution to a symmetric random walk on the probabilities.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .gates import H
from .linalg import is_unitary

_PRUNE = 1e-15

# Most steps `aqm walk` accepts. The line holds 2*steps + 1 sites, so a walk
# costs O(steps^2): 8000 steps take about 1.5 s on a 2-vCPU VM.
MAX_WALK_STEPS = 8000


@dataclass(frozen=True)
class WalkSpec:
    num_steps: int
    line_half_width: int
    coin_unitary: np.ndarray = field(default_factory=lambda: H.copy())
    initial_coin: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0], complex))
    initial_position: int = 0

    def __post_init__(self):
        if self.num_steps < 0:
            raise ValueError("num_steps must be >= 0")
        coin = np.asarray(self.coin_unitary, dtype=complex)
        if coin.shape != (2, 2) or not is_unitary(coin):
            raise ValueError("coin_unitary must be a 2x2 unitary")
        start = np.asarray(self.initial_coin, dtype=complex)
        if start.shape != (2,) or abs(np.linalg.norm(start) - 1.0) > 1e-10:
            raise ValueError("initial_coin must be a normalized 2-vector")
        if self.line_half_width < self.num_steps + abs(self.initial_position):
            raise ValueError(
                "line_half_width must be >= num_steps + |initial_position| "
                "(walker would hit the boundary)")
        object.__setattr__(self, "coin_unitary", coin)
        object.__setattr__(self, "initial_coin", start)


def _distribution(amps: np.ndarray, half_width: int) -> dict[int, float]:
    probs = np.sum(np.abs(amps) ** 2, axis=0)
    return {x - half_width: float(p) for x, p in enumerate(probs) if p > _PRUNE}


def _walk_amplitudes(spec: WalkSpec) -> Iterator[np.ndarray]:
    """The (coin, position) amplitude array after 0..num_steps steps, in turn."""
    width = spec.line_half_width
    length = 2 * width + 1
    amps = np.zeros((2, length), dtype=complex)
    amps[:, spec.initial_position + width] = spec.initial_coin
    yield amps
    for _ in range(spec.num_steps):
        amps = spec.coin_unitary @ amps
        shifted = np.zeros_like(amps)
        shifted[0, :-1] = amps[0, 1:]   # coin |0>: position decreases
        shifted[1, 1:] = amps[1, :-1]   # coin |1>: position increases
        amps = shifted
        yield amps


def walk_run(spec: WalkSpec) -> list[dict[int, float]]:
    """Position distributions after 0..num_steps steps (coin traced out)."""
    return [_distribution(amps, spec.line_half_width) for amps in _walk_amplitudes(spec)]


def walk_final(spec: WalkSpec) -> dict[int, float]:
    """``walk_run(spec)[-1]`` without keeping the earlier distributions."""
    for amps in _walk_amplitudes(spec):
        pass
    return _distribution(amps, spec.line_half_width)


def classical_walk_run(spec: WalkSpec) -> list[dict[int, float]]:
    """Reference walk with the coin measured each step: symmetric diffusion."""
    width = spec.line_half_width
    length = 2 * width + 1
    probs = np.zeros(length)
    probs[spec.initial_position + width] = 1.0
    history = [{spec.initial_position: 1.0}]
    for _ in range(spec.num_steps):
        moved = np.zeros_like(probs)
        moved[:-1] += 0.5 * probs[1:]
        moved[1:] += 0.5 * probs[:-1]
        probs = moved
        history.append({x - width: float(p) for x, p in enumerate(probs) if p > _PRUNE})
    return history


def _mean_square_displacement(distribution: dict[int, float], origin: int) -> float:
    return sum(p * (x - origin) ** 2 for x, p in distribution.items())


def walk_variance_exponent(spec: WalkSpec, t_min: int, t_max: int,
                           classical: bool = False) -> float:
    """Least-squares slope of log spread vs log t over integer t in [t_min, t_max].

    Spread is the mean squared displacement from the starting position, so a
    deterministic shift gives exactly t^2 and exponent 2.
    """
    if not 1 <= t_min < t_max:
        raise ValueError("need 1 <= t_min < t_max")
    if t_max - t_min + 1 < 3:
        raise ValueError("degenerate fit: fewer than 3 time points")
    # WalkSpec re-validates that the line is wide enough for t_max steps.
    run_spec = WalkSpec(t_max, spec.line_half_width,
                        spec.coin_unitary, spec.initial_coin, spec.initial_position)
    history = classical_walk_run(run_spec) if classical else walk_run(run_spec)
    times = np.arange(t_min, t_max + 1)
    spreads = np.array([_mean_square_displacement(history[t], spec.initial_position)
                        for t in times])
    if np.any(spreads <= 0):
        raise ValueError("degenerate fit: zero spread in the fit window")
    slope, _ = np.polyfit(np.log(times), np.log(spreads), 1)
    return float(slope)

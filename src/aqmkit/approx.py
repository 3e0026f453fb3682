"""Breadth-first search for single-qubit gate words approximating a target.

Words over a discrete single-qubit alphabet are enumerated in (length,
lexicographic) order, deduplicating unitaries that agree up to global phase,
so the search is exact-optimal per depth and fully deterministic. The
enumeration is cached per alphabet and extended lazily as deeper searches
are requested.

The table is built one level at a time in arrays: one batched matmul of the
alphabet against the last level's matrices, canonical keys for all the
candidates at once, then deduplication in the scalar search's order. A
search extends and scans the table level by level and stops at the first
level with a word within epsilon, so a shallow hit never pays for the deep
levels; only a request with no hit builds the table to `max_depth`. The
table grows about 1.35x per level for the eight-letter Clifford+T alphabet
(6 122 words at depth 10, 123 305 at depth 20), so `max_depth` is capped at
MAX_APPROX_DEPTH = 20, where one cold build takes about 1.2 s and 130 MiB
peak RSS on a 2-vCPU VM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import FIXED_GATES, GATE_ARITY
from .linalg import is_unitary

_ALLOWED = frozenset(name for name, arity in GATE_ARITY.items()
                     if arity == 1 and name in FIXED_GATES)


MAX_APPROX_DEPTH = 20


def check_approximation_bounds(epsilon: float, max_depth: int) -> None:
    """Raise ValueError unless 0 < epsilon < 1 and 0 <= max_depth <= MAX_APPROX_DEPTH."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 <= max_depth <= MAX_APPROX_DEPTH:
        raise ValueError(f"max_depth must lie in [0, {MAX_APPROX_DEPTH}]")


@dataclass(frozen=True, eq=False)
class ApproximationRequest:
    target: np.ndarray
    gate_alphabet: tuple[str, ...]
    epsilon: float
    max_depth: int

    def __post_init__(self):
        target = np.asarray(self.target, dtype=complex)
        if target.shape != (2, 2) or not is_unitary(target):
            raise ValueError("target must be a 2x2 unitary matrix")
        object.__setattr__(self, "target", target)
        alphabet = tuple(name.upper() for name in self.gate_alphabet)
        if not alphabet:
            raise ValueError("gate alphabet is empty")
        unknown = set(alphabet) - _ALLOWED
        if unknown:
            raise ValueError(f"alphabet must be fixed single-qubit gates; bad: {sorted(unknown)}")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains duplicates")
        object.__setattr__(self, "gate_alphabet", alphabet)
        check_approximation_bounds(self.epsilon, self.max_depth)


@dataclass(frozen=True)
class ApproximationResult:
    word: tuple[str, ...]
    distance: float
    achieved: bool


def _canonical_keys(mats: np.ndarray) -> list[bytes]:
    """One key per matrix of an (n, 2, 2) stack, equal for matrices equal up to phase.

    The phase is the largest-magnitude entry (the first on ties) divided by its
    modulus. That division stays a numpy scalar one per matrix: the array form
    rounds differently in about 30% of cases, and a changed key changes which
    words survive deduplication.
    """
    flat = mats.reshape(len(mats), 4)
    pivots = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    phases = np.array([pivot / abs(pivot) for pivot in pivots], dtype=complex)
    rounded = np.round(mats * np.conj(phases)[:, None, None], 12)
    # reshape(-1, 4), not (len(mats), -1): an empty stack must give no keys.
    return rounded.reshape(-1, 4).view(np.dtype((np.void, 64))).ravel().tolist()


@dataclass
class _Enumeration:
    """Phase-distinct word unitaries for one alphabet, in (length, lex) order.

    `stack[i]` is the unitary of `words[i]`, and the words of length at most d
    are the first `ends[d]` rows.
    """

    alphabet: tuple[str, ...]
    words: list[tuple[str, ...]] = field(default_factory=lambda: [()])
    stack: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex)[None])
    ends: list[int] = field(default_factory=lambda: [1])
    seen: set[bytes] = field(init=False)

    def __post_init__(self):
        self.seen = set(_canonical_keys(self.stack))

    def extend_to(self, depth: int):
        width = len(self.alphabet)
        while len(self.ends) <= depth:
            gates = np.stack([FIXED_GATES[name] for name in self.alphabet])
            start = self.ends[-2] if len(self.ends) > 1 else 0
            # Appending a gate to a word left-multiplies its matrix. Row
            # f * width + g is frontier word f followed by alphabet gate g,
            # the order in which the scalar search met the candidates.
            candidates = np.matmul(gates[None], self.stack[start:, None]).reshape(-1, 2, 2)
            fresh = []
            for row, key in enumerate(_canonical_keys(candidates)):
                if key not in self.seen:
                    self.seen.add(key)
                    fresh.append(row)
            self.words.extend(self.words[start + row // width] + (self.alphabet[row % width],)
                              for row in fresh)
            # Fancy indexing copies the kept rows, so no candidate block stays alive.
            self.stack = np.concatenate((self.stack, candidates[fresh]))
            self.ends.append(len(self.words))

    def distances(self, target: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Distances from word unitaries start..stop-1 to the target.

        Each row's distance has the same bits whatever slice it is computed in.
        """
        # Stable form of sqrt(1 - |tr(W^dag target)|/2): align phases, then
        # measure the Frobenius residual (see linalg.phase_invariant_distance).
        stack = self.stack[start:stop]
        t = np.einsum("nij,ij->n", np.conj(stack), target)
        magnitude = np.abs(t)
        w = np.where(magnitude > 0, np.conj(t) / np.where(magnitude > 0, magnitude, 1.0), 1.0)
        residual = stack - w[:, None, None] * target[None, :, :]
        return np.sqrt(np.minimum(1.0, np.sum(np.abs(residual) ** 2, axis=(1, 2)) / 4.0))


_CACHE: dict[tuple[str, ...], _Enumeration] = {}


def _enumeration(alphabet: tuple[str, ...], depth: int) -> _Enumeration:
    enum = _CACHE.get(alphabet)
    if enum is None:
        enum = _Enumeration(alphabet)
        _CACHE[alphabet] = enum
    enum.extend_to(depth)
    return enum


def approximate_single_qubit(request: ApproximationRequest) -> ApproximationResult:
    """Shortest word within epsilon of the target, else the best word found.

    Distances are phase-invariant; ties break toward the earlier word in
    (length, lexicographic) order, so results are deterministic. The table is
    extended and searched one level at a time, stopping at the first level
    that holds a word within epsilon.
    """
    enum = _enumeration(request.gate_alphabet, 0)
    best, best_distance = 0, np.inf
    for depth in range(request.max_depth + 1):
        enum.extend_to(depth)
        start = enum.ends[depth - 1] if depth else 0
        distances = enum.distances(request.target, start, enum.ends[depth])
        hits = distances <= request.epsilon
        if hits.any():
            index = int(np.argmax(hits))
            return ApproximationResult(enum.words[start + index], float(distances[index]), True)
        if len(distances):
            index = int(np.argmin(distances))
            # Strictly closer only: on a tie the shallower word stays.
            if distances[index] < best_distance:
                best, best_distance = start + index, distances[index]
    return ApproximationResult(enum.words[best], float(best_distance), False)

"""Breadth-first search for single-qubit gate words approximating a target.

Words over a discrete single-qubit alphabet are enumerated in (length,
lexicographic) order, deduplicating unitaries that agree up to global phase,
so the search is exact-optimal per depth and fully deterministic. The
enumeration is cached per alphabet and extended lazily as deeper searches
are requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import FIXED_GATES, GATE_ARITY
from .linalg import is_unitary

_ALLOWED = frozenset(name for name, arity in GATE_ARITY.items()
                     if arity == 1 and name in FIXED_GATES)


def check_approximation_bounds(epsilon: float, max_depth: int) -> None:
    """Raise ValueError unless 0 < epsilon < 1 and max_depth >= 0."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")


@dataclass(frozen=True)
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


def _canonical_key(u: np.ndarray) -> bytes:
    flat = u.reshape(-1)
    pivot = flat[int(np.argmax(np.abs(flat)))]
    phase = pivot / abs(pivot)
    return np.round(u * np.conj(phase), 12).tobytes()


@dataclass
class _Enumeration:
    """Phase-distinct word unitaries for one alphabet, in (length, lex) order."""

    alphabet: tuple[str, ...]
    words: list[tuple[str, ...]] = field(default_factory=list)
    matrices: list[np.ndarray] = field(default_factory=list)
    seen: set[bytes] = field(default_factory=set)
    frontier: list[int] = field(default_factory=list)
    depth: int = -1
    stack: np.ndarray | None = None

    def extend_to(self, depth: int):
        if self.depth < 0:
            identity = np.eye(2, dtype=complex)
            self.words.append(())
            self.matrices.append(identity)
            self.seen.add(_canonical_key(identity))
            self.frontier = [0]
            self.depth = 0
        while self.depth < depth:
            next_frontier: list[int] = []
            for index in self.frontier:
                base_word = self.words[index]
                base = self.matrices[index]
                for name in self.alphabet:
                    # Appending a gate to the word left-multiplies the matrix.
                    candidate = FIXED_GATES[name] @ base
                    key = _canonical_key(candidate)
                    if key in self.seen:
                        continue
                    self.seen.add(key)
                    next_frontier.append(len(self.words))
                    self.words.append(base_word + (name,))
                    self.matrices.append(candidate)
            self.frontier = next_frontier
            self.depth += 1
            self.stack = None
        if self.stack is None:
            self.stack = np.stack(self.matrices)

    def distances(self, target: np.ndarray) -> np.ndarray:
        # Stable form of sqrt(1 - |tr(W^dag target)|/2): align phases, then
        # measure the Frobenius residual (see linalg.phase_invariant_distance).
        t = np.einsum("nij,ij->n", np.conj(self.stack), target)
        magnitude = np.abs(t)
        w = np.where(magnitude > 0, np.conj(t) / np.where(magnitude > 0, magnitude, 1.0), 1.0)
        residual = self.stack - w[:, None, None] * target[None, :, :]
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
    (length, lexicographic) order, so results are deterministic.
    """
    enum = _enumeration(request.gate_alphabet, request.max_depth)
    lengths = np.fromiter((len(w) for w in enum.words), dtype=int, count=len(enum.words))
    in_range = lengths <= request.max_depth
    distances = enum.distances(request.target)
    hits = in_range & (distances <= request.epsilon)
    if np.any(hits):
        index = int(np.argmax(hits))
        return ApproximationResult(enum.words[index], float(distances[index]), True)
    masked = np.where(in_range, distances, np.inf)
    index = int(np.argmin(masked))
    return ApproximationResult(enum.words[index], float(distances[index]), False)

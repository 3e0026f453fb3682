"""Undirected connectivity graphs over qubit indices."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class DisconnectedError(ValueError):
    """No path exists between the requested qubits."""


@dataclass(frozen=True)
class ConnectivityGraph:
    num_qubits: int
    edges: frozenset[tuple[int, int]]
    _adjacency: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        normalized = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range for {self.num_qubits} qubit(s)")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(normalized))
        adjacency: dict[int, list[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in normalized:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", {q: sorted(v) for q, v in adjacency.items()})

    @classmethod
    def from_edges(cls, num_qubits: int, edges) -> "ConnectivityGraph":
        return cls(num_qubits, frozenset((int(a), int(b)) for a, b in edges))

    @classmethod
    def line(cls, num_qubits: int) -> "ConnectivityGraph":
        return cls.from_edges(num_qubits, [(q, q + 1) for q in range(num_qubits - 1)])

    @classmethod
    def complete(cls, num_qubits: int) -> "ConnectivityGraph":
        return cls.from_edges(
            num_qubits,
            [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)])

    @classmethod
    def grid(cls, rows: int, cols: int) -> "ConnectivityGraph":
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls.from_edges(rows * cols, edges)

    def neighbors(self, qubit: int) -> list[int]:
        return self._adjacency[qubit]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS hop counts from source to every reachable qubit."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nb in self._adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
        return dist

    def is_connected(self) -> bool:
        """Whether all qubits lie in one component."""
        return len(self.distances_from(0)) == self.num_qubits


def shortest_path(graph: ConnectivityGraph, a: int, b: int) -> list[int]:
    """Minimal-hop path from a to b inclusive, lexicographically smallest.

    Greedy descent over BFS distances-to-b: at each node pick the smallest
    neighbor index that still decreases the remaining distance, which yields
    the unique lexicographically smallest shortest path.
    """
    for q in (a, b):
        if not 0 <= q < graph.num_qubits:
            raise ValueError(f"qubit {q} out of range")
    if a == b:
        return [a]
    dist = graph.distances_from(b)
    if a not in dist:
        raise DisconnectedError(f"no path between qubits {a} and {b}")
    path = [a]
    node = a
    while node != b:
        node = min(nb for nb in graph.neighbors(node) if dist.get(nb, -1) == dist[node] - 1)
        path.append(node)
    return path

"""Golden values for anneal ops from a fine-tolerance ODE solve.

Reads a JSON list of Ising problems ({"n", "h", "J"}) and the schedule
(t_final) on stdin and prints, for each problem, the success probability and
final energy of the exact Schroedinger evolution

    i d psi/dt = (lam0(t) H0 + lam1(t) H1) psi,  H0 = -sum_i X_i,  H1 = cost,

from |+>^n with lam0 = 1 - t/T and lam1 = t/T. scipy's DOP853 integrates it
at rtol 1e-10; the Hamiltonian is applied matrix-free. scipy serves here as
an oracle only and runs in its own process, so the timed process never
imports it.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.integrate import solve_ivp


def cost_diagonal(n: int, fields, couplings) -> np.ndarray:
    index = np.arange(2 ** n)
    z = 1.0 - 2.0 * ((index[:, None] >> np.arange(n)) & 1)
    diagonal = z @ np.asarray(fields, dtype=float)
    for i, j, strength in couplings:
        diagonal += strength * z[:, int(i)] * z[:, int(j)]
    return diagonal


def golden(problem: dict, t_final: float) -> dict:
    n = problem["n"]
    diagonal = cost_diagonal(n, problem["h"], problem["J"])
    index = np.arange(2 ** n)
    flips = [index ^ (1 << i) for i in range(n)]

    def rhs(t, psi):
        lam1 = t / t_final
        mixer = -sum(psi[f] for f in flips)
        return -1j * ((1.0 - lam1) * mixer + lam1 * diagonal * psi)

    psi0 = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    solution = solve_ivp(rhs, (0.0, t_final), psi0, method="DOP853", rtol=1e-10, atol=1e-12)
    psi = solution.y[:, -1]
    probs = np.abs(psi) ** 2 / np.sum(np.abs(psi) ** 2)
    ground = diagonal <= np.min(diagonal) + 1e-12
    return {"success_probability": float(np.sum(probs[ground])),
            "final_energy": float(np.dot(probs, diagonal))}


def main() -> int:
    request = json.load(sys.stdin)
    print(json.dumps([golden(p, request["t_final"]) for p in request["problems"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

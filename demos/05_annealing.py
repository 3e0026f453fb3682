"""Adiabatic optimization of Ising problems
============================================

Interpolate H(t) = lam0(t) * (-sum X) + lam1(t) * H_cost slowly enough and
the uniform superposition flows into the cost minimum. Success is the
probability weight on minimizing bitstrings.
"""

import aqmkit as aq

# One spin, field h = -1: the minimum is |0>.
single = aq.IsingProblem(1, (-1.0,))

# A quench (no evolution time) leaves the uniform superposition: success 1/2.
print("quench:", aq.anneal(single, aq.AnnealSchedule(0.0, 1)).success_probability)

# Slow evolution pins the ground state.
result = aq.anneal(single, aq.AnnealSchedule(50.0, 5000))
print("t_final=50:", round(result.success_probability, 6))
print("energy trace: start", round(result.energies[0], 4),
      "-> end", round(result.energies[-1], 4))

# Success vs evolution time. Convergence is oscillatory, not monotone: the
# sweep revives almost exactly at t_final ~ 5, then rings down.
print("\nt_final  success")
for t_final in (1, 2, 5, 10, 20, 50):
    p = aq.anneal(single, aq.AnnealSchedule(float(t_final), 2000)).success_probability
    print(f"  {t_final:>4}   {p:.8f}")

# Two antiferromagnetic spins: degenerate minima 01 and 10 share the weight.
pair = aq.IsingProblem(2, (0.0, 0.0), ((0, 1, 1.0),))
result = aq.anneal(pair, aq.AnnealSchedule(50.0, 5000))
probs = result.final_state.probabilities()
print("\nantiferromagnet P(01) + P(10):", round(probs[1] + probs[2], 6))

# The same engine drives fixed-Hamiltonian dynamics (analogue simulation).
from aqmkit.annealing import build_annealing_hamiltonian
h_cost = build_annealing_hamiltonian(pair, 0.0, 1.0)
evolved = aq.evolve(aq.plus_state(2), h_cost, duration=3.0)
print("fixed-H evolution keeps norm:", round(float(abs(evolved.amplitudes @
      evolved.amplitudes.conj())), 12))

"""Coined walk on a line: ballistic vs diffusive spreading
===========================================================

Each step applies a coin unitary, then shifts the walker left or right
conditioned on the coin. Keeping the coin coherent spreads the walker
quadratically faster than measuring it every step.
"""

import numpy as np

import aqmkit as aq
from aqmkit import gates

spec = aq.WalkSpec(num_steps=4)
history = aq.walk_run(spec)
for t, dist in enumerate(history):
    line = ", ".join(f"{x:+d}: {p:.3f}" for x, p in sorted(dist.items()))
    print(f"t={t}:  {line}")

# Spread exponents: mean squared displacement ~ t^alpha.
quantum = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100)
classical = aq.walk_variance_exponent(aq.WalkSpec(100), 10, 100, classical=True)
print(f"\nquantum walk alpha   = {quantum:.3f}  (ballistic, ~2)")
print(f"classical walk alpha = {classical:.3f}  (diffusive, ~1)")

# A trivial coin turns the walk into deterministic transport: spread = t^2.
ballistic = aq.WalkSpec(100, gates.I2, np.array([0.0, 1.0], complex))
print(f"identity coin alpha  = {aq.walk_variance_exponent(ballistic, 10, 100):.3f}")

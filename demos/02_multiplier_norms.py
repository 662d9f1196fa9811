"""Masked-combination operators and their norm estimates.

A mask a with |a_k| <= 1 acts on the pair (x_k, y_k) through
u -> sum_k a_k <u, y_k> x_k.  The multiplier norm is the largest
operator norm over all such masks; unimodular masks suffice.  Two
estimators: alternating ascent (fast lower bound) and the phase grid
(near-exact for small n).  The optimizer brackets the completely bounded
refinement, which replaces scalar masks by matrix coefficients and so
sits above both.  The bracket keeps its best ascent as phi's lower
bound (bracket.ascent), and that bound meets the bracket when the
optimal states are pure.
"""

import numpy as np

from framescale import (
    apply_mask,
    generate,
    mask_matrix,
    norm_lower_alternating,
    norm_oracle_grid,
    optimize,
)

rng = np.random.default_rng(1)
pair = generate("gaussian", rng, n=4, d=2)

mask = np.exp(2j * np.pi * rng.uniform(size=4))
u = np.array([1.0, 1.0j]) / np.sqrt(2.0)
out = apply_mask(pair, mask, u)
print("one unimodular mask applied to a unit vector")
print(f"  |output| = {np.linalg.norm(out):.4f}")
print(f"  matrix route agrees: "
      f"{np.allclose(out, mask_matrix(pair, mask) @ u)}")

alt = norm_lower_alternating(pair)
grid = norm_oracle_grid(pair, phase_steps=64)
print("\nmultiplier norm estimates")
print(f"  alternating ascent: {alt.value:.6f}")
print(f"  phase grid (64 steps per phase): {grid.value:.6f}")

# every estimate is self-certifying: replaying the witness reproduces it
replay = np.real(np.sum(alt.witness_mask
                        * (pair.ys.conj() @ alt.witness_u)
                        * (pair.xs @ alt.witness_v.conj())))
print(f"  witness replay of the alternating value: {replay:.6f}")

bracket = optimize(pair)
print("\ncompletely bounded norm, certified on both sides")
print(f"  [m_lower, m_upper] = [{bracket.m_lower:.6f}, {bracket.m_upper:.6f}]")
print(f"  scalar ascent value: {alt.value:.6f}")
print(f"  kept on the bracket (start {bracket.stats['ascent_start']}): "
      f"{bracket.ascent.value:.6f}")

"""The explicit dilation behind the certified bound.

At optimized weights with certificate M, two isometries v1, v2 into
C^n (+) C^d (+) C^d represent every masked combination as
M v1^H pi(a) v2 with pi(a) diagonal.  The padding blocks exist exactly
because both weighted Bessel bounds stay below M.  The pipeline reads
each step off the last alone: optimize(pair), extract_scaling(bracket),
build_dilation(scaling); the bracket carries the pair.
"""

import numpy as np

from framescale import (
    build_dilation,
    dilation_reconstruct,
    extract_scaling,
    generate,
    mask_matrix,
    optimize,
)

rng = np.random.default_rng(3)
pair = generate("schauder_mangled", rng, n=4, d=2, scaling_range=(1e-2, 1e2))

bracket = optimize(pair)
dil = build_dilation(extract_scaling(bracket))
print(f"dilation of a 4-vector pair in C^2, certificate M = "
      f"{bracket.m_upper:.6f}")
print(f"  dilation space dimension: {dil.v1.shape[0]}")

print(f"  isometry defect of v1 and v2: {dil.isometry_defect:.2e}")

worst = 0.0
for _ in range(20):
    a = np.exp(2j * np.pi * rng.uniform(size=4))
    err = np.max(np.abs(dilation_reconstruct(dil, a) - mask_matrix(pair, a)))
    worst = max(worst, float(err))
print(f"  worst reconstruction error over 20 masks: {worst:.2e}")

# the norm bound is now transparent: pi(a) is a contraction whenever
# |a_k| <= 1, and isometries do not increase norms
a = np.exp(2j * np.pi * rng.uniform(size=4))
m = mask_matrix(pair, a)
print(f"\n  |masked map| = {np.linalg.norm(m, 2):.6f} <= M = "
      f"{bracket.m_upper:.6f}")

"""Rescaling a badly scaled reproducing pair back to two frames.

Scaling each x_k by b_k and y_k by 1/conj(b_k) leaves every masked
combination unchanged but can destroy the frame bounds of the separate
families.  The optimizer finds log-weights t whose balanced weighted
Bessel bounds certify the multiplier norm from above; e^{t_k/2} then
rescales both families into frames whose bounds stay below the
certificate.  extract_scaling reads the rescaled pair off the bracket,
which carries the pair it was optimized for.
"""

import numpy as np

from framescale import (
    bessel_and_frame_bounds,
    extract_scaling,
    generate,
    optimize,
)

rng = np.random.default_rng(2)

# a canonical dual pair, then adversarial scalars spanning six decades
pair = generate("schauder_mangled", rng, n=5, d=3, scaling_range=(1e-3, 1e3))

bx = bessel_and_frame_bounds(pair.xs)
by = bessel_and_frame_bounds(pair.ys)
print("mangled reproducing pair (5 vectors in C^3)")
print(f"  x family bounds: [{bx.lower:.3e}, {bx.upper:.3e}]")
print(f"  y family bounds: [{by.lower:.3e}, {by.upper:.3e}]")

bracket = optimize(pair)
print("\noptimized log-weights")
print(f"  certified upper bound: {bracket.m_upper:.6f}")
print(f"  dual lower bound:      {bracket.m_lower:.6f}")
print(f"  relative gap:          {bracket.gap:.1e}")
print(f"  balanced branches: f = {bracket.f:.6f}, g = {bracket.g:.6f}")

scaling = extract_scaling(bracket)
print("\nrescaled families")
print(f"  x family bounds: [{scaling.bounds_x.lower:.4f}, "
      f"{scaling.bounds_x.upper:.4f}]")
print(f"  y family bounds: [{scaling.bounds_y.lower:.4f}, "
      f"{scaling.bounds_y.upper:.4f}]")
print(f"  both upper bounds within the certificate: "
      f"{scaling.bounds_within()}")

"""Every supporting inequality as an executable check.

The verify module recomputes both sides of each estimate on concrete
data and raises when the slack goes negative.  This script runs the
individual checks on small examples and then the experiment that sets
the certified bound against the multiplier norm.
Where phi has no closed form, the checks take the certified lower bound
of alternating ascent.
"""

import numpy as np

from framescale import (
    generate,
    khintchine_check,
    norm_lower_alternating,
    ratio_experiment,
    super_key_check,
    trace_lemma_check,
)
from framescale.verify import key_simple_check

rng = np.random.default_rng(4)

rec = khintchine_check(np.array([1.0, 1.0]))
print("first-moment bound, equality case a = (1, 1)")
print(f"  mean |sum s_k a_k| = {rec['lhs']:.6f}, "
      f"sqrt(1/2) |a| = {rec['rhs']:.6f}")

rec = trace_lemma_check(rng.standard_normal(5) + 1j * rng.standard_normal(5),
                        rng.standard_normal(5) + 1j * rng.standard_normal(5))
print("\nrank-one trace norm")
print(f"  svd route {rec['svd_value']:.6f} vs closed form "
      f"{rec['closed_form']:.6f}")

pair = generate("gaussian", rng, n=3, d=2)
phi = norm_lower_alternating(pair).value
u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
rec = key_simple_check(pair, u, v, phi)
print("\nbilinear coefficient estimate")
print(f"  sum of products {rec['lhs']:.6f} <= {rec['rhs']:.6f}")

us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
rec = super_key_check(pair, us, vs, phi)
print("\nblock version with constant 2, full sign-pattern chain")
print(f"  lhs {rec['lhs']:.6f} <= {rec['rhs']:.6f}")
print(f"  tightest chain link slack: "
      f"{min(rec['khintchine_link'], rec['masked_bound_link']):.3e}")

report = ratio_experiment(seed=0)
print(f"\ncertified bound versus phi's lower bound on "
      f"{report['summary']['instances']} mangled instances")
print(f"  worst ratio {report['summary']['max_ratio']:.4f} "
      f"(always within {report['summary']['limit']:.2f}); phi pinned to "
      f"1e-9 on {report['summary']['pinned']}")

"""Executable checks of every inequality behind the rescaling bound.

Each check recomputes both sides of one estimate on concrete data,
returns a record of the numbers, and raises VerificationError when the
required slack is violated.  The suites at the bottom run the checks over
seeded random corpora of fixed size and aggregate machine-readable
reports.

The bilinear checks (key_simple_check, super_key_check,
trace_pairing_check) read the coefficient tables <u_j, y_k> and
<x_k, v_i> from frames.coefficients, as multiplier's certificates do;
the rank-one coupling blocks of trace_pairing_check are one broadcast
product of those tables.

Where the multiplier norm phi has no closed form, the checks take a
certified lower bound on it, the ascent a bracket of rescale.optimize
keeps (CbBracket.ascent), which makes no estimate easier to pass.

The sign averages (khintchine_check and the chain of super_key_check)
enumerate one sign vector per class {s, -s}, the 2^(m-1) patterns with
s_m = +1.  Every quantity they average or minimise is a modulus or a
norm of a sign combination, so it takes the same value on s and -s:
the means and minima over these patterns, and over their pairs, are
those over all 2^m patterns and all sign pairs.  The class matrix of
each m is built once per process, read-only (_sign_rows), and every
product with it is a real GEMM against the float64 view of a complex
table (_signed_sums), so it is never cast to complex.  The chain's
sign-pair links read one GEMM of augmented factors per block of
SIGN_BLOCK rows (see super_key_check).

Entry contract: every check validates its input once, before any gate,
and scales it at most once.  An array argument with a NaN or infinite
entry, and a phi_norm that is NaN, infinite or negative, raise
ValueError, so bad input is refused as such and not reported as a
broken inequality.  The six inequality checks multiply each array
argument by its own power of two (frames.pow2_scale); the bilinear ones read
pair.balanced, each index at the powers of two FramePair fixed, with
phi_norm times pair.unit.  So no square or
product overflows or underflows while the inputs lie inside the float
range.  They decide every gate on the scaled numbers and divide the
powers out of the record, so a gate holds even where a reported number
lies beyond the float range.
holder_trace_check takes the operator norm of a and the trace norm of
b from one LAPACK call, the singular values of the stack [a, b].

Tolerance policy: exact algebraic identities must hold to IDENTITY_RTOL
(1e-10) relative, replays and orderings that hold up to rounding to
ROUNDING_RTOL (1e-12), one-sided inequalities may dip INEQ_RTOL (1e-9)
relative below zero slack, and statistical experiment thresholds carry
an explicit 5 percent cushion.  Every gate is written `not value <=
limit`, and a worst value that feeds one is taken with np.maximum, so a
NaN that reaches a gate fails it.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .frames import (FramePair, coefficients, dual_terms, identity_deviation,
                     pair_operator, pow2_scale)
from .instances import (
    canonical_dual_pair,
    d1_scalar_pair,
    gaussian_pair,
    haar_unitary,
    mangle,
    mangling_scalars,
    onb_union_pair,
    random_complex,
)
from .linalg import singular_values
from .multiplier import (
    MultiplierNormEstimate,
    amplified_apply,
    mask_matrix,
    norm_oracle_grid,
)
from .rescale import (
    _Objective,
    _psi,
    _smoothed_state,
    build_dilation,
    dilation_reconstruct,
    extract_scaling,
    optimize,
)

IDENTITY_RTOL = 1e-10
INEQ_RTOL = 1e-9
SCHAUDER_TOL = 1e-8   # identity deviation of a reproducing pair
ROUNDING_RTOL = 1e-12  # replays and orderings that hold up to rounding
PINNED_RTOL = 1e-9  # (m_upper - phi) / m_upper at which phi counts as pinned
EXPERIMENT_CUSHION = 5e-2
KHINTCHINE_FACTOR = np.sqrt(0.5)
MAX_PATTERN_ORDER = 14
SIGN_BLOCK = 128  # sign-class rows per block of super_key_check's links 2 and 3
PSI_FD_B_RELS = (1e2, 1e4, 1e6, 1e8, 1e10)
PSI_FD_GATE = 100.0  # largest finite-difference error / (eps b_rel)^(2/3)
CLUSTER_BAND = 1e-3  # psi_fd counts a cluster where some b |dl| <= this
CHAIN_M_CAP = 10  # super_key_check enumerates sign patterns up to this m

# the fixed sizes of the suites; each suite takes only a seed
RATIO_INSTANCES, RATIO_N_MAX, RATIO_D_MAX = 200, 5, 3
KHINTCHINE_M_MAX, KHINTCHINE_VECTORS = 12, 1000
TRACE_DRAWS, TRACE_M_MAX = 1000, 8
CHAIN_DRAWS = 100
DILATION_INSTANCES, DILATION_MASKS = 100, 20
END_TO_END_INSTANCES, D1_INSTANCES = 100, 100
INVARIANCE_INSTANCES = 12
PSI_FD_PAIRS = 20


def _worst(records, *keys) -> dict:
    """{"worst_" + key: the largest record[key]} for each key."""
    return {f"worst_{key}": max((r[key] for r in records), default=0.0)
            for key in keys}


class VerificationError(AssertionError):
    """A checked inequality fell outside its tolerance."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record or {}


@functools.cache
def _sign_rows(m: int) -> np.ndarray:
    """The 2^(m-1) sign vectors in {-1, +1}^m with s_m = +1, one of each
    class {s, -s}, as a read-only (2^(m-1), m) float array; s_1 varies
    fastest.

    A function even in s takes the same values on them as on all 2^m
    patterns.  Each m's matrix is built once per process and shared by
    every caller, so it is never written; at m = MAX_PATTERN_ORDER it
    takes 0.9 MB.
    """
    if not 1 <= m <= MAX_PATTERN_ORDER:
        raise ValueError(f"m must be in [1, {MAX_PATTERN_ORDER}], got {m}")
    rows = np.arange(1 << (m - 1), 1 << m)
    bits = (rows[:, None] >> np.arange(m)[None, :]) & 1
    signs = 2.0 * bits - 1.0
    signs.flags.writeable = False
    return signs


def _signed_sums(table: np.ndarray) -> np.ndarray:
    """(sum_j s_j table[j])_s over the sign classes of _sign_rows, for a
    complex table of m rows.

    The real sign matrix multiplies the table's float64 view, one real
    GEMM, where a complex product would cast it to complex first.
    """
    table = np.ascontiguousarray(table, dtype=np.complex128)
    real = table.view(np.float64).reshape(table.shape[0], -1)
    sums = _sign_rows(table.shape[0]) @ real
    return sums.view(np.complex128).reshape(sums.shape[0], *table.shape[1:])


def _scaled(a: np.ndarray, name: str):
    """a, a complex128 array its caller converted, times pow2_scale(a,
    name), which validates a, and that power."""
    scale = pow2_scale(a, name)
    return a * scale, scale


def _check_phi(phi_norm: float) -> None:
    """ValueError unless phi_norm is finite and nonnegative (NaN is not)."""
    if not 0.0 <= phi_norm < math.inf:
        raise ValueError(f"phi_norm must be finite and >= 0, got {phi_norm!r}")


def khintchine_check(a: np.ndarray) -> dict:
    """First-moment lower bound: E|sum_k s_k a_k| >= sqrt(1/2) ||a||_2.

    The expectation is exact over all sign patterns.  |s . a| is even in
    s, so the average runs over one sign vector per class {s, -s}: the
    2^(m-1) patterns with s_m = +1; the sums s . a come from one real
    GEMM of the cached sign matrix against a's float64 view.  The
    constant sqrt(1/2) is the best possible, attained at two equal
    entries.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    if a.size < 1:
        raise ValueError("need at least one coefficient")
    a, scale = _scaled(a, "a")
    moduli = np.abs(_signed_sums(a))
    lhs_s = float(moduli.sum()) / moduli.size
    rhs_s = KHINTCHINE_FACTOR * math.sqrt(float((np.abs(a) ** 2).sum()))
    lhs, rhs = lhs_s / scale, rhs_s / scale
    record = {"lhs": lhs, "rhs": rhs,
              "ratio": lhs / rhs if rhs > 0.0 else np.inf, "m": int(a.size)}
    if not rhs_s - ROUNDING_RTOL * rhs_s <= lhs_s:
        raise VerificationError(
            f"first-moment bound violated: {lhs:.15g} < {rhs:.15g}", record)
    return record


def trace_lemma_check(alpha: np.ndarray, beta: np.ndarray) -> dict:
    """Trace norm of the rank-one matrix (alpha_i beta_j) is ||alpha|| ||beta||."""
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    beta = np.asarray(beta, dtype=np.complex128).reshape(-1)
    if alpha.size != beta.size or alpha.size < 1:
        raise ValueError("alpha and beta must be nonempty and of equal length")
    alpha, sa = _scaled(alpha, "alpha")
    beta, sb = _scaled(beta, "beta")
    svd_s = float(singular_values(np.outer(alpha, beta)).sum())
    closed_s = float(np.linalg.norm(alpha) * np.linalg.norm(beta))
    svd_value, closed = svd_s / sa / sb, closed_s / sa / sb
    record = {"closed_form": closed, "svd_value": svd_value,
              "m": int(alpha.size)}
    if not abs(svd_s - closed_s) <= IDENTITY_RTOL * closed_s:
        raise VerificationError(
            f"rank-one trace norm mismatch: {svd_value:.15g} vs {closed:.15g}",
            record)
    return record


def key_simple_check(pair: FramePair, u: np.ndarray, v: np.ndarray,
                     phi_norm: float) -> dict:
    """sum_k |<u, y_k>| |<v, x_k>| <= phi_norm ||u|| ||v||."""
    _check_phi(phi_norm)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.size != pair.dim or v.size != pair.dim:
        raise ValueError("u and v must live in the pair's space")
    u, su = _scaled(u, "u")
    v, sv = _scaled(v, "v")
    lhs_s = float(dual_terms(*coefficients(pair.balanced, u, v)).sum())
    rhs_s = phi_norm * pair.unit * float(np.linalg.norm(u) * np.linalg.norm(v))
    slack_s = rhs_s - lhs_s
    unit = su * sv * pair.unit
    record = {"lhs": lhs_s / unit, "rhs": rhs_s / unit, "slack": slack_s / unit}
    if not -INEQ_RTOL * rhs_s <= slack_s:
        raise VerificationError(
            f"bilinear key estimate violated: slack {record['slack']:.3e}",
            record)
    return record


def super_key_check(pair: FramePair, us: np.ndarray, vs: np.ndarray,
                    phi_norm: float, chain_m_cap: int = CHAIN_M_CAP) -> dict:
    """Block version with constant 2, chained through sign averages.

    For tuples (u_j), (v_i) of length m:

        sum_k ||(<u_j, y_k>)_j|| ||(<v_i, x_k>)_i||
            <= 2 phi_norm sqrt(sum ||u_j||^2) sqrt(sum ||v_i||^2)

    For m <= chain_m_cap every link is checked exhaustively over sign
    patterns: the per-index first-moment bounds, the product-of-averages
    identity, the masked-norm bound at every sign pair, and the
    sign-average orthogonality identity, which implies the quadratic-mean
    step (recorded, not gated).  Beyond the cap only the final inequality
    runs.
    The cap must lie in [0, MAX_PATTERN_ORDER] and the tuples must hold at
    least one vector; anything else raises ValueError before any work.

    Every quantity of the chain (|<u(s), y_k>|, ||u(s)|| and their v
    counterparts) is even in s, so the enumeration takes one sign vector
    per class {s, -s}, the 2^(m-1) patterns with s_m = +1.  Each mean over
    all 2^m patterns is the mean over these, each minimum over all sign
    pairs ranges over the same values, and the sign-pair matrix is a
    quarter of the full one.

    The sign sums of the coefficients and of both tuples come from one
    real GEMM of the cached sign matrix against the float64 view of the
    stacked table [cu^T | cv^T | us | vs].  Links 2 and 3 need the
    sign-pair matrix only through gap = [phi nu, -p] @ [nv, q]^T, which
    is formed one block of SIGN_BLOCK rows at a time in one buffer: link 3
    is its minimum, and link 2's double average is phi mean(nu) mean(nv)
    less its mean.  The u-side and v-side norms and means are read off
    shared arrays, one reduction for both sides.

    Each link is homogeneous in each tuple, and each term k depends on
    the pair only through x_k y_k^*, so the sums are formed on the tuples
    times powers of two su and sv and on pair.balanced, as the module's
    entry contract says.
    """
    if not 0 <= chain_m_cap <= MAX_PATTERN_ORDER:
        raise ValueError(f"chain_m_cap must be in [0, {MAX_PATTERN_ORDER}], "
                         f"got {chain_m_cap}")
    _check_phi(phi_norm)
    us = np.asarray(us, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    if us.ndim != 2 or vs.ndim != 2 or us.shape != vs.shape:
        raise ValueError("us and vs must be (m, d) arrays of equal shape")
    if us.shape[1] != pair.dim:
        raise ValueError("tuple vectors must live in the pair's space")
    m = us.shape[0]
    if m < 1:
        raise ValueError("us and vs need at least one vector")
    us, su = _scaled(us, "us")
    vs, sv = _scaled(vs, "vs")
    n, d = pair.n, pair.dim
    phi = phi_norm * pair.unit  # the norm of pair.balanced
    unit = su * sv * pair.unit
    cu, cv = coefficients(pair.balanced, us, vs)
    norm_uv = dual_terms(cu, cv)  # ||(<u_j, y_k>)_j|| ||(<v_i, x_k>)_i||
    sq_u, sq_v = (np.abs(np.concatenate([us, vs])) ** 2).reshape(2, -1) \
        .sum(axis=1).tolist()
    lhs = float(norm_uv.sum())
    l2_u, l2_v = math.sqrt(sq_u), math.sqrt(sq_v)
    rhs = 2.0 * phi * l2_u * l2_v
    slack = rhs - lhs
    record = {"lhs": lhs / unit, "rhs": rhs / unit, "slack": slack / unit,
              "m": int(m), "chain_checked": False}
    if not -INEQ_RTOL * rhs <= slack:
        raise VerificationError(
            f"block key estimate violated: slack {record['slack']:.3e}",
            record)
    if m > chain_m_cap:
        return record

    # per sign class: coefficients and norms of the combined vectors, all
    # from one real GEMM of the sign matrix against [cu^T | cv^T | us | vs]
    sums = _signed_sums(np.concatenate([cu.T, cv.T, us, vs], axis=1))
    count = len(sums)
    pq = np.abs(sums[:, :2 * n])
    mean_pq = pq.sum(axis=0) / count
    products = mean_pq[:n] * mean_pq[n:]  # mean(p) mean(q) per index k
    # ||u(s)|| and ||v(s)|| as the rows of nuv: row sums of squares of the
    # float64 view
    parts = sums[:, 2 * n:].view(np.float64).reshape(count, 2, 2 * d)
    nuv = np.sqrt(np.einsum("sij,sij->is", parts, parts, order="C"))

    # link 1: factored first-moment bounds, per index k
    link1 = float((2.0 * products - norm_uv).min())
    # link 3: masked-norm bound at every sign pair (s, t),
    #   gap[s, t] = phi nu_s nv_t - sum_k p[s, k] q[t, k],
    # one GEMM of the augmented factors [phi nu, -p] and [nv, q] per block
    # of SIGN_BLOCK rows.  link 2: the double average of the sign-pair
    # matrix p @ q.T over independent sign pairs, read off the same blocks
    # as phi mean(nu) mean(nv) - mean(gap), against the product of single
    # averages summed over k.
    left = np.empty((count, n + 1))
    np.multiply(nuv[0], phi, out=left[:, 0])
    np.negative(pq[:, :n], out=left[:, 1:])
    right = np.empty((n + 1, count))
    right[0] = nuv[1]
    right[1:] = pq[:, n:].T
    buf = np.empty((min(SIGN_BLOCK, count), count))
    link3, gap_sum = np.inf, 0.0
    for lo in range(0, count, SIGN_BLOCK):
        rows = left[lo:lo + SIGN_BLOCK]
        gap = np.matmul(rows, right, out=buf[:len(rows)])
        link3 = min(link3, float(gap.min()))
        gap_sum += float(gap.sum())
    mean_nu, mean_nv = (nuv.sum(axis=1) / count).tolist()
    joint_mean = phi * mean_nu * mean_nv - gap_sum / count ** 2
    link2 = abs(joint_mean - float(products.sum()))
    # link 4: average norm below quadratic mean, and link 5: the exact
    # identity mean ||u(s)||^2 = sum_j ||u_j||^2; both hold per tuple,
    # each against its own norm.  Only link 5 is gated: the computed mean
    # is at most the computed quadratic mean times 1 + 1e-12 (count <=
    # 2^13 terms), so where link 5 holds, l2 - mean >= -1.01e-10 l2, above
    # link 4's bound of -INEQ_RTOL l2
    ms_u, ms_v = np.sqrt((nuv * nuv).sum(axis=1) / count).tolist()

    # the terms of links 1 and 2 are at most 2 lhs, and the final
    # inequality has just put lhs below rhs
    record.update({"chain_checked": True,
                   "khintchine_link": link1 / unit,
                   "average_identity": link2 / unit,
                   "masked_bound_link": link3 / unit,
                   "mean_vs_quadratic": min((l2_u - mean_nu) / su,
                                            (l2_v - mean_nv) / sv),
                   "orthogonality_identity": max(abs(ms_u - l2_u) / su,
                                                 abs(ms_v - l2_v) / sv)})
    if not -INEQ_RTOL * rhs <= link1:
        raise VerificationError("per-index first-moment link violated: "
                                f"{record['khintchine_link']:.3e}", record)
    if not link2 <= IDENTITY_RTOL * rhs:
        raise VerificationError("average-product identity broken: "
                                f"{record['average_identity']:.3e}", record)
    if not -INEQ_RTOL * phi * float(nuv[0].max()) * float(nuv[1].max()) \
            <= link3:
        raise VerificationError("masked-norm link violated: "
                                f"{record['masked_bound_link']:.3e}", record)
    if not abs(ms_u - l2_u) <= IDENTITY_RTOL * l2_u or \
            not abs(ms_v - l2_v) <= IDENTITY_RTOL * l2_v:
        raise VerificationError(
            "sign-average orthogonality identity broken: "
            f"{record['orthogonality_identity']:.3e}", record)
    return record


def trace_pairing_check(pair: FramePair, mats: np.ndarray, us: np.ndarray,
                        vs: np.ndarray) -> dict:
    """Three routes to the amplified sesquilinear form agree.

    Route 1 pairs each coefficient matrix with its rank-one coupling
    block B_k = (<x_k, v_i> <u_j, y_k>)_{ij} through sum_k tr(A_k B_k^t);
    route 2 sums the triple products directly; route 3 applies the
    amplified map and takes inner products with the v tuple.  cu and cv
    come from frames.coefficients, and route 1's blocks are their
    broadcast product.  The form is linear in each argument and reads the
    pair only through each x_k y_k^*, so it is formed on scaled arguments
    and on pair.balanced (see the entry contract);
    route 3 runs next, so amplified_apply checks mats and us once.
    """
    a, sa = _scaled(np.asarray(mats, dtype=np.complex128), "mats")
    us, su = _scaled(np.asarray(us, dtype=np.complex128), "us")
    vs, sv = _scaled(np.asarray(vs, dtype=np.complex128), "vs")
    balanced = pair.balanced
    out = amplified_apply(balanced, a, us)
    if vs.shape != us.shape:
        raise ValueError("us and vs must have shape (m, d)")
    route3 = complex(np.vdot(vs, out))
    cu, cv = coefficients(balanced, us, vs)
    blocks = cv[:, :, None] * cu[:, None, :]
    route1 = complex(np.einsum("kij,kij->", a, blocks))
    route2 = complex(np.einsum("kij,kj,ki->", a, cu, cv))
    # the routes may cancel, so the scale is the sum of the term sizes
    # |A_kij| |B_kij|
    scale = float(np.vdot(np.abs(a), np.abs(blocks)))
    residual = float(np.maximum(abs(route1 - route2), abs(route2 - route3)))
    unit = sa * su * sv * pair.unit
    record = {"value": route1 / unit, "residual": residual / unit}
    if not residual <= IDENTITY_RTOL * scale:
        raise VerificationError(
            f"trace pairing residual {record['residual']:.3e}", record)
    return record


def holder_trace_check(a: np.ndarray, b: np.ndarray) -> dict:
    """|tr(a b)| <= (operator norm of a) (trace norm of b).

    Both norms come from one LAPACK call: the singular values, without
    vectors, of the stack [a, b] (see linalg.singular_values).
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("a and b must be square matrices of equal shape")
    a, sa = _scaled(a, "a")
    b, sb = _scaled(b, "b")
    lhs_s = abs(complex((a @ b).trace()))
    sigma = singular_values(np.array((a, b)))
    rhs_s = float(sigma[0, 0]) * float(sigma[1].sum())
    slack_s = rhs_s - lhs_s
    record = {"lhs": lhs_s / sa / sb, "rhs": rhs_s / sa / sb,
              "slack": slack_s / sa / sb}
    # equality cases (unitary against its adjoint) land exactly on zero,
    # so the identity tolerance applies rather than the inequality one
    if not -IDENTITY_RTOL * rhs_s <= slack_s:
        raise VerificationError(
            f"trace duality estimate violated: slack {record['slack']:.3e}",
            record)
    return record


def end_to_end_rescale_check(pair: FramePair) -> dict:
    """Reproducing pair in, frames out: both rescaled families are frames.

    Requires the pair to reproduce the identity.  Optimizes weights, then
    asserts the rescaled x family and y family are frames with upper
    bounds at most the certified multiplier bound, and that the scaled
    pair still reproduces the identity (the scaling is an exact
    reparameterization: the scalars cancel between the two families).
    """
    dev = identity_deviation(pair)
    if dev > SCHAUDER_TOL:
        raise ValueError(
            f"not a reproducing (Schauder) pair: identity deviation {dev:.3e}")
    bracket = optimize(pair)
    scaling = extract_scaling(bracket)
    sdev = identity_deviation(scaling.scaled)
    record = {"m_upper": bracket.m_upper, "m_lower": bracket.m_lower,
              "x_lower": scaling.bounds_x.lower, "x_upper": scaling.bounds_x.upper,
              "y_lower": scaling.bounds_y.lower, "y_upper": scaling.bounds_y.upper,
              "identity_deviation": dev, "scaled_identity_deviation": sdev}
    if not (scaling.bounds_x.is_frame and scaling.bounds_y.is_frame):
        raise VerificationError(
            "rescaled family lost the lower frame bound", record)
    if not scaling.bounds_within():
        raise VerificationError(
            "rescaled family exceeds the certified upper bound", record)
    if not sdev <= SCHAUDER_TOL:
        raise VerificationError(
            f"scaling broke the reproducing identity: deviation {sdev:.3e}",
            record)
    return record


def witness_defect(pair: FramePair, est: MultiplierNormEstimate) -> float:
    """Largest of | ||u|| - 1 |, | ||v|| - 1 |, max |mask| - 1 and the relative
    miss of est.value by Re <M u, v>, M the witness mask's matrix; NaN if
    any of them is."""
    u, v, mask = est.witness_u, est.witness_v, est.witness_mask
    replay = float(np.real(np.vdot(v, mask_matrix(pair, mask) @ u)))
    return float(np.max([abs(float(np.linalg.norm(u)) - 1.0),
                         abs(float(np.linalg.norm(v)) - 1.0),
                         float(np.max(np.abs(mask))) - 1.0,
                         abs(replay - est.value) / est.value]))


def ratio_experiment(seed: int = 0) -> dict:
    """Certified upper bound against phi's lower bound on mangled instances.

    RATIO_INSTANCES gaussian pairs, n up to RATIO_N_MAX and d up to
    RATIO_D_MAX, are mangled by scalars of magnitude 1e-3 to 1e3.  phi is
    the bracket's ascent; its witness must replay, and as phi <=
    ||Phi||_cb <= m_upper, each m_upper / phi must lie in [1, 2 (1 +
    5e-2)] up to rounding.  Records carry phi_gap = (m_upper - phi) /
    m_upper and the ascent's start ("ones" or "stage_1", see CbBracket).
    The summary counts as pinned those with phi_gap <= PINNED_RTOL, and
    the records from each start.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2024]))
    limit = 2.0 * (1.0 + EXPERIMENT_CUSHION)
    records = []
    for i in range(RATIO_INSTANCES):
        n = int(rng.integers(1, RATIO_N_MAX + 1))
        d = int(rng.integers(1, RATIO_D_MAX + 1))
        pair = mangle(gaussian_pair(rng, n, d), mangling_scalars(rng, n))
        bracket = optimize(pair)
        phi = bracket.ascent
        ratio = bracket.m_upper / phi.value
        rec = {"instance": i, "n": n, "d": d, "phi_norm": phi.value,
               "ascent_start": bracket.stats["ascent_start"],
               "m_upper": bracket.m_upper, "m_lower": bracket.m_lower,
               "ratio": ratio,
               "phi_gap": (bracket.m_upper - phi.value) / bracket.m_upper,
               "witness_defect": witness_defect(pair, phi)}
        records.append(rec)
        if not rec["witness_defect"] <= ROUNDING_RTOL \
                or not 1.0 - ROUNDING_RTOL <= ratio:
            raise VerificationError(
                f"instance {i}: phi's witness fails to replay or exceeds "
                f"m_upper", rec)
        if not ratio <= limit:
            raise VerificationError(
                f"instance {i}: ratio {ratio:.6f} above {limit:.2f}", rec)
    ratios = np.array([r["ratio"] for r in records])
    return {"suite": "ratio", "records": records,
            "summary": {"instances": len(records),
                        "max_ratio": float(np.max(ratios)),
                        "mean_ratio": float(np.mean(ratios)),
                        "limit": limit,
                        "pinned": sum(r["phi_gap"] <= PINNED_RTOL
                                      for r in records),
                        "ascent_starts": {
                            start: sum(r["ascent_start"] == start
                                       for r in records)
                            for start in ("ones", "stage_1")}}}


def suite_khintchine(seed: int = 0) -> dict:
    """First-moment bound over exhaustive sign patterns, random vectors."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    per_m = -(-KHINTCHINE_VECTORS // KHINTCHINE_M_MAX)
    records = []
    worst = np.inf
    for m in range(1, KHINTCHINE_M_MAX + 1):
        for _ in range(per_m):
            a = random_complex(rng, m)
            if rng.random() < 0.25:
                a = a.real.astype(np.complex128)
            if rng.random() < 0.2:
                a = a * np.exp(rng.uniform(-3.0, 3.0, size=m))
            rec = khintchine_check(a)
            worst = min(worst, rec["ratio"])
            records.append(rec)
    equality = khintchine_check(np.array([1.0, 1.0]))
    if not abs(equality["ratio"] - 1.0) <= ROUNDING_RTOL:
        raise VerificationError(
            f"equality case drifted: ratio {equality['ratio']:.15g}", equality)
    return {"suite": "khintchine", "records": records,
            "summary": {"checks": len(records), "worst_ratio": float(worst),
                        "equality_ratio": equality["ratio"]}}


def suite_trace(seed: int = 0) -> dict:
    """Rank-one trace-norm identity plus trace duality on random data."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
    records = []
    worst = 0.0
    for _ in range(TRACE_DRAWS):
        m = int(rng.integers(1, TRACE_M_MAX + 1))
        spread = np.exp(rng.uniform(-2.0, 2.0, size=m))
        alpha = random_complex(rng, m) * spread
        beta = random_complex(rng, m)
        rec = trace_lemma_check(alpha, beta)
        worst = max(worst, abs(rec["svd_value"] - rec["closed_form"])
                    / rec["closed_form"])
        records.append(rec)
    duality = []
    for _ in range(50):
        m = int(rng.integers(1, 5))
        duality.append(holder_trace_check(random_complex(rng, m, m),
                                          random_complex(rng, m, m)))
    return {"suite": "trace", "records": records[:50],
            "summary": {"checks": len(records) + len(duality),
                        "worst_relative_error": float(worst)}}


def _chain_instances(rng: np.random.Generator):
    """Pairs with phi: 1 for an orthonormal-basis union, else the value of
    the ascent its bracket keeps."""
    out = [(onb_union_pair(rng, 3, 3), 1.0)]
    pairs = [d1_scalar_pair(rng, int(rng.integers(2, 6))) for _ in range(2)]
    pairs += [gaussian_pair(rng, n, d)
              for n, d in ((2, 2), (3, 2), (4, 2), (4, 3))]
    return out + [(pair, optimize(pair).ascent.value) for pair in pairs]


def suite_chain(seed: int = 0) -> dict:
    """Key bilinear estimate and its block chain on oracle-backed pairs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 303]))
    records = []
    worst = np.inf
    for pair, phi in _chain_instances(rng):
        for _ in range(CHAIN_DRAWS):
            u = random_complex(rng, pair.dim)
            v = random_complex(rng, pair.dim)
            rec = key_simple_check(pair, u, v, phi)
            worst = min(worst, rec["slack"] / rec["rhs"])
        for m in (1, 2, 3, CHAIN_M_CAP):
            us = random_complex(rng, m, pair.dim)
            vs = random_complex(rng, m, pair.dim)
            rec = super_key_check(pair, us, vs, phi)
            records.append(rec)
            worst = min(worst, rec["slack"] / rec["rhs"])
        big = CHAIN_M_CAP + 2
        records.append(super_key_check(pair, random_complex(rng, big, pair.dim),
                                       random_complex(rng, big, pair.dim), phi))
    pairing = []
    for _ in range(30):
        pair = gaussian_pair(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        m = int(rng.integers(1, 4))
        pairing.append(trace_pairing_check(
            pair, random_complex(rng, pair.n, m, m),
            random_complex(rng, m, pair.dim), random_complex(rng, m, pair.dim)))
    return {"suite": "chain", "records": records,
            "summary": {"checks": len(records) + len(pairing),
                        "worst_relative_slack": float(worst)}}


def suite_dilation(seed: int = 0) -> dict:
    """Isometric dilation reconstruction on random optimized instances;
    reconstruction_error is the worst, over the masks, max |error| over
    max |entry| of the mask's matrix."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404]))
    records = []
    for i in range(DILATION_INSTANCES):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        pair = mangle(gaussian_pair(rng, n, d),
                      mangling_scalars(rng, n, (1e-1, 1e1)))
        bracket = optimize(pair)
        dil = build_dilation(extract_scaling(bracket))
        iso = dil.isometry_defect
        rec_err = 0.0
        for _ in range(DILATION_MASKS):
            a = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            want = mask_matrix(pair, a)
            diff = dilation_reconstruct(dil, a) - want
            # np.maximum keeps a NaN, which the gate below then refuses
            rec_err = np.maximum(rec_err, np.max(np.abs(diff)) / np.max(np.abs(want)))
        record = {"instance": i, "n": n, "d": d, "isometry_defect": iso,
                  "reconstruction_error": float(rec_err)}
        records.append(record)
        if not dil.is_isometric:
            raise VerificationError(
                f"instance {i}: isometry defect {iso:.3e}", record)
        if not rec_err <= ROUNDING_RTOL:
            raise VerificationError(
                f"instance {i}: reconstruction error {rec_err:.3e}", record)
    return {"suite": "dilation", "records": records,
            "summary": {"instances": len(records),
                        **_worst(records, "isometry_defect",
                                 "reconstruction_error")}}


def suite_end_to_end(seed: int = 0) -> dict:
    """Mangled reproducing pairs all rescale back to genuine frames."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 505]))
    records = []
    for i in range(END_TO_END_INSTANCES):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d, 6))
        pair = mangle(canonical_dual_pair(rng, n, d), mangling_scalars(rng, n))
        rec = end_to_end_rescale_check(pair)
        rec.update({"instance": i, "n": n, "d": d})
        records.append(rec)
    return {"suite": "end_to_end", "records": records,
            "summary": {"instances": len(records),
                        "min_lower_bound": min(min(r["x_lower"], r["y_lower"])
                                               for r in records)}}


def suite_d1(seed: int = 0) -> dict:
    """Scalar pairs: optimized bound vs closed form, weights vs closed form."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 606]))
    records = []
    for i in range(D1_INSTANCES):
        n = int(rng.integers(1, 7))
        pair = d1_scalar_pair(rng, n)
        closed = float(np.sum(np.abs(pair.xs[:, 0] * pair.ys[:, 0])))
        bracket = optimize(pair)
        bound_err = abs(bracket.m_upper - closed) / closed
        # the closed form is t_k = ln(|y_k| / |x_k|) up to a common shift
        miss = bracket.log_weights - np.log(np.abs(pair.ys[:, 0] / pair.xs[:, 0]))
        weight_err = float(np.expm1(0.5 * np.ptp(miss)))
        record = {"instance": i, "n": n, "closed_form": closed,
                  "m_upper": bracket.m_upper, "bound_error": bound_err,
                  "weight_error": weight_err}
        records.append(record)
        if not bound_err <= IDENTITY_RTOL:
            raise VerificationError(
                f"instance {i}: scalar bound off by {bound_err:.3e}", record)
        if not weight_err <= IDENTITY_RTOL:
            raise VerificationError(
                f"instance {i}: scalar weights off by {weight_err:.3e}", record)
    return {"suite": "d1", "records": records,
            "summary": {"instances": len(records),
                        **_worst(records, "bound_error", "weight_error")}}


def _sub_pair_slack(bracket) -> float:
    """The least (m_upper - m_lower') / m_upper over the sub-pairs of
    bracket.pair with one index dropped, m_lower' each one's bracket end
    and m_upper the pair's: a sub-pair's map is a restriction of the
    pair's, so its cb norm is at most the pair's."""
    pair, top = bracket.pair, bracket.m_upper
    lowers = [optimize(FramePair(np.delete(pair.xs, k, 0),
                                 np.delete(pair.ys, k, 0))).m_lower
              for k in range(pair.n)]
    return float(np.min((top - np.array(lowers)) / top))


def _direct_sum_slack(first, second) -> float:
    """How far the bracket of the direct sum of the brackets' pairs, on
    disjoint indices and orthogonal coordinate blocks, overlaps the
    larger part's.  The sum's cb norm is the larger of the parts', so its
    m_lower is at most the larger part m_upper, and the larger part
    m_lower at most its m_upper; the smaller of the two relative slacks."""
    p, q = first.pair, second.pair
    xs = np.zeros((p.n + q.n, p.dim + q.dim), dtype=np.complex128)
    ys = np.zeros_like(xs)
    xs[:p.n, :p.dim], ys[:p.n, :p.dim] = p.xs, p.ys
    xs[p.n:, p.dim:], ys[p.n:, p.dim:] = q.xs, q.ys
    total = optimize(FramePair(xs, ys))
    top = max(first.m_upper, second.m_upper)
    lower = max(first.m_lower, second.m_lower)
    return float(np.minimum((top - total.m_lower) / top,
                            (total.m_upper - lower) / total.m_upper))


def suite_invariance(seed: int = 0) -> dict:
    """Symmetry checks: diagonal reparameterization, and the images of the
    pair under a common unitary, independent unitaries U on x and V on
    y, relabelling (the indices reversed), swapping x and y, and
    conjugating both families.  Two relations too: no sub-pair with one
    index dropped has its m_lower above the pair's m_upper, and the
    direct sum with a second drawn pair overlaps the larger part's
    bracket (see _sub_pair_slack and _direct_sum_slack), each to
    ROUNDING_RTOL; the summary reports the least slack of each."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 707]))
    # V and the second part of the sum have their own streams, so the
    # other images keep their draws
    v_rng = np.random.default_rng(np.random.SeedSequence([seed, 708]))
    sum_rng = np.random.default_rng(np.random.SeedSequence([seed, 709]))
    records = []
    for i in range(INVARIANCE_INSTANCES):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        pair = gaussian_pair(rng, n, d)
        beta = mangling_scalars(rng, n)
        scaled = mangle(pair, beta)
        u = haar_unitary(rng, d)
        images = {"diag": scaled,
                  "unitary": FramePair(pair.xs @ u.T, pair.ys @ u.T),
                  "independent_unitary": FramePair(
                      pair.xs @ u.T, pair.ys @ haar_unitary(v_rng, d).T),
                  "relabel": FramePair(pair.xs[::-1], pair.ys[::-1]),
                  "swap": FramePair(pair.ys, pair.xs),
                  "conjugate": FramePair(pair.xs.conj(), pair.ys.conj())}

        base = optimize(pair)
        brackets = {name: optimize(image) for name, image in images.items()}
        drifts = {f"{name}_drift": abs(br.m_upper - base.m_upper)
                  / base.m_upper for name, br in brackets.items()}

        # the ascents optimize ran on the pair and on its diagonal image
        alt, alt_scaled = base.ascent, brackets["diag"].ascent
        alt_drift = abs(alt_scaled.value - alt.value) / alt.value
        # relative to sum_k |x_k||y_k|, which mangling leaves unchanged
        t_scale = float(np.sum(np.linalg.norm(pair.xs, axis=1)
                               * np.linalg.norm(pair.ys, axis=1)))
        t_drift = float(np.max(np.abs(pair_operator(scaled)
                                      - pair_operator(pair)))) / t_scale
        gr = norm_oracle_grid(pair, 16).value
        grid_drift = abs(norm_oracle_grid(scaled, 16).value - gr) / gr
        record = {"instance": i, "n": n, "d": d, **drifts,
                  "alternating_drift": alt_drift,
                  "pair_operator_drift": t_drift, "grid_drift": grid_drift}
        records.append(record)
        for name, drift in drifts.items():
            if not drift <= IDENTITY_RTOL:
                raise VerificationError(
                    f"instance {i}: image drift {name} {drift:.3e}", record)
        if not alt_drift <= IDENTITY_RTOL or not grid_drift <= IDENTITY_RTOL \
                or not t_drift <= ROUNDING_RTOL:
            raise VerificationError(
                f"instance {i}: estimator symmetry drift", record)
        other = gaussian_pair(sum_rng, int(sum_rng.integers(2, 5)),
                              int(sum_rng.integers(1, 4)))
        record["sub_pair_slack"] = sub = _sub_pair_slack(base)
        record["direct_sum_slack"] = overlap = _direct_sum_slack(
            base, optimize(other))
        if not -sub <= ROUNDING_RTOL:
            raise VerificationError(
                f"instance {i}: a sub-pair's m_lower is above the pair's "
                f"m_upper by {-sub:.3e}", record)
        if not -overlap <= ROUNDING_RTOL:
            raise VerificationError(
                f"instance {i}: the direct sum misses the larger part's "
                f"bracket by {-overlap:.3e}", record)
    return {"suite": "invariance", "records": records,
            "summary": {"instances": len(records),
                        **_worst(records, *drifts, "alternating_drift",
                                 "grid_drift"),
                        **{f"worst_{key}": min(r[key] for r in records)
                           for key in ("sub_pair_slack",
                                       "direct_sum_slack")}}}


def _psi_fd_ratios(obj: _Objective, t: np.ndarray, b_rel: float):
    """Errors of _smoothed_state at t, b = b_rel / h, over (eps b_rel)^(2/3).

    The gradient error is against central differences of psi, relative to
    |psi|, the Hessian's against those of the gradient, symmetrised,
    relative to max |H|.  Each t-derivative brings a factor b h = b_rel, so
    the step cbrt(eps b_rel) / b_rel puts truncation and rounding near the
    model.  Also says whether t is a cluster point: some two eigenvalues
    of F or of G lie within CLUSTER_BAND / b.
    """
    n, eps_b = t.size, float(np.finfo(np.float64).eps) * b_rel
    spectra = obj.spectra(t)
    b = b_rel / float(spectra[0][:, -1].max())
    psi, grad, _, hessian = _smoothed_state(obj, t, b, spectra)
    hess = hessian()
    delta = np.cbrt(eps_b) / b_rel
    stencil = np.concatenate([t + delta * np.eye(n), t - delta * np.eye(n)])
    width = np.diag(stencil[:n] - stencil[n:])  # the steps as rounded into t
    w, v = obj.spectra(stencil)
    fd_grad = np.subtract(*_psi(w, b)[0].reshape(2, n)) / width
    grads = np.array([_smoothed_state(obj, s, b, (w[i], v[i]))[1]
                      for i, s in enumerate(stencil)])
    fd_hess = (grads[:n] - grads[n:]) / width[:, None]
    fd_hess = 0.5 * (fd_hess + fd_hess.T)
    gaps = np.abs(b * (spectra[0][:, :, None] - spectra[0][:, None, :]))
    off_diagonal = ~np.eye(gaps.shape[-1], dtype=bool)
    cluster = np.any(gaps[:, off_diagonal] <= CLUSTER_BAND)
    model = eps_b ** (2.0 / 3.0)
    grad_err = float(np.max(np.abs(grad - fd_grad))) / abs(psi)
    hess_err = float(np.max(np.abs(hess - fd_hess)) / np.max(np.abs(hess)))
    return grad_err / model, hess_err / model, bool(cluster)


def suite_psi_fd(seed: int = 0) -> dict:
    """psi's gradient and Hessian, as optimize runs them, against central
    differences at each b_rel of PSI_FD_B_RELS (see _psi_fd_ratios): on
    PSI_FD_PAIRS gaussian pairs (n 2-6, d 1-4) at random t in [-1, 1]^n and
    at optimize's weights, where top eigenvalues nearly double, and on
    PSI_FD_PAIRS // 2 orthonormal-basis unions at t = 0 and (1e-3 / b_rel) z, z
    standard normal, where eigenvalues cluster.  Gate: PSI_FD_GATE.  The
    summary counts the cluster points per b_rel (see _psi_fd_ratios)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 808]))
    points = []  # (kind, pair, t, whether t shrinks by 1e-3 / b_rel)
    for _ in range(PSI_FD_PAIRS):
        pair = gaussian_pair(rng, int(rng.integers(2, 7)),
                             int(rng.integers(1, 5)))
        points.append(("gaussian", pair, rng.uniform(-1.0, 1.0, pair.n), False))
        points.append(("gaussian", pair, optimize(pair).log_weights, False))
    for _ in range(PSI_FD_PAIRS // 2):
        d = int(rng.integers(2, 4))
        pair = onb_union_pair(rng, d * int(rng.integers(2, 4)), d)
        points.append(("onb_union", pair, np.zeros(pair.n), False))
        points.append(("onb_union", pair, rng.standard_normal(pair.n), True))
    records = []
    for b_rel in PSI_FD_B_RELS:
        for kind, pair, t, shrink in points:
            grad, hess, cluster = _psi_fd_ratios(
                _Objective(pair), 1e-3 / b_rel * t if shrink else t, b_rel)
            records.append({"kind": kind, "n": pair.n, "d": pair.dim,
                            "b_rel": b_rel, "grad_ratio": grad,
                            "hess_ratio": hess, "cluster": cluster})
            # np.maximum keeps a NaN, which the gate then refuses
            worst = float(np.maximum(grad, hess))
            if not worst <= PSI_FD_GATE:
                raise VerificationError(
                    f"psi derivatives at b_rel {b_rel:.0e} off by "
                    f"{worst:.3g} (eps b_rel)^(2/3)", records[-1])

    def per_b_rel(reduce, key):
        return [reduce(r[key] for r in records if r["b_rel"] == b_rel)
                for b_rel in PSI_FD_B_RELS]

    summary = {"points": len(records), "b_rel": list(PSI_FD_B_RELS),
               "worst_grad_ratio": per_b_rel(max, "grad_ratio"),
               "worst_hess_ratio": per_b_rel(max, "hess_ratio"),
               "cluster_points": per_b_rel(sum, "cluster")}
    return {"suite": "psi_fd", "records": records, "summary": summary}


SUITES = {
    "khintchine": suite_khintchine,
    "trace": suite_trace,
    "chain": suite_chain,
    "ratio": ratio_experiment,
    "dilation": suite_dilation,
    "end_to_end": suite_end_to_end,
    "d1": suite_d1,
    "invariance": suite_invariance,
    "psi_fd": suite_psi_fd,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named suite; 'all' runs every named suite in order.

    Each suite's report summary carries its wall time as wall_s.
    """
    if name == "all":
        return {"suite": "all",
                "reports": [run_suite(key, seed=seed) for key in SUITES]}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES) + ['all']}")
    start = time.perf_counter()
    report = SUITES[name](seed=seed)
    report["summary"]["wall_s"] = time.perf_counter() - start
    return report

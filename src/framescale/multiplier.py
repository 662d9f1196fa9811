"""Diagonal multipliers of a vector-sequence pair and their norms.

A scalar mask a = (a_1, ..., a_n) with |a_k| <= 1 induces the linear map
u -> sum_k a_k <u, y_k> x_k.  The worst mask norm is the multiplier norm;
replacing scalars by m x m matrices gives the amplified maps whose supremum
over all m is the completely bounded norm.  This module provides exact
evaluation, an alternating-ascent lower bound from one start with a
certified witness, an exhaustive phase-grid oracle for small n, and the
amplified maps through which the dual certificate of rescale.optimize
replays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .frames import FramePair, coefficients, pow2_scale
from .linalg import top_singular_triplet

MASK_SLACK = 1e-12
ASCENT_MAX_ITERS = 300
ASCENT_RTOL = 1e-12  # the ascent stops once its value rises by at most this


def check_mask(mask: np.ndarray, n: int) -> np.ndarray:
    """Validate a scalar mask: length n, finite, inside the closed unit disc."""
    a = np.asarray(mask, dtype=np.complex128)
    if a.shape != (n,):
        raise ValueError(f"mask shape {a.shape} does not match n={n}")
    if not np.isfinite(a).all():
        raise ValueError("mask has non-finite entries")
    big = float(np.max(np.abs(a)))
    if big > 1.0 + MASK_SLACK:
        raise ValueError(f"mask entries must lie in the unit disc, max |a_k| = {big:g}")
    return a


@dataclass(frozen=True)
class MultiplierNormEstimate:
    """A certified lower estimate of the multiplier norm.

    value equals Re sum_k mask_k <u, y_k> <x_k, v> for the stored unit
    witnesses, so any reader can replay the certificate.  method is
    "ascent", "pure" or "grid"; iterations counts ascent steps (0 otherwise).
    """

    value: float
    witness_u: np.ndarray
    witness_v: np.ndarray
    witness_mask: np.ndarray
    method: str
    iterations: int = 0


def _certify(tables, mask: np.ndarray, u: np.ndarray, v: np.ndarray,
             method: str, iterations: int = 0) -> MultiplierNormEstimate:
    cu, cv = tables
    value = float(np.real(np.sum(mask * cu * cv)))
    return MultiplierNormEstimate(value, u, v, mask, method, iterations)


def apply_mask(pair: FramePair, mask: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the masked map at u: sum_k mask_k <u, y_k> x_k."""
    a = check_mask(mask, pair.n)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (pair.dim,):
        raise ValueError(f"u has shape {u.shape}, expected ({pair.dim},)")
    return ((a * (pair.ys.conj() @ u))[:, None] * pair.xs).sum(axis=0)


def mask_matrix(pair: FramePair, mask: np.ndarray) -> np.ndarray:
    """Matrix of the masked map: sum_k mask_k x_k y_k^*."""
    a = check_mask(mask, pair.n)
    return np.einsum("k,ki,kj->ij", a, pair.xs, pair.ys.conj())


def _align(tables, fallback: np.ndarray):
    """The mask turning each term <u, y_k> <x_k, v> of tables =
    coefficients(pair, u, v) into its modulus (where a term vanishes,
    fallback's entry), and the sum of the moduli."""
    cu, cv = tables
    terms = cu * cv
    mags = np.abs(terms)
    nonzero = mags > 0.0
    mask = np.where(nonzero, np.conj(terms) / np.where(nonzero, mags, 1.0),
                    fallback)
    return mask, float(mags.sum())


def norm_lower_alternating(pair: FramePair,
                           start: np.ndarray | None = None) -> MultiplierNormEstimate:
    """Alternating ascent over masks and unit vectors, from one start.

    With the mask fixed, the best (u, v) is the top singular pair of the
    mask matrix; with (u, v) fixed, the best mask aligns each phase so
    every term contributes positively.  Both half-steps are monotone.  The
    ascent starts from start, a mask in the closed unit disc, or from the
    all-ones mask, and stops once its aligned value rises by at most
    ASCENT_RTOL of itself, or after ASCENT_MAX_ITERS steps.
    """
    eps = np.ones(pair.n) if start is None else check_mask(start, pair.n)
    ys_conj = pair.ys.conj()
    prev = -np.inf
    for iterations in range(1, ASCENT_MAX_ITERS + 1):
        _, v, u = top_singular_triplet((eps[:, None] * pair.xs).T @ ys_conj)
        tables = coefficients(pair, u, v)
        eps, aligned = _align(tables, eps)
        if aligned - prev <= ASCENT_RTOL * aligned:
            break
        prev = aligned
    return _certify(tables, eps, u, v, "ascent", iterations)


def _hermitian_rows(g: np.ndarray) -> np.ndarray:
    """Gram rows of a stack of Hermitian (..., d, d) matrices g.

    The last axis of the result holds the d*d real entries of each g: the
    d diagonal entries, then the real and then the imaginary parts of the
    upper triangle in row order.
    """
    ju, ku = np.triu_indices(g.shape[-1], 1)
    upper = g[..., ju, ku]
    return np.concatenate([np.diagonal(g, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _gram_top_norm(rows: np.ndarray) -> np.ndarray:
    """sqrt of the top eigenvalue of each Gram matrix given by its rows.

    rows has shape (d*d, B): column b holds the _hermitian_rows of matrix b.
    d = 1 reads the single entry, d = 2 takes the larger root of the
    characteristic polynomial from trace and determinant, d = 3 the
    trigonometric form of the cubic's roots; larger d falls back to
    batched LAPACK.  Rows formed by a GEMM (see norm_oracle_grid) may put
    a nearly zero eigenvalue a rounding below zero, so the top eigenvalue
    is clamped at 0 before the root.  Callers keep the matrices' entries
    near unit size (see frames.pow2_scale), because the d = 3 form cubes Gram
    entries.
    """
    d = math.isqrt(len(rows))
    if d == 1:
        lam = rows[0]
    elif d == 2:
        g00, g11, cr, ci = rows
        # discriminant (tr/2)^2 - det, written without cancellation
        half_gap = 0.5 * (g00 - g11)
        disc = np.sqrt(half_gap * half_gap + cr * cr + ci * ci)
        lam = 0.5 * (g00 + g11) + disc
    elif d == 3:
        g00, g11, g22, x01, x02, x12, y01, y02, y12 = rows
        q = (g00 + g11 + g22) / 3.0
        b00, b11, b22 = g00 - q, g11 - q, g22 - q
        s01 = x01 * x01 + y01 * y01
        s02 = x02 * x02 + y02 * y02
        s12 = x12 * x12 + y12 * y12
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                     + 2.0 * (s01 + s02 + s12)) / 6.0)
        safe = np.where(p > 0.0, p, 1.0)
        # det(G - qI); the cyclic term is 2 Re(g01 g12 conj(g02))
        det = (b00 * b11 * b22 - b00 * s12 - b11 * s02 - b22 * s01
               + 2.0 * ((x01 * x12 - y01 * y12) * x02
                        + (x01 * y12 + y01 * x12) * y02))
        r = np.clip(det / (2.0 * safe * safe * safe), -1.0, 1.0)
        lam = q + 2.0 * safe * np.cos(np.arccos(r) / 3.0)
        lam = np.where(p > 0.0, lam, q)
    else:
        # eigvalsh reads only the lower triangle, g_kj = conj(g_jk)
        ju, ku = np.triu_indices(d, 1)
        gram = np.zeros((rows.shape[1], d, d), dtype=np.complex128)
        gram.real[:, np.arange(d), np.arange(d)] = rows[:d].T
        gram.real[:, ku, ju] = rows[d:d + ju.size].T
        gram.imag[:, ku, ju] = -rows[d + ju.size:].T
        lam = np.linalg.eigvalsh(gram)[:, -1]
    return np.sqrt(np.maximum(lam, 0.0))


def _digit_sums(start: np.ndarray, tables) -> np.ndarray:
    """start plus one column of each (..., s) table, for every choice.

    The tables share start's shape in front of their last axis.  The
    result has shape start.shape + (s^len(tables),); the last table's
    column varies fastest along the last axis.
    """
    out = start[..., None]
    for table in tables:
        out = (out[..., :, None] + table[..., None, :]).reshape(*start.shape, -1)
    return out


def _offset_weights(basis: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-offset weights that turn block features into Gram rows.

    The block matrices are I = sum_c f_c basis[c] for real features f
    with f_0 = 1; basis has shape (C, d, d) and offsets (d, d, P).  Row
    block o of the (P, d*d, C) result is W_O for O = offsets[..., o]:
    the rows of G(I + O) = G(I) + (I^H O + O^H I) + G(O) equal those of
    G(I) plus W_O @ f, since the cross term is real-linear in f and G(O)
    rides on the constant feature.
    """
    half = np.einsum("cij,iko->ocjk", basis.conj(), offsets)
    cross = half + np.swapaxes(half, -1, -2).conj()
    cross[:, 0] += np.einsum("ijo,iko->ojk", offsets.conj(), offsets)
    return np.ascontiguousarray(np.swapaxes(_hermitian_rows(cross), 1, 2))


GRID_MAX_N = 6
GRID_MIN_STEPS = 8  # coarsest phase_steps norm_oracle_grid accepts
GRID_CHUNK = 1 << 18
TRACE_RTOL = 1e-9  # relative margin of the grid's trace floor


def _grid_features(phases: np.ndarray, fast: int,
                   cols: np.ndarray | None = None) -> np.ndarray:
    """Real features [1; Re e_1; Im e_1; ...; Re e_f; Im e_f] of block columns.

    Column b of a block of f = fast coordinates has the phase
    phases[(b // s^(k-1)) % s] at coordinate k, s = phases.size, so
    coordinate 1 varies fastest.  The result has shape (1 + 2f, K) for
    the K columns cols, or for all s^f columns when cols is None.
    """
    steps = phases.size
    feats = np.empty((1 + 2 * fast, steps ** fast if cols is None else cols.size))
    feats[0] = 1.0
    rem = cols
    for k in range(fast):
        re, im = feats[1 + 2 * k], feats[2 + 2 * k]
        if cols is None:
            re.reshape(-1, steps, steps ** k)[...] = phases.real[:, None]
            im.reshape(-1, steps, steps ** k)[...] = phases.imag[:, None]
        else:
            rem, dig = np.divmod(rem, steps)
            np.take(phases.real, dig, out=re)
            np.take(phases.imag, dig, out=im)
    return feats


def _grid_factors(pair: FramePair, phase_steps: int):
    """The phase grid's Gram rows in factored form.

    Returns phases, base (d*d, B) and weights (P, d*d, 1 + 2f): the
    _hermitian_rows of the B mask matrices of outer block o, scaled by
    an exact power of two, are weights[o] @ feats + base, with feats the
    _grid_features of the block's f fast coordinates, and column b of
    block o is mask o * B + b of the sweep (see norm_oracle_grid).
    """
    n, d = pair.n, pair.dim
    phases = np.exp(2j * np.pi * np.arange(phase_steps) / phase_steps)
    rank_ones = np.einsum("ki,kj->kij", pair.xs, pair.ys.conj())
    rank_ones = rank_ones * pow2_scale(rank_ones)
    tables = rank_ones[:, :, :, None] * phases
    fast = 0
    while fast < n - 1 and phase_steps ** (fast + 1) <= GRID_CHUNK:
        fast += 1
    # grow the block one coordinate at a time, each new one the slowest
    # digit, by the identity the offsets use; the GEMM over the features
    # so far writes its (steps, d*d, width) result straight into the
    # grown block's rows
    base = _hermitian_rows(rank_ones[0].conj().T @ rank_ones[0])[:, None]
    basis = rank_ones[:1]
    for k in range(1, fast + 1):
        width = base.shape[1]
        grown = np.empty((d * d, phase_steps * width))
        slices = np.swapaxes(grown.reshape(d * d, phase_steps, width), 0, 1)
        np.matmul(_offset_weights(basis, tables[k]),
                  _grid_features(phases, k - 1), out=slices)
        slices += base
        base = grown
        basis = np.concatenate([basis, rank_ones[k:k + 1], 1j * rank_ones[k:k + 1]])
    offsets = _digit_sums(np.zeros((d, d), dtype=np.complex128),
                          tables[n - 1:fast:-1])
    return phases, base, _offset_weights(basis, offsets)


def norm_oracle_grid(pair: FramePair, phase_steps: int = 48,
                     start: np.ndarray | None = None) -> MultiplierNormEstimate:
    """Exhaustive maximum of the mask-matrix norm over a phase grid.

    The norm is convex in the mask, so its maximum over the polydisc is
    attained at unimodular masks; the grid restricts each phase to
    phase_steps equally spaced points.  A global phase never changes the
    norm, so the first coordinate is pinned to 1 and all
    phase_steps^(n-1) masks are swept, coordinate 1 fastest; the first
    mask of largest computed norm wins.  Norms that tie to rounding may
    pick a different first maximiser than a LAPACK sweep would.  The
    result is the exact maximum over the grid, up to that rounding, and
    a replayable lower bound on the multiplier norm, certified by the top
    singular pair of the chosen mask's matrix.  Cost grows geometrically;
    n is capped at GRID_MAX_N.

    The grid is a Cartesian product, so the mask matrices are sums of
    per-coordinate tables phase * x_k y_k^*.  The fastest coordinates, as
    many as fit in GRID_CHUNK masks, form one block I that is affine in
    their phases: I = R_0 + sum_k (Re e_k) R_k + (Im e_k) i R_k, with real
    features f = [1; Re e_k; Im e_k].  Adding a d x d offset O to every
    matrix of a block gives G(I + O) = G(I) + (I^H O + O^H I) + G(O), and
    the rows of the last two terms are W_O f for a real weight matrix W_O
    with one column per feature (see _offset_weights).  The block grows
    from the Gram rows of R_0 by this identity: coordinate k adds one
    offset e R_k per phase e as the new slowest digit, one GEMM over the
    features so far.  Every setting of the remaining coordinates then
    adds one offset to the finished block, with the weights of all
    offsets built in one einsum (see _grid_factors).  The tables are
    first scaled by an exact power of two, so the Gram entries stay
    inside the float range whenever the tables themselves do.

    Most masks never reach the top-eigenvalue step.  The top eigenvalue
    of G = M^H M is at most tr G, and the trace is linear in the
    features, so the trace of a mask of offset o is t(b) + c_o +
    sum_k p_ok(e_k): t the trace of the block's own Gram rows and
    p_ok(e) = w Re e + w' Im e one small table per offset and fast
    coordinate.  The block splits into rows of phase_steps masks that
    differ only in coordinate 1, and a row's traces are at most the
    row's largest t plus its own slow-coordinate tables plus the largest
    entry of p_o1.  Only rows whose bound reaches (1 - TRACE_RTOL)
    best^2, best the largest norm so far, get their masks' traces, and
    only masks whose trace reaches it get their full Gram rows, formed
    from the features of just those columns.  At d >= 3 the trace counts
    all d eigenvalues, so the kept masks next face the sharper bound
    lambda_max <= tr/d + sqrt((d-1)/d) ||G - (tr/d) I||_F, and only the
    survivors reach the closed-form cubic or the batched eigvalsh (at
    d = 2 the bound is the closed form itself).

    Before the first block, best is seeded with the norm of that block's
    largest-trace mask and, when start is given (any mask in the closed
    unit disc, such as an ascent's witness), with the norm of the grid
    mask nearest to it: start is rotated so that its coordinate 0 is 1
    (unless that entry is 0), and each phase is rounded to the nearest
    grid phase, a zero entry counting as phase 0.  A good start lets the
    bounds skip most masks from the first block on.  Either seed is the
    computed norm of a grid mask, formed like every swept one, so it is
    at most the grid's maximum up to rounding.  A skipped mask's norm is
    below best, so under the strict update it could never win, and every
    mask that ties the final maximum is kept: the first maximiser, and
    with it the value, is the one the full sweep would pick, whatever
    the start.
    """
    if pair.n > GRID_MAX_N:
        raise ValueError(f"grid oracle supports n <= {GRID_MAX_N}, got n={pair.n}")
    if phase_steps < GRID_MIN_STEPS:
        raise ValueError(f"phase_steps must be >= {GRID_MIN_STEPS}")
    n, d = pair.n, pair.dim
    if start is not None:
        start = check_mask(start, n)
    phases, base, weights = _grid_factors(pair, phase_steps)
    n_outer, fast = weights.shape[0], weights.shape[2] // 2
    block = base.shape[1]
    run = phase_steps if fast else 1  # masks per row of the block
    # _hermitian_rows puts the d diagonal entries first
    own = base[:d].sum(axis=0).reshape(-1, run)
    own_top = own.max(axis=1)
    trace_w = weights[:, :d, :].sum(axis=1)
    pieces = (trace_w[:, 1::2, None] * phases.real
              + trace_w[:, 2::2, None] * phases.imag)
    first = pieces[:, 0] if fast else np.zeros((n_outer, 1))
    first_top = first.max(axis=1)
    # the row bounds of span offsets at a time fill at most GRID_CHUNK entries
    span = GRID_CHUNK // own.shape[0]

    def row_bounds(lo):
        # c_o plus the tables of coordinates 2..f, coordinate 2 fastest
        hi = lo + span
        slow = _digit_sums(trace_w[lo:hi, 0],
                           pieces[lo:hi, fast - 1:0:-1].swapaxes(0, 1))
        return slow, own_top + slow + first_top[lo:hi, None]

    def gram_rows(outer, cols):
        rows = weights[outer] @ _grid_features(phases, fast, cols)
        rows += np.take(base, cols, axis=1)
        return rows

    # Rounding margin.  Each Gram entry is a short sum of terms of size
    # at most (sum_k ||R_k||)^2 <= n^2 V^2, V the grid's maximum: R_k is
    # the average of e^{-i theta_k} M over the grid, so ||R_k|| <= V.  So
    # the computed trace of a mask that can end as the maximum is within
    # about 1e-13 V^2 of its exact value for n <= GRID_MAX_N, whatever
    # order its terms are summed in; a row bound is a max of such sums,
    # so it is within the same distance of an exact bound on its row.
    # The closed forms of _gram_top_norm lose more only near a doubled
    # top eigenvalue, where the trace is at least twice the top one.  The
    # d >= 3 bound holds for any Hermitian matrix, so it holds for the
    # rows the closed form or eigvalsh is given, and it is formed from
    # the Euclidean norm of the deviations g_ii - tr/d and the
    # off-diagonal entries, with no difference of squares that could
    # cancel: it is within a few ulps of n^2 V^2 of its exact value.
    # Near a doubled top eigenvalue the d = 3 cubic loses about sqrt(eps)
    # of the spread of the eigenvalues, and there the bound lies about a
    # third of that spread above the top one, so it keeps every mask the
    # cubic could round up past the floor; eigvalsh is within a few ulps
    # of the top eigenvalue.  Both floor seeds are computed norms, so the
    # floor exceeds V by a rounding at most, and TRACE_RTOL keeps every
    # such mask.
    def swept_norm(idx):
        # the norm of sweep mask idx, formed like every swept mask's
        outer, col = divmod(idx, block)
        return float(_gram_top_norm(gram_rows(outer, np.array([col])))[0])

    slow, bound = row_bounds(0)
    trace = own + slow[0][:, None] + first[0]
    floor = swept_norm(int(np.argmax(trace)))
    if start is not None:
        # the grid mask nearest to start turned so that coordinate 0 is 1;
        # coordinate 1 is the lowest digit of the sweep index
        turned = start[1:] * np.conj(start[0]) if start[0] != 0 else start[1:]
        turn = np.where(turned != 0, np.angle(turned), 0.0)
        digits = np.rint(turn * (phase_steps / (2.0 * np.pi))).astype(np.int64)
        idx = int(np.dot(digits % phase_steps, phase_steps ** np.arange(n - 1)))
        floor = max(floor, swept_norm(idx))
    best_val = -np.inf
    best_idx = 0
    for outer in range(n_outer):
        at = outer % span
        if outer and not at:
            slow, bound = row_bounds(outer)
        thr = (1.0 - TRACE_RTOL) * floor * floor
        live = np.flatnonzero(bound[at] >= thr)
        if not live.size:
            continue
        trace = own[live] + slow[at, live, None] + first[outer]
        hit = np.flatnonzero(trace >= thr)
        if not hit.size:
            continue
        cols = live[hit // run] * run + hit % run
        rows = gram_rows(outer, cols)
        if d >= 3:
            mean = rows[:d].sum(axis=0) / d
            dev = rows[:d] - mean
            dev = (np.einsum("ij,ij->j", dev, dev)
                   + 2.0 * np.einsum("ij,ij->j", rows[d:], rows[d:]))
            sel = np.flatnonzero(mean + np.sqrt((d - 1) / d * dev) >= thr)
            if not sel.size:
                continue
            if sel.size < rows.shape[1]:
                rows, cols = rows[:, sel], cols[sel]
        vals = _gram_top_norm(rows)
        arg = int(np.argmax(vals))
        if vals[arg] > best_val:
            best_val = float(vals[arg])
            best_idx = outer * block + int(cols[arg])
            floor = max(floor, best_val)
    eps = np.ones(n, dtype=np.complex128)
    rem = best_idx
    for pos in range(1, n):
        rem, dig = divmod(rem, phase_steps)
        eps[pos] = phases[dig]
    _, left, right = top_singular_triplet(mask_matrix(pair, eps))
    return _certify(coefficients(pair, right, left), eps, right, left, "grid")


def check_amplified(mats: np.ndarray, n: int) -> np.ndarray:
    """Validate a stack of n matrix coefficients of common square shape."""
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[0] != n or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected matrix coefficients of shape (n, m, m), got {a.shape}")
    if a.shape[1] < 1:
        raise ValueError("amplification order m must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix coefficients have non-finite entries")
    return a


def amplified_input_norm(mats: np.ndarray) -> float:
    """max_k of the operator norms of the matrix coefficients."""
    a = np.asarray(mats, dtype=np.complex128)
    a = check_amplified(a, a.shape[0] if a.ndim else 0)
    return float(np.max(top_singular_triplet(a)[0]))


def amplified_apply(pair: FramePair, mats: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Apply the amplified map to a tuple of vectors.

    Input us is a finite (m, d) array; output row i is
    sum_j sum_k mats[k, i, j] <u_j, y_k> x_k.
    """
    a = check_amplified(mats, pair.n)
    m = a.shape[1]
    us = np.asarray(us, dtype=np.complex128)
    if us.shape != (m, pair.dim):
        raise ValueError(f"us has shape {us.shape}, expected ({m}, {pair.dim})")
    if not np.isfinite(us).all():
        raise ValueError("us has non-finite entries")
    coeff = us @ pair.ys.conj().T
    return np.einsum("kij,jk,kd->id", a, coeff, pair.xs)


def assemble_block(pair: FramePair, mats: np.ndarray) -> np.ndarray:
    """Matrix of the amplified map on C^m (x) C^d.

    Block (i, j) of size d x d is sum_k mats[k, i, j] x_k y_k^*.
    """
    a = check_amplified(mats, pair.n)
    m = a.shape[1]
    d = pair.dim
    big = np.einsum("kab,ki,kj->aibj", a, pair.xs, pair.ys.conj())
    return big.reshape(m * d, m * d)


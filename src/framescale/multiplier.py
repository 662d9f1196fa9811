"""Diagonal multipliers of a vector-sequence pair and their norms.

A scalar mask a = (a_1, ..., a_n) with |a_k| <= 1 induces the linear map
u -> sum_k a_k <u, y_k> x_k.  The worst mask norm is the multiplier norm;
replacing scalars by m x m matrices gives the amplified maps whose supremum
over all m is the completely bounded norm.  This module provides exact
evaluation, an alternating-ascent lower bound from one start with a
certified witness, the lower bound phi_lower read off a bracket, an
exhaustive phase-grid oracle for small n, and the amplified maps through
which the dual certificate of rescale.optimize replays.  _certify forms
every estimate's value, on pair.balanced.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frames import FramePair, coefficients
from .linalg import singular_values, top_singular_triplet

MASK_SLACK = 1e-12
ASCENT_MAX_ITERS = 300
ASCENT_RTOL = 1e-14  # the ascent stops once its value rises by at most this
# The ascent extrapolates only once a step rises by at most this share of
# its value, on the linear tail near a fixed point.  Further out the phase
# differences do not yet predict the path: ungated (a gate of 1e-2), the
# step jumped to a lower local maximum on a gaussian 40 x 3 pair and ended
# 5.7e-4 below the plain ascent.
ASCENT_EXTRAPOLATION_GATE = 1e-4
PINNED_RTOL = 1e-9  # (m_upper - phi) / m_upper at which phi counts as pinned


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


@dataclass(frozen=True, eq=False)
class MultiplierNormEstimate:
    """A certified lower estimate of the multiplier norm.

    value equals Re sum_k mask_k <u, y_k> <x_k, v> for the stored unit
    witnesses, so any reader can replay the certificate.  method is
    "ascent", "pure" or "grid"; iterations counts the ascent's SVDs, its
    trial steps included, and extrapolations its accepted trial steps;
    rows_kept and masks_evaluated count the grid's rows and masks that
    reach its per-mask work (see norm_oracle_grid).  Each count is 0
    where its method does not run.
    """

    value: float
    witness_u: np.ndarray
    witness_v: np.ndarray
    witness_mask: np.ndarray
    method: str
    iterations: int = 0
    extrapolations: int = 0
    rows_kept: int = 0
    masks_evaluated: int = 0


def _certify(pair: FramePair, mask: np.ndarray, u: np.ndarray, v: np.ndarray,
             method: str, **counts) -> MultiplierNormEstimate:
    """The estimate whose value replays mask and (u, v) on pair: the sum
    is formed on pair.balanced, whose terms are pair.unit times the
    pair's, and divided by pair.unit, so no term leaves the float range
    in the caller's units.  Every route's estimate is built here."""
    cu, cv = coefficients(pair.balanced, u, v)
    value = float(np.real(np.sum(mask * cu * cv))) / pair.unit
    return MultiplierNormEstimate(value, u, v, mask, method, **counts)


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


def _extrapolate(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray):
    """The SQUAREM mask from three successive aligned masks, or None.

    With phases theta_j of m_j and each difference wrapped to (-pi, pi],
    r = theta_1 - theta_0, w = theta_2 - 2 theta_1 + theta_0 and
    alpha = -||r|| / ||w||, the mask is e^{i (theta_0 - 2 alpha r +
    alpha^2 w)} (Varadhan and Roland, Scand. J. Statist. 35 (2008)).
    None when r or w is zero, where the step is null or undefined.
    """
    r = np.angle(m1 * np.conj(m0))
    w = np.angle(m2 * np.conj(m1)) - r
    r_norm, w_norm = float(np.linalg.norm(r)), float(np.linalg.norm(w))
    if r_norm == 0.0 or w_norm == 0.0:
        return None
    alpha = -r_norm / w_norm
    return np.exp(1j * (np.angle(m0) - 2.0 * alpha * r + alpha * alpha * w))


def norm_lower_alternating(pair: FramePair,
                           start: np.ndarray | None = None) -> MultiplierNormEstimate:
    """Alternating ascent over masks and unit vectors, from one start.

    With the mask fixed, the best (u, v) is the top singular pair of the
    mask matrix; with (u, v) fixed, the best mask aligns each phase so
    every term contributes positively.  Both half-steps are monotone.  The
    ascent starts from start, a mask in the closed unit disc, or from the
    all-ones mask, and stops once its aligned value rises by at most
    ASCENT_RTOL of itself, or after ASCENT_MAX_ITERS SVDs.  The stop is
    tight because rescale.optimize's pure route reads its weights off the
    witness: under a mangling of two indices by 10^80 and 10^-80, its
    m_upper drifted 1.1e-14 relative at 1e-12 and 2.8e-15 at 1e-14.  At
    a zero mask matrix, where every unit pair is top, u and v lie along
    y_k and x_k of the largest ||x_k|| ||y_k||, so the ascent cannot
    stall at 0.

    The ascent converges linearly, so near a fixed point it extrapolates
    its phases: once a step rises by at most ASCENT_EXTRAPOLATION_GATE of
    its value, every third aligned mask ends a triple m_0, m_1, m_2 from
    which a SQUAREM step (see _extrapolate) gives a trial mask.  One step
    from the trial mask is kept only when its aligned value beats the
    current one, so the ascent stays monotone and its value stays the
    replayable certificate of its witness.  The gate keeps the step off
    the steep early path, where it can land on a lower local maximum.
    iterations counts every SVD, trial steps included, and extrapolations
    the kept trial steps.

    The ascent runs on pair.balanced, whose terms <u, y_k> <x_k, v> are
    pair.unit times the pair's, and divides its value by pair.unit: the
    witness is the same, and terms too small or too large to align in
    the caller's units cannot overflow (see _certify).
    """
    eps = np.ones(pair.n) if start is None else check_mask(start, pair.n)
    balanced = pair.balanced
    ys_conj = balanced.ys.conj()

    def step(mask):
        sigma, v, u = top_singular_triplet((mask[:, None] * balanced.xs).T @ ys_conj)
        if sigma == 0.0:
            k = np.argmax(np.linalg.norm([balanced.xs, ys_conj], axis=2).prod(0))
            u, v = (w[k] / np.linalg.norm(w[k]) for w in (balanced.ys, balanced.xs))
        return (*_align(coefficients(balanced, u, v), mask), u, v)

    prev = -np.inf
    recent = []  # aligned masks since the gate opened or the last trial
    iterations = extrapolations = 0
    while iterations < ASCENT_MAX_ITERS:
        eps, aligned, u, v = step(eps)
        iterations += 1
        rise = aligned - prev
        if rise <= ASCENT_RTOL * aligned:
            break
        prev = aligned
        if recent or rise <= ASCENT_EXTRAPOLATION_GATE * aligned:
            recent.append(eps)
        if len(recent) < 3 or iterations == ASCENT_MAX_ITERS:
            continue
        trial_mask = _extrapolate(*recent)
        if trial_mask is not None:
            trial = step(trial_mask)
            iterations += 1
            if trial[1] > aligned:
                eps, prev, u, v = trial
                extrapolations += 1
        recent = [eps]
    return _certify(pair, eps, u, v, "ascent",
                    iterations=iterations, extrapolations=extrapolations)


def phi_lower(bracket) -> MultiplierNormEstimate:
    """A certified lower bound on phi of pair = bracket.pair, read off
    bracket = rescale.optimize(pair).

    On a Newton bracket the last rows of the dual tuples are the top
    eigenvectors v of F and u of G, times a Gibbs weight of at least 1/d;
    on a pure bracket (stats["stop"] "pure") their one rows are the
    witness of optimize's own ascent.  Normalised, they give P = sum_k
    |<x_k, v>| |<y_k, u>| at the mask aligning each term, D at pure
    states (method "pure").  P is returned if within PINNED_RTOL of
    m_upper, as it always is on a pure bracket, where it is m_lower to
    rounding; else one ascent runs from its mask and the larger value
    wins.  The mask aligns the terms of pair.balanced, as the ascent does.
    """
    pair = bracket.pair
    u, v = (w[-1] / np.linalg.norm(w[-1]) for w in (bracket.dual_us, bracket.dual_vs))
    mask, _ = _align(coefficients(pair.balanced, u, v), np.ones(pair.n))
    pure = _certify(pair, mask, u, v, "pure")
    if bracket.m_upper - pure.value <= PINNED_RTOL * bracket.m_upper:
        return pure
    warm = norm_lower_alternating(pair, start=mask)
    return warm if warm.value >= pure.value else pure


@functools.cache
def _triangle(d: int):
    """np.triu_indices(d, 1), built once per d and read-only."""
    ju, ku = np.triu_indices(d, 1)
    ju.flags.writeable = ku.flags.writeable = False
    return ju, ku


def _hermitian_rows(g: np.ndarray) -> np.ndarray:
    """Gram rows of a stack of Hermitian (..., d, d) matrices g.

    The last axis of the result holds the d*d real entries of each g: the
    d diagonal entries, then the real and then the imaginary parts of the
    upper triangle in row order.
    """
    ju, ku = _triangle(g.shape[-1])
    upper = g[..., ju, ku]
    return np.concatenate([np.diagonal(g, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _gram_top_norm(rows: np.ndarray) -> np.ndarray:
    """sqrt of the top eigenvalue of each Gram matrix given by its rows.

    rows has shape (d*d, B): column b holds the _hermitian_rows of matrix b.
    d = 1 reads the single entry, d = 2 takes the larger root of the
    characteristic polynomial from trace and determinant; larger d falls
    back to batched LAPACK.  Rows formed by a GEMM (see norm_oracle_grid)
    may put a nearly zero eigenvalue a rounding below zero, so the top
    eigenvalue is clamped at 0 before the root.
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
    else:
        # eigvalsh reads only the lower triangle, g_kj = conj(g_jk)
        ju, ku = _triangle(d)
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


def _row_bound(forms: np.ndarray, trace: np.ndarray, d: int) -> np.ndarray:
    """A bound on lambda_max(A + B cos + C sin) over the whole circle.

    forms stacks the Gram rows of A, B and C, (3, d*d, L), and trace is a
    bound on the rows' traces over the circle.  With a, b, c the
    deviations of A, B and C from their trace parts, the bound of
    Wolkowicz and Styan, lambda_max <= tr/d + sqrt((d-1)/d) ||G - (tr/d)
    I||_F, takes ||a + b cos + c sin||_F^2 at most ||a||^2 + (||b||^2 +
    ||c||^2)/2 + hypot(2<a,b>, 2<a,c>) + hypot((||b||^2 - ||c||^2)/2,
    <b,c>), the cos 2theta and sin 2theta parts at their amplitude.  The
    hypots are formed as square roots of sums of squares: the rows are in
    balanced units, where no square overflows and one that underflows is
    far below the grid's rounding margin.
    """
    if d == 1:
        return trace
    dev = forms.copy()
    dev[:, :d] -= dev[:, :d].sum(axis=1, keepdims=True) / d
    dev[:, d:] *= math.sqrt(2.0)  # each off-diagonal entry counts twice
    g = np.einsum("pil,qil->pql", dev, dev)
    half = 0.5 * (g[1, 1] - g[2, 2])
    spread = (g[0, 0] + 0.5 * (g[1, 1] + g[2, 2])
              + 2.0 * np.sqrt(g[0, 1] * g[0, 1] + g[0, 2] * g[0, 2])
              + np.sqrt(half * half + g[1, 2] * g[1, 2]))
    return trace / d + np.sqrt((d - 1) / d * spread)


GRID_MAX_N = 6
GRID_MIN_STEPS = 8  # coarsest phase_steps norm_oracle_grid accepts
GRID_CHUNK = 1 << 18
TRACE_RTOL = 1e-9  # relative margin of the grid's bounds


def _grid_rows(pair: FramePair, phase_steps: int):
    """The phase grid's Gram rows as affine forms in coordinate 1's phase.

    The block of fast coordinates 1..f splits into R = s^(f-1) rows of s
    masks that differ only in coordinate 1, s = phase_steps.  Returns
    phases, feats (1 + 2(f-1), R), the row triple (3, d*d, R) and weights
    (P, d*d, 3 + 2(f-1)).  feats holds [1; Re e_2; Im e_2; ...; Re e_f;
    Im e_f] of each row, coordinate 2 fastest.  With K_r the row's matrix
    without coordinate 1, the triple (A_r, B_r, C_r) gives the rows of
    G(K_r + e R_1) = A_r + B_r Re e + C_r Im e; outer offset o adds
    weights[o] @ [feats; Re e; Im e].  Everything is times pair.unit,
    and mask o * R * s + r * s + j of the sweep (see norm_oracle_grid)
    is row r of offset o at the phase phases[j] of coordinate 1.
    """
    n, d = pair.n, pair.dim
    phases = np.exp(2j * np.pi * np.arange(phase_steps) / phase_steps)
    balanced = pair.balanced  # each x_k y_k^* times pair.unit, exactly
    rank_ones = np.einsum("ki,kj->kij", balanced.xs, balanced.ys.conj())
    tables = rank_ones[:, :, :, None] * phases
    fast = min(1, n - 1)
    while fast < n - 1 and phase_steps ** (fast + 1) <= GRID_CHUNK:
        fast += 1
    # grow the rows one coordinate at a time, each new one the slowest
    # digit, by the identity the offsets use; the GEMM over the features
    # so far writes its (steps, d*d, width) result straight into the
    # grown rows
    rows = _hermitian_rows(rank_ones[0].conj().T @ rank_ones[0])[:, None]
    feats = np.ones((1, 1))
    basis = rank_ones[:1]
    for k in range(2, fast + 1):
        width = rows.shape[1]
        grown = np.empty((d * d, phase_steps * width))
        slices = np.swapaxes(grown.reshape(d * d, phase_steps, width), 0, 1)
        np.matmul(_offset_weights(basis, tables[k]), feats, out=slices)
        slices += rows
        rows = grown
        feats = np.vstack([np.tile(feats, phase_steps),
                           np.repeat(phases.real, width),
                           np.repeat(phases.imag, width)])
        basis = np.concatenate([basis, rank_ones[k:k + 1], 1j * rank_ones[k:k + 1]])
    # coordinate 1 as the offsets R_1 and i R_1 (zero when n = 1): their
    # weights, less the G(R_1) they carry, are the cross terms B and C
    r_one = rank_ones[1] if n > 1 else np.zeros((d, d), dtype=np.complex128)
    turns = np.stack([r_one, 1j * r_one])
    g_one = _hermitian_rows(r_one.conj().T @ r_one)[:, None]
    cross = _offset_weights(basis, np.moveaxis(turns, 0, -1)) @ feats - g_one
    offsets = _digit_sums(np.zeros((d, d), dtype=np.complex128),
                          tables[n - 1:fast:-1])
    weights = _offset_weights(np.concatenate([basis, turns]), offsets)
    return phases, feats, np.stack([rows + g_one, *cross]), weights


def norm_oracle_grid(pair: FramePair, phase_steps: int = 48) -> MultiplierNormEstimate:
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
    singular pair of the chosen mask's matrix on pair.balanced.  Cost
    grows geometrically; n is capped at GRID_MAX_N.  rows_kept and
    masks_evaluated of the result count the rows that pass the
    eigenvalue row bound below and the masks whose top eigenvalue is
    computed, the seed's included.

    The grid is a Cartesian product, so the mask matrices are sums of
    per-coordinate tables phase * x_k y_k^*.  The fastest coordinates, as
    many as fit in GRID_CHUNK masks, form one block, and the block splits
    into rows of phase_steps masks that differ only in coordinate 1.  A
    row's matrix is K + e R_1 for the unimodular phase e of coordinate 1,
    and |e| = 1, so its Gram matrix is affine in (Re e, Im e): G(K + e
    R_1) = A + B Re e + C Im e, with A = G(K) + G(R_1) and B, C the cross
    terms of K with R_1 and i R_1.  Adding a d x d offset O to a matrix
    I = sum_c f_c basis[c] with real features f, f_0 = 1, gives G(I + O)
    = G(I) + (I^H O + O^H I) + G(O), and the rows of the last two terms
    are W_O f for a real weight matrix W_O with one column per feature
    (see _offset_weights).  The rows' K grow from R_0 by this identity,
    one coordinate at a time; the cross terms are the weights of the
    offsets R_1 and i R_1; and every setting of the remaining coordinates
    adds one outer offset to each row's (A, B, C), with the weights of
    all offsets built in one einsum (see _grid_rows).  The tables are
    read off pair.balanced, exact powers of two away from the pair's, so
    the Gram entries stay inside the float range whenever the tables do.

    Most rows never reach the top-eigenvalue step; best is the largest
    norm so far, and a row or mask is kept while a bound on its top
    eigenvalue reaches (1 - TRACE_RTOL) best^2.  The top eigenvalue of G =
    M^H M is at most tr G, and a row's trace alpha + beta Re e + gamma Im
    e is at most alpha + hypot(beta, gamma) over the whole circle; the
    traces of span offsets at a time are one GEMM.  The rows that pass,
    at most one block's rows at a time, face the trace-and-deviation
    bound of Wolkowicz and Styan ("Bounds for eigenvalues using traces",
    Linear Algebra Appl. 29 (1980)) maximised over the row (see
    _row_bound); at d = 2 it is the exact eigenvalue formula, maximised
    over the circle.  Only the masks of rows that pass get their Gram
    rows, A + B cos + C sin; at d >= 3 each then faces the same bound on
    its own matrix, and only the survivors reach the batched eigvalsh
    (at d <= 2 _gram_top_norm is a closed form).

    Before the sweep, best is seeded with the norm of one grid mask: the
    largest-trace mask of the row with the largest trace bound among the
    first span of offsets.  The seed is the computed norm of a grid mask,
    formed like every swept one, so it is at most the grid's maximum up
    to rounding.  A skipped mask's norm is below best, so under the
    strict update it could never win, and every mask that ties the final
    maximum is kept: the first maximiser, and with it the value, is the
    one the full sweep would pick.
    """
    if pair.n > GRID_MAX_N:
        raise ValueError(f"grid oracle supports n <= {GRID_MAX_N}, got n={pair.n}")
    if phase_steps < GRID_MIN_STEPS:
        raise ValueError(f"phase_steps must be >= {GRID_MIN_STEPS}")
    n, d = pair.n, pair.dim
    phases, feats, triple, weights = _grid_rows(pair, phase_steps)
    run = phase_steps if n > 1 else 1  # masks per row
    cos, sin = phases.real[:run], phases.imag[:run]
    n_feats, n_rows = feats.shape
    block = n_rows * run
    # _hermitian_rows puts the d diagonal entries first
    traces = triple[:, :d].sum(axis=1)
    trace_w = weights[:, :d].sum(axis=1)
    # the trace bounds of span offsets at a time fill at most GRID_CHUNK
    # entries; the rows that pass go on n_rows at a time
    span = max(1, GRID_CHUNK // n_rows)

    def trace_bounds(lo):
        # alpha + hypot(beta, gamma) of each row's trace alpha + beta Re e
        # + gamma Im e at offsets lo..lo+span-1
        w = trace_w[lo:lo + span]
        beta = traces[1] + w[:, n_feats, None]
        gamma = traces[2] + w[:, n_feats + 1, None]
        bound = w[:, :n_feats] @ feats
        bound += traces[0]
        bound += np.sqrt(beta * beta + gamma * gamma)
        return bound

    def row_forms(outers, rows):
        # (A, B, C) of each row at its offset, stacked (3, d*d, L)
        w = weights[outers]
        forms = triple[:, :, rows]
        forms[0] += np.einsum("lic,cl->il", w[:, :, :n_feats], feats[:, rows])
        forms[1:] += np.transpose(w[:, :, n_feats:], (2, 1, 0))
        return forms

    def mask_rows(forms, j=slice(None)):
        # the Gram rows of the rows' masks at phases j, row by row
        a, b, c = forms[..., None]
        return (a + b * cos[j] + c * sin[j]).reshape(d * d, -1)

    # Rounding margin.  Each Gram entry is a short sum of terms of size
    # at most (sum_k ||R_k||)^2 <= n^2 V^2, V the grid's maximum: R_k is
    # the average of e^{-i theta_k} M over the grid, so ||R_k|| <= V.  So
    # the computed trace of a mask that can end as the maximum is within
    # about 1e-13 V^2 of its exact value for n <= GRID_MAX_N, whatever
    # order its terms are summed in.  Both row bounds are sums of
    # nonnegative terms and hypots of such entries and of their products,
    # with no difference of squares that could cancel, so each is within
    # a few ulps of n^2 V^2 of an exact bound on its row.  The d = 2
    # closed form of _gram_top_norm loses more only near a doubled top
    # eigenvalue, where the trace is at least twice the top one.  The
    # mask bound at d >= 3 holds for any Hermitian matrix, so it holds for
    # the rows eigvalsh is given, and eigvalsh is within a few ulps of
    # the top eigenvalue.  The floor's seed is a computed norm, so the
    # floor exceeds V by a rounding at most, and TRACE_RTOL keeps every
    # mask that can win.
    bound = trace_bounds(0)
    outer, row = divmod(int(np.argmax(bound)), n_rows)
    seed_forms = row_forms([outer], [row])
    _, beta, gamma = seed_forms[:, :d].sum(axis=1)
    phase = int(np.argmax(beta * cos + gamma * sin))
    # the seed's norm, formed like every swept mask's
    floor = float(_gram_top_norm(mask_rows(seed_forms, [phase]))[0])
    best_val = -np.inf
    best_idx = 0
    rows_kept, masks_evaluated = 0, 1
    for lo in range(0, weights.shape[0], span):
        if lo:
            bound = trace_bounds(lo)
        live = np.flatnonzero(bound >= (1.0 - TRACE_RTOL) * floor * floor)
        for at in range(0, live.size, n_rows):
            outers, rows = np.divmod(live[at:at + n_rows], n_rows)
            top = bound[outers, rows]
            outers += lo
            forms = row_forms(outers, rows)
            top = _row_bound(forms, top, d)
            # the offsets in sweep order, each against the floor so far
            thr = (1.0 - TRACE_RTOL) * floor * floor
            for outer in sorted(set(outers[top >= thr].tolist())):
                thr = (1.0 - TRACE_RTOL) * floor * floor
                sel = np.flatnonzero((outers == outer) & (top >= thr))
                if not sel.size:
                    continue
                rows_kept += sel.size
                masks = mask_rows(forms[:, :, sel])
                cols = (rows[sel, None] * run + np.arange(run)).ravel()
                if d >= 3:
                    mean = masks[:d].sum(axis=0) / d
                    dev = masks[:d] - mean
                    dev = (np.einsum("ij,ij->j", dev, dev)
                           + 2.0 * np.einsum("ij,ij->j", masks[d:], masks[d:]))
                    keep = np.flatnonzero(mean + np.sqrt((d - 1) / d * dev) >= thr)
                    if not keep.size:
                        continue
                    if keep.size < masks.shape[1]:
                        masks, cols = masks[:, keep], cols[keep]
                masks_evaluated += cols.size
                vals = _gram_top_norm(masks)
                arg = int(np.argmax(vals))
                if vals[arg] > best_val:
                    best_val = float(vals[arg])
                    best_idx = int(outer) * block + int(cols[arg])
                    floor = max(floor, best_val)
    eps = np.ones(n, dtype=np.complex128)
    rem = best_idx
    for pos in range(1, n):
        rem, dig = divmod(rem, phase_steps)
        eps[pos] = phases[dig]
    _, left, right = top_singular_triplet(mask_matrix(pair.balanced, eps))
    return _certify(pair, eps, right, left, "grid",
                    rows_kept=rows_kept, masks_evaluated=masks_evaluated)


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
    return float(singular_values(a)[:, 0].max())


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


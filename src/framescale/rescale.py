"""Rescaling weights that certify a completely bounded multiplier bound.

For log-weights t the two Bessel quantities are

    f(t) = lam_max( sum_k e^{t_k} x_k x_k^* )
    g(t) = lam_max( sum_k e^{-t_k} y_k y_k^* )

and every amplified masked map satisfies ||Phi_(m)(A)|| <= sqrt(f g) ||A||
<= max(f, g) ||A||, a row-column factorization through the rescaled pair
(e^{t_k/2} x_k, e^{-t_k/2} y_k).  Minimizing h = max(f, g) over t therefore
produces an upper bound M_upper on the completely bounded norm together
with explicit weights.

The dual side gives the lower bound.  For density matrices rho and sigma,

    D(rho, sigma) = sum_k sqrt(<rho x_k, x_k> <sigma y_k, y_k>)

is at most h(t) for every t (Cauchy-Schwarz on the two weighted sums)
and at most the completely bounded norm, because rank-one unit
coefficients built from rho and sigma reach it (Haagerup's factorization
of Schur multipliers; Paulsen, Completely Bounded Maps and Operator
Algebras, 2002).  h is convex, and the two sides meet at its minimum.
At pure states D is also the value of a scalar mask, so it bounds the
multiplier norm phi from below too (multiplier.phi_lower).
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .frames import (BesselBounds, FramePair, bounds_from_spectrum,
                     coefficients, dual_terms, dual_value, frame_eigh)
from .linalg import eigh
from .multiplier import check_mask, norm_lower_alternating

BRACKET_SLACK = 1e-8  # relative to m_upper
PSD_CLAMP = 1e-10  # lam_max(S) may pass the dilation bound by this, relative
ISOMETRY_TOL = 1e-10  # largest isometry_defect of an isometric dilation
ARMIJO_STEPS = np.ldexp(1.0, -np.arange(40))  # line-search alphas 2^-j
# Newton stages run at sharpness b = b_rel / h for b_rel = B_REL_START,
# B_REL_START * B_REL_FACTOR, ... up to B_REL_TOP, at most NEWTON_STEPS
# steps each; a stage ends once sqrt(f g) - D <= GAP_TOL sqrt(f g) at its
# iterate, and optimize stops after the first stage whose duality gap
# (m_upper - D) / m_upper is at most GAP_TOL
B_REL_START = 1e2
B_REL_FACTOR = 10.0
B_REL_TOP = 1e10
NEWTON_STEPS = 25
GAP_TOL = 1e-13
_SIGNS = np.array([[1.0], [-1.0]])  # log-weights of F and G: +t and -t


class _Objective:
    """F(t) and G(t) of one pair, from rank-one stacks built once.

    stack[0] holds x_k x_k^* and stack[1] holds y_k y_k^*, formed by an
    einsum, not a broadcast product: x[:, :, None] * x.conj()[:, None, :]
    need not be exactly conjugate-symmetric under numpy's vectorised
    complex multiply, while each einsum term is.  spectra(t)
    weights them by e^{t_k} and e^{-t_k} at one point t of shape (n,) or
    at a block of points of shape (B, n), and diagonalises every F and G
    in one validated LAPACK call: w[..., 0, :] is the spectrum of F and
    w[..., 1, :] that of G.  The weighted sum runs over the stack axis,
    adding exactly Hermitian terms, so F and G come out exactly
    Hermitian.  The counters record what optimize reports in
    CbBracket.stats.
    """

    def __init__(self, pair: FramePair):
        self.vecs = np.stack([pair.xs, pair.ys])
        self.stack = np.einsum("ski,skj->skij", self.vecs, self.vecs.conj())
        self.eigh_calls = 0
        self.candidates = 0

    def eigh(self, mat: np.ndarray):
        self.eigh_calls += 1
        return eigh(mat)

    def spectra(self, t: np.ndarray):
        weights = np.exp(t[..., None, :] * _SIGNS)
        return self.eigh((weights[..., None, None] * self.stack).sum(axis=-3))


def _balanced(t: np.ndarray, spectra) -> np.ndarray:
    """t + c, c = (ln g - ln f) / 2, from the spectra at t.

    A common shift c multiplies f by e^c and g by e^{-c}, so this c makes
    both equal to sqrt(f g), which never increases max(f, g).
    """
    f, g = spectra[0][:, -1]
    return t + 0.5 * np.log(g / f)


def _divided_exp(b: float, lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Divided differences (p_i - p_j)/(lam_i - lam_j) of p = e^{b(lam-max)}.

    lam and p are spectra of shape (..., d).  Since p_i = p_j e^{b(lam_i -
    lam_j)}, the difference is exactly b max(p_i, p_j) phi1(-b |lam_i -
    lam_j|), phi1(z) = (e^z - 1)/z with phi1(0) = 1, so the diagonal is the
    derivative b p_i.  The exponent is never positive, so nothing
    overflows, and expm1 leaves no subtraction to cancel however close two
    eigenvalues lie.  The result is exactly symmetric.
    """
    z = -b * np.abs(lam[..., :, None] - lam[..., None, :])
    phi1 = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z < 0.0)
    return b * np.maximum(p[..., :, None], p[..., None, :]) * phi1


def _psi(w: np.ndarray, b: float):
    """Smoothed objective from spectra w of shape (..., 2, d).

    Returns psi, the weights p = e^{b (w - wmax)} and their sum z.
    """
    wmax = w[..., -1].max(axis=-1)
    p = np.exp(b * (w - wmax[..., None, None]))
    z = p[..., 0, :].sum(axis=-1) + p[..., 1, :].sum(axis=-1)
    return wmax + np.log(z) / b, p, z


def _gibbs_roots(b: float, w: np.ndarray) -> np.ndarray:
    """Square roots of the Gibbs weights e^{b (w - w_top)} / sum of rho =
    e^{bF} / tr e^{bF} and sigma = e^{bG} / tr e^{bG}, from the (2, d)
    spectra w of F and G.  Each family is normalised by its own top: by
    the global top, one family's weights can all underflow to 0/0."""
    p = np.exp(b * (w - w[:, -1:]))
    return np.sqrt(p / p.sum(axis=1, keepdims=True))


def _smoothed_state(obj: _Objective, t: np.ndarray, b: float, spectra,
                    smoothed=None):
    """Value, gradient, dual value and Hessian of the smoothed objective.

    The smoothing is psi = (1/b) log(tr e^{bF} + tr e^{bG}), which is
    convex, exceeds h by at most log(2d)/b, and has exact derivatives
    through the eigendecompositions of F and G; spectra is
    obj.spectra(t), and smoothed, when given, is _psi(spectra[0], b).
    Returns psi, the gradient, D at the Gibbs states of F and G (from the
    gradient's amplitudes times _gibbs_roots, the dual tuples' tables up
    to conjugation), and a function of no arguments that forms the
    Hessian.  Only that function forms the divided differences and the
    O(n^2 d^2) curvature, so a caller that stops at t never pays for them.
    """
    w, v = spectra
    psi, p, z = _psi(w, b) if smoothed is None else smoothed
    weights = np.exp(t * _SIGNS)
    amp = obj.vecs.conj() @ v
    q = weights * np.einsum("skj,sj->sk", np.abs(amp) ** 2, p)
    grad = (q[0] - q[1]) / z

    def hessian():
        # P_s, rows vec(a_k a_k^*) as floats: Re((P_s o vec Lam_s) P_s^*)
        scaled = np.sqrt(weights)[:, :, None] * amp.conj()
        outer = np.einsum("ski,skj->skij", scaled, scaled.conj()).reshape(
            2, t.size, -1).view(np.float64)
        lam = np.repeat(_divided_exp(b, w, p).reshape(2, 1, -1), 2, axis=-1)
        curv = ((outer * lam) @ np.swapaxes(outer, 1, 2)).sum(axis=0)
        hess = (curv + np.diag(q[0] + q[1])) / z - b * np.outer(grad, grad)
        return 0.5 * (hess + hess.T)

    cv, cu = amp * _gibbs_roots(b, w)[:, None, :]
    return float(psi), grad, float(dual_terms(cu, cv).sum()), hessian


def _armijo_step(obj: _Objective, t: np.ndarray, step: np.ndarray, b: float,
                 psi: float, slope: float):
    """First t + 2^-j step, j = 0..39, passing Armijo, with its spectra
    and its _psi triple (psi, p, z).

    Candidates are scored one obj.spectra call each, largest alpha
    first.  None if no candidate passes.
    """
    for alpha in ARMIJO_STEPS:
        cand = t + alpha * step
        obj.candidates += 1
        spectra = obj.spectra(cand)
        smoothed = _psi(spectra[0], b)
        if smoothed[0] <= psi + 1e-4 * alpha * slope:
            return cand, spectra, smoothed
    return None


def _newton_stage(obj: _Objective, t: np.ndarray, spectra, b: float):
    """Damped Newton steps on the smoothed objective at sharpness b.

    At each iterate the stage first reads two certified numbers off the
    spectra: the upper bound sqrt(f g), which holds at any t, and D at
    the Gibbs states, a dual value at valid density matrices.  It ends
    ("gap") once sqrt(f g) - D <= GAP_TOL sqrt(f g): no step can then
    tighten the bracket past the tolerance the outer loop asks for.  It
    also ends ("gradient") when the gradient is below 1e-13 of psi
    (relative, so the rule is the same at every scale of the pair).
    Only then is the Hessian formed.  Each step solves with the real
    Hessian's eigendecomposition, its spectrum floored at 1e-12 of the
    largest eigenvalue, caps the step at 3 in every coordinate, and
    takes the Armijo point of _armijo_step.  The stage ends when the
    step does not descend or no Armijo point passes ("no_descent"),
    when the Armijo point equals t bitwise ("fixed_point"), or after
    NEWTON_STEPS steps ("steps").
    The fixed-point stop matters at high sharpness, where the gradient's
    rounding floor can sit above 1e-13 of psi and Armijo accepts
    t + alpha step == t (the sufficient decrease rounds to an equality):
    every later step would repeat that one, so the stage's result is
    bitwise the same.  Returns the last point, its spectra, the number of
    Newton steps (Hessians formed) and the stop reason.
    """
    smoothed = _psi(spectra[0], b)
    stop, steps = "steps", 0
    for _ in range(NEWTON_STEPS):
        psi, grad, dual, hessian = _smoothed_state(obj, t, b, spectra,
                                                   smoothed)
        f, g = spectra[0][:, -1]
        upper = float(np.sqrt(f) * np.sqrt(g))
        if upper - dual <= GAP_TOL * upper:
            stop = "gap"
            break
        if float(np.max(np.abs(grad))) <= 1e-13 * abs(psi):
            stop = "gradient"
            break
        steps += 1
        w, v = obj.eigh(hessian())
        floor = max(1e-12 * float(np.max(np.abs(w))), 1e-300)
        step = -(v @ ((v.T @ grad) / np.maximum(w, floor)))
        cap = float(np.max(np.abs(step)))
        if cap > 3.0:
            step *= 3.0 / cap
        slope = float(grad @ step)
        found = (None if slope >= 0.0
                 else _armijo_step(obj, t, step, b, psi, slope))
        if found is None:
            stop = "no_descent"
            break
        if np.array_equal(found[0], t):
            stop = "fixed_point"
            break
        t, spectra, smoothed = found
    return t, spectra, steps, stop


@dataclass(frozen=True, eq=False)
class CbBracket:
    """Two-sided bracket on the completely bounded multiplier norm of pair.

    pair is the caller's pair (not pair.balanced), read off by later steps.
    m_upper is max(f, g), the Bessel bounds at log_weights (or, for
    pair.balanced, at balanced_weights).  m_lower is frames.dual_value(pair,
    dual_us, dual_vs), bitwise.  On the pure route (stop "pure") the
    tuples are the one-row (u) and (v) of the ascent's witness and the
    weights are its closed form; on the Newton route they are the Gibbs
    tuples of a stage end, d rows each, and optimize returns the best
    stage end for each of m_lower and m_upper, which may come from
    different stages.  With cu_k = (y_k^* us_j)_j and cv_k = (x_k^*
    vs_i)_i, the unit rank-one coefficients A_k = (cv_k / |cv_k|)(conj
    cu_k / |cu_k|)^T (A_k = 0 where either vanishes) give an amplified
    map whose norm is at least sum_k |cv_k| |cu_k| = D.  stats counts
    what optimize did: stages, newton_steps, line_search_candidates
    (Armijo points scored), eigh_calls (stacked LAPACK calls on F, G and
    the Newton Hessian), pure_svds (the SVDs of the pure route's ascent,
    spent on both routes), stop ("pure" when the pure route closed the
    bracket, "gap" once a stage's duality gap met GAP_TOL, "top_stage"
    when the loop ran out of stages), stage_gaps (the relative gap
    (m_upper - D) / m_upper after each stage), stage_steps (the Newton
    steps of each stage; they sum to newton_steps), stage_stops (why
    each stage ended: "gap", "gradient", "fixed_point", "no_descent" or
    "steps"; see _newton_stage), best_lower_stage and best_upper_stage
    (the stages, numbered from 1, whose ends gave m_lower and m_upper)
    and wall_s.  A pure bracket has no stages: stages, newton_steps and
    both best stages are 0 and the stage lists are empty.  A non-finite
    m_lower, f or g, or m_lower above m_upper by more than BRACKET_SLACK
    of it, raises ValueError.
    """

    pair: FramePair
    m_lower: float
    log_weights: np.ndarray
    f: float
    g: float
    dual_us: np.ndarray
    dual_vs: np.ndarray
    balanced_weights: np.ndarray
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        far = [name for name in ("m_lower", "f", "g")
               if not np.isfinite(getattr(self, name))]
        if far:
            raise ValueError(f"bracket end {' and '.join(far)} is not finite")
        if self.m_lower > self.m_upper + BRACKET_SLACK * abs(self.m_upper):
            raise ValueError(
                f"bracket inverted: lower {self.m_lower:.12g} above upper "
                f"{self.m_upper:.12g}")

    @property
    def m_upper(self) -> float:
        """max(f, g): the certified upper bound at log_weights."""
        return max(self.f, self.g)

    @property
    def gap(self) -> float:
        """Relative width (m_upper - m_lower) / m_upper of the bracket."""
        return (self.m_upper - self.m_lower) / self.m_upper


def _bracket(pair: FramePair, lower, upper, stats: dict) -> CbBracket:
    """The CbBracket of pair from (D, us, vs) and (t, f, g) of
    pair.balanced: f, g and D are divided by pair.unit, and t, kept as
    balanced_weights, gives log_weights t - 2 ln 2 pair.balance, those of
    the caller's pair.  Powers of two are exact, so m_lower is still
    dual_value(pair, us, vs) bitwise."""
    unit = pair.unit
    (dual, us, vs), (t, f, g) = lower, upper
    return CbBracket(pair, dual / unit, t - 2.0 * np.log(2.0) * pair.balance,
                     f / unit, g / unit, us, vs, t, stats)


def _pure_bracket(pair: FramePair, obj: _Objective, est):
    """The bracket at pure dual states from one ascent, or None.

    est = norm_lower_alternating(pair), from the all-ones mask, ends at
    unit (u, v).  With a_k = |<x_k, v>|^2 and c_k = |<u, y_k>|^2 on
    pair.balanced, the weights t_k = (1/2) ln(c_k / a_k) give e^{t_k} a_k
    = e^{-t_k} c_k = sqrt(a_k c_k), so <F_t v, v> = <G_t u, u> = D, the
    dual value of the one-row tuples (u) and (v), and f, g >= D.  One
    obj.spectra call gives f and g; where max(f, g) - D <= GAP_TOL
    max(f, g) the bracket [D, max(f, g)] is closed with no Newton loop.
    None where some a_k or c_k is 0 (its weight would be infinite) or the
    gap stays open.  t is formed as ln(|<u, y_k>| / |<x_k, v>|), whose
    quotient stays in the float range where a_k and c_k are positive.
    """
    balanced, u, v = pair.balanced, est.witness_u, est.witness_v
    cu, cv = (np.abs(table) for table in coefficients(balanced, u, v))
    if not ((cv * cv).all() and (cu * cu).all()):  # every a_k and c_k > 0
        return None
    t = np.log(cu / cv)
    w, _ = obj.spectra(t)
    f, g = (float(top) for top in w[:, -1])
    us, vs = u[None], v[None]
    dual = dual_value(balanced, us, vs)
    if max(f, g) - dual > GAP_TOL * max(f, g):
        return None
    stats = {"stages": 0, "newton_steps": 0,
             "line_search_candidates": obj.candidates,
             "eigh_calls": obj.eigh_calls, "stop": "pure", "stage_gaps": [], "stage_steps": [],
             "stage_stops": [], "best_lower_stage": 0, "best_upper_stage": 0}
    return _bracket(pair, (dual, us, vs), (t, f, g), stats)


def optimize(pair: FramePair) -> CbBracket:
    """Minimize max(f, g) over log-weights and bracket the cb norm.

    Everything runs on pair.balanced, each index at its exact powers of
    two, from rank-one stacks built once per pair.  The pure route comes
    first (_pure_bracket): one ascent from the all-ones mask, whose
    witness (u, v) gives closed-form weights and, where max(f, g) meets
    its dual value D to GAP_TOL, the bracket at once (stop "pure").
    Otherwise one loop runs, from the balanced equalizer start: Newton
    stages on the smoothed objective at b_rel = B_REL_START, times
    B_REL_FACTOR each stage, up to B_REL_TOP.  After each stage t is
    balanced and the Gibbs states of F and G give the dual tuples, whose
    dual_value is D; the loop stops once that stage's (m_upper - D) /
    m_upper <= GAP_TOL.  The bracket is the best seen: m_lower is the
    largest D, with its tuples, and m_upper the smallest max(f, g), with
    its weights, f and g, each from the stage that gave it.  Either
    route's bracket is moved to the caller's units by _bracket, so a
    mangling of the pair by powers of two gives the same bracket and
    dual tuples bitwise.  The bracket keeps pair.
    """
    started = time.perf_counter()
    obj = _Objective(pair.balanced)
    est = norm_lower_alternating(pair)
    bracket = _pure_bracket(pair, obj, est)
    if bracket is None:
        bracket = _newton_bracket(pair, obj)
    bracket.stats["pure_svds"] = est.iterations
    bracket.stats["wall_s"] = time.perf_counter() - started
    return bracket


def _newton_bracket(pair: FramePair, obj: _Objective) -> CbBracket:
    """The Newton stages of optimize on obj = _Objective(pair.balanced)."""
    balanced = pair.balanced
    # start at the per-vector scale equalizer: exact at d = 1, and any
    # diagonal rescaling of the pair shifts this start by the amount
    # that cancels it, so the descent is equivariant under mangling
    t = np.log(np.linalg.norm(balanced.ys, axis=1)
               / np.linalg.norm(balanced.xs, axis=1))
    t = _balanced(t, obj.spectra(t))
    spectra = obj.spectra(t)
    b_rel = B_REL_START
    stage_gaps, stage_steps, stage_stops = [], [], []
    lower = upper = None  # the best (D, us, vs) and (max(f, g), t, f, g)
    while True:
        b = b_rel / float(spectra[0][:, -1].max())
        t, spectra, steps, stop = _newton_stage(obj, t, spectra, b)
        stage_steps.append(steps)
        stage_stops.append(stop)
        t = _balanced(t, spectra)
        w, v = spectra = obj.spectra(t)
        # row i of vs is root i times eigenvector i of F: rho = sum vs_i vs_i^*
        vs, us = _gibbs_roots(b, w)[:, :, None] * np.swapaxes(v, 1, 2)
        dual = dual_value(balanced, us, vs)
        f, g = (float(top) for top in w[:, -1])
        stage_gaps.append((max(f, g) - dual) / max(f, g))
        if lower is None or dual > lower[0]:
            lower, best_lower = (dual, us, vs), len(stage_gaps)
        if upper is None or max(f, g) < upper[0]:
            upper, best_upper = (max(f, g), t, f, g), len(stage_gaps)
        if stage_gaps[-1] <= GAP_TOL or b_rel >= B_REL_TOP:
            break
        b_rel *= B_REL_FACTOR
    stats = {"stages": len(stage_gaps), "newton_steps": sum(stage_steps),
             "line_search_candidates": obj.candidates,
             "eigh_calls": obj.eigh_calls,
             "stop": "gap" if stage_gaps[-1] <= GAP_TOL else "top_stage",
             "stage_gaps": stage_gaps, "stage_steps": stage_steps,
             "stage_stops": stage_stops, "best_lower_stage": best_lower,
             "best_upper_stage": best_upper}
    return _bracket(pair, lower, upper[1:], stats)


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """The rescaled pair (e^{t_k/2} x_k, e^{-t_k/2} y_k) at a bracket's
    log_weights t, its frame bounds, the eigendecompositions (w, V) of its
    two frame operators, and the bracket's m_upper."""

    m_upper: float
    bounds_x: BesselBounds
    bounds_y: BesselBounds
    scaled: FramePair
    eig_x: tuple
    eig_y: tuple

    def bounds_within(self) -> bool:
        """Whether both scaled Bessel bounds are at most m_upper (1 + BRACKET_SLACK)."""
        top = self.m_upper * (1.0 + BRACKET_SLACK)
        return self.bounds_x.upper <= top and self.bounds_y.upper <= top


def extract_scaling(bracket: CbBracket) -> ScalingResult:
    """The rescaled pair of bracket = optimize(pair), pair = bracket.pair,
    with Bessel bounds f and g; one frame_eigh call diagonalises its frame
    operators.  Its rows are e^{+-t_k/2} times pair.balanced's, t =
    bracket.balanced_weights, moved to the caller's units by the pair's one
    power of two (ldexp), so nothing overflows or loses |log_weights| eps,
    and a mangling of the pair by powers of two gives the same rows bitwise."""
    pair, t = bracket.pair, bracket.balanced_weights
    rows = np.exp(0.5 * t * _SIGNS)[:, :, None] * np.stack(
        [pair.balanced.xs, pair.balanced.ys])
    scaled = FramePair(*np.ldexp(rows.view(np.float64), -pair._lift).view(
        np.complex128))
    w, v = frame_eigh(scaled)
    return ScalingResult(bracket.m_upper, *map(bounds_from_spectrum, w),
                         scaled, *zip(w, v))


@dataclass(frozen=True, eq=False)
class Dilation:
    """Row and column isometric factors through a larger space.

    The dilation space is C^n (+) C^d (+) C^d.  For every mask a the
    masked map equals multiplier_norm * v1^H pi(a) v2 where pi(a) is
    diagonal with entries (a_1, ..., a_n, a_1, ..., a_1).
    """

    v1: np.ndarray
    v2: np.ndarray
    multiplier_norm: float
    n: int
    dim: int

    @cached_property
    def isometry_defect(self) -> float:
        """max |v^H v - I| over v1 and v2, computed once per dilation."""
        return max(float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))
                   for v in (self.v1, self.v2))

    @property
    def is_isometric(self) -> bool:
        """isometry_defect is at most ISOMETRY_TOL."""
        return self.isometry_defect <= ISOMETRY_TOL


def _isometry_pad(w: np.ndarray, v: np.ndarray, bound: float) -> np.ndarray:
    """sqrt(I - S / bound) from the eigendecomposition (w, v) of a frame
    operator S: its rounding stays relative to bound where I - S / bound
    is all rounding (a tight frame).  lam_max(S) > bound (1 + PSD_CLAMP) raises."""
    if w[-1] > bound * (1.0 + PSD_CLAMP):
        raise ValueError(f"weighted Bessel bound {w[-1]:.12g} exceeds "
                         f"m_upper {bound:.12g}")
    root = (v * np.sqrt(np.clip(1.0 - w / bound, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def build_dilation(scaling: ScalingResult) -> Dilation:
    """The explicit dilation of scaling's rescaled pair at its m_upper, the
    dilation's multiplier_norm.  The isometry paddings need both scaled
    Bessel bounds below m_upper (within PSD_CLAMP, relative)."""
    pair, d, bound = scaling.scaled, scaling.scaled.dim, scaling.m_upper
    pad1 = _isometry_pad(*scaling.eig_x, bound)
    pad2 = _isometry_pad(*scaling.eig_y, bound)
    root = np.sqrt(bound)
    zeros = np.zeros((d, d), dtype=np.complex128)
    v1 = np.concatenate([pair.xs.conj() / root, zeros, pad1])
    v2 = np.concatenate([pair.ys.conj() / root, pad2, zeros])
    return Dilation(v1, v2, bound, pair.n, d)


def dilation_reconstruct(dil: Dilation, mask: np.ndarray) -> np.ndarray:
    """Evaluate multiplier_norm * v1^H pi(mask) v2; equals the masked map."""
    a = check_mask(mask, dil.n)
    p = np.concatenate([a, np.full(2 * dil.dim, a[0])])
    return dil.multiplier_norm * (dil.v1.conj().T @ (p[:, None] * dil.v2))

"""Characteristic roots of the mode polynomials.

Removing the memory convolution with the operator (d/dt + gamma) turns the
damped wave mode at radial frequency ``r`` into a third-order ODE whose
characteristic cubic is

    lambda^3 + (r^2 + gamma) lambda^2 + (1 + gamma) r^2 lambda
        + (gamma - 1) r^2 = 0,

and the thermally relaxed model into a fourth-order ODE with quartic

    tau mu^4 + (1 + tau gamma) mu^3 + (r^2 + gamma) mu^2
        + (1 + gamma) r^2 mu + (gamma - 1) r^2 = 0.

Both degrees are solved in closed form, with no eigenvalue routine.
Cubic roots: one real root from the trigonometric or Cardano formula
(Press et al., *Numerical Recipes*, §5.6), refined by a real Newton step,
and the other two from the quadratic left after dividing it out, divided
from whichever end of the cubic is stable.  Quartic roots: the quartic is
split into two real quadratics through the dominant root of its resolvent
cubic and the LDL^T form of Orellana & De Michele (ACM TOMS 46(2),
Algorithm 1010, 2020), and Newton steps on the four coefficients of the
two factors refine the split, so a slow pair next to a fast one comes from
a well-conditioned factor at every radius.  One guarded Newton polish
follows either seed, which keeps a uniform residual bound across frequency
zones without case analysis.  Exact conjugate pairing needs no clean-up
pass: for both degrees every pair comes from the real quadratic formula,
which writes a complex pair as ``re +- i im`` and gives real roots the
imaginary part ``+0.0``, and the Newton step preserves this because IEEE
complex arithmetic commutes with conjugation.

:func:`solve_polynomial_batch` is the one solve entry point.  The
coefficient builders take gamma and tau values that broadcast against the
radii, so modes that each carry their own (gamma, tau, r), as in the random
cross-checks, are solved as one batch; the ``*_char_roots`` functions are
thin wrappers for one shared parameter set.  Printed low/high-frequency
truncations are available separately through :func:`asymptotic_roots`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .params import ModelParams

#: relative tolerance below which two roots count as coincident
MULTIPLICITY_RTOL = 1e-8
#: scaled-discriminant threshold that also marks a node as (near-)multiple;
#: eigenvalue clusters spread like eps^(1/2..1/3) at exact coalescence, so a
#: pure distance test cannot fire there while the discriminant test can
DISC_RTOL = 1e-10
#: residual acceptance factor relative to the evaluation scale
RESIDUAL_RTOL = 1e-10
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
#: error of the reproduced coefficients, summed over the four, within which
#: a quartic's split into two quadratics counts as exact in rounding
_SPLIT_RTOL = 16.0 * _EPS

#: default frequency-zone boundaries (low-frequency cut, high-frequency cut)
DEFAULT_EPS_CUT = 0.1
DEFAULT_N_CUT = 10.0


@dataclass
class RootSet:
    """Matched characteristic roots at one radial frequency.

    ``roots`` holds 3 entries for the second-order model and 4 for the
    relaxed model, sorted by (real, imag); complex roots come in exactly
    conjugate pairs and real roots have imaginary part exactly zero.
    """

    r: float
    roots: np.ndarray
    residuals: np.ndarray
    multiplicity_flag: bool
    approximate: bool = False
    ambiguous_match: bool = False


# ---------------------------------------------------------------------------
# polynomial coefficients
# ---------------------------------------------------------------------------

def cubic_coefficients(gamma, r) -> np.ndarray:
    """Monic descending coefficients of the second-order-model cubic.

    ``gamma`` and ``r`` broadcast against each other, so each row may carry
    its own gamma; the result has shape ``broadcast(gamma, r).shape + (4,)``
    (shape (4,) for scalars)."""
    g = np.asarray(gamma, dtype=float)
    r = np.asarray(r, dtype=float)
    r2 = r * r
    coeffs = np.stack(np.broadcast_arrays(
        1.0, r2 + g, (1.0 + g) * r2, (g - 1.0) * r2), axis=-1)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidParameterError("non-finite cubic coefficients")
    return coeffs


def quartic_coefficients(gamma, tau, r) -> np.ndarray:
    """Descending coefficients of the relaxed-model quartic (leading tau).

    ``gamma``, ``tau`` and ``r`` broadcast against each other as in
    :func:`cubic_coefficients`; the last axis has length 5."""
    g = np.asarray(gamma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    r = np.asarray(r, dtype=float)
    r2 = r * r
    coeffs = np.stack(np.broadcast_arrays(
        tau, 1.0 + tau * g, r2 + g, (1.0 + g) * r2, (g - 1.0) * r2), axis=-1)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidParameterError("non-finite quartic coefficients")
    return coeffs


# ---------------------------------------------------------------------------
# root solving
# ---------------------------------------------------------------------------

def _monic_scaled(coeffs: np.ndarray):
    """Monic lower coefficients of each row, a_j of x^n + a_1 x^(n-1) + ...,
    scaled by a power of two 2^-k (exact) so that every |a_j|^(1/j) < 1:
    the roots shrink by 2^-k and all lie within 2 of the origin.  Returns
    the scaled coefficients and 2^k."""
    lead = coeffs[..., 0]
    low = [coeffs[..., j] / lead for j in range(1, coeffs.shape[-1])]
    size = np.maximum(np.maximum(np.abs(low[0]), np.sqrt(np.abs(low[1]))),
                      np.cbrt(np.abs(low[2])))
    if len(low) == 4:
        size = np.maximum(size, np.sqrt(np.sqrt(np.abs(low[3]))))
    k = np.frexp(size)[1]
    for j, x in enumerate(low, 1):
        np.ldexp(x, -j * k, out=x)
    return low, np.ldexp(1.0, k)


def _cubic_real_root(a, b, c):
    """One real root of x^3 + a x^2 + b x + c, the dominant one when all
    three are real: the larger in modulus of the lowest and the highest
    from the trigonometric form, else Cardano's (Press et al., *Numerical
    Recipes*, section 5.6), refined by one guarded real Newton step.  A
    step of 4 or more is not taken: the roots of a cubic scaled by
    :func:`_monic_scaled` lie within 2 of the origin, so from a closed-form
    start such a step is no use (and could overflow)."""
    q = (a * a - 3.0 * b) / 9.0
    rr = (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
    q3 = q * q * q
    trig = rr * rr < q3
    sq = np.sqrt(np.where(trig, q, 0.0))
    theta = np.arccos(np.clip(rr / np.where(trig, sq * q, 1.0), -1.0, 1.0))
    lowest = -2.0 * sq * np.cos(theta / 3.0) - a / 3.0
    highest = -2.0 * sq * np.cos((theta + 2.0 * np.pi) / 3.0) - a / 3.0
    root_term = np.sqrt(np.maximum(rr * rr - q3, 0.0))
    ca = -np.copysign(np.cbrt(np.abs(rr) + root_term), rr)
    x = np.where(trig, np.where(np.abs(lowest) >= np.abs(highest), lowest, highest),
                 ca + q / np.where(ca == 0.0, np.inf, ca) - a / 3.0)
    f = ((x + a) * x + b) * x + c
    fp = (3.0 * x + 2.0 * a) * x + b
    ok = np.abs(f) < 4.0 * np.abs(fp)
    stepped = x - np.where(ok, f, 0.0) / np.where(ok, fp, 1.0)
    return np.where(np.abs(((stepped + a) * stepped + b) * stepped + c) < np.abs(f),
                    stepped, x)


def _pair_roots(s1, s0, scale, out: np.ndarray) -> None:
    """Write the roots of x^2 + s1 x + s0, times ``scale``, into the last
    axis (length 2) of the complex array ``out``, by the cancellation-free
    quadratic formula: real roots have imaginary part exactly +0.0 and a
    complex pair is re +- i im, so it is exactly conjugate."""
    disc = s1 * s1 - 4.0 * s0
    root_disc = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    big = -0.5 * (s1 + np.copysign(root_disc, s1))
    small = s0 / np.where(big == 0.0, np.inf, big)
    out.real[..., 0] = np.where(real, big, -0.5 * s1) * scale
    out.real[..., 1] = np.where(real, small, -0.5 * s1) * scale
    out.imag[..., 0] = np.where(real, 0.0, 0.5 * root_disc * scale)
    out.imag[..., 1] = np.where(real, 0.0, -0.5 * root_disc * scale)


def _cubic_seed(coeffs: np.ndarray) -> np.ndarray:
    """Closed-form roots of real cubics x^3 + a x^2 + b x + c.

    One real root x comes from :func:`_cubic_real_root`.  Dividing it out
    leaves x^2 + s1 x + s0, solved by :func:`_pair_roots`.  The division
    runs from the constant end (s0 = -c/x, s1 = (s0 - b)/x) when x is the
    largest root in modulus, |x|^3 > |c|, and from the leading end
    (s1 = a + x, s0 = b + x s1) otherwise: the stable order for each
    (Wilkinson, *Rounding Errors in Algebraic Processes*, 1963).  The
    leading end alone would lose the small pair next to a dominant root,
    as at r -> 0 and r >> 1 in the mode cubic.  The double root at 0 of
    r = 0 comes out exactly.  Rows are scaled by :func:`_monic_scaled`,
    which keeps a^3, R^2 and Q^3 in range.
    """
    (a, b, c), scale = _monic_scaled(coeffs)
    x = _cubic_real_root(a, b, c)
    back = np.abs(x) ** 3 > np.abs(c)
    x_back = np.where(back, x, 1.0)
    s0_back = -c / x_back
    s1 = np.where(back, (s0_back - b) / x_back, a + x)
    s0 = np.where(back, s0_back, b + x * s1)
    roots = np.zeros(x.shape + (3,), dtype=complex)
    roots.real[..., 0] = x * scale
    _pair_roots(s1, s0, scale, roots[..., 1:])
    return roots


def _column_min(x: np.ndarray) -> np.ndarray:
    """Minimum over the short last axis, kept as an axis of length 1 (a
    fold over the columns: ``min(axis=-1)`` on rows this short is slower)."""
    return functools.reduce(np.minimum, np.moveaxis(x, -1, 0))[..., None]


def _quartic_seed(coeffs: np.ndarray) -> np.ndarray:
    """Closed-form roots of real quartics x^4 + a x^3 + b x^2 + c x + d,
    after Orellana & De Michele (ACM TOMS 46(2), Algorithm 1010, 2020).

    The quartic is written (x^2 + l1 x + l3)^2 + d2 (x + l2)^2, the LDL^T
    form of its symmetric 3x3 matrix with the last pivot zero: l1 = a/2,
    l3 = b/6 + phi/2 and d2 = 2b/3 - phi - l1^2, with phi the dominant
    root of the resolvent cubic phi^3 + g phi + h.  phi does not change
    when x is shifted, so g and h are taken on the quartic shifted to an
    inflection point, where they suffer the least cancellation, and phi
    gets one guarded Newton step.  Of the two formulas for (d2, l2), the
    one that reproduces b, c and d best is kept.  With gamma = sqrt(-d2)
    the quartic is (x^2 + (l1 + gamma) x + l3 + gamma l2) times
    (x^2 + (l1 - gamma) x + l3 - gamma l2).  If d2 > 0 these two factors
    are complex conjugates, and the roots z1, z2 of the first give the
    real factors (x - z1)(x - conj z1) and (x - z2)(x - conj z2).  The
    smaller constant term is retaken as d over the larger, and each of
    the three expressions for the smaller linear term gives one candidate
    split; the split with d2 = 0, (x^2 + l1 x + l3)^2 - (l3^2 - d) as for
    a biquadratic, is a fourth.  Newton steps on the four factor
    coefficients refine every candidate of a row until one of them
    reproduces the quartic within rounding, each candidate stopping at
    its first step that does not reduce its error (the published cap of
    8 steps bounds the loop), and the candidate with the least error is
    kept.  Errors are relative to each coefficient, but never finer than
    the rounding of the products that form it, so that a coefficient far
    below them (a zero one included) cannot make a wrong split look best.
    Each factor is solved by :func:`_pair_roots`.  Rows are scaled by
    :func:`_monic_scaled`.
    """
    low, scale = _monic_scaled(coeffs)
    # a trailing axis of length 1, along which the candidate splits stack
    a, b, c, d = (x[..., None] for x in low)
    sizes = [np.maximum(np.abs(x), _TINY) for x in (a, b, c, d)]

    def misfit(a1, b1, a2, b2):
        # coefficients of (x^2 + a1 x + b1)(x^2 + a2 x + b2) minus the
        # quartic's, and their summed relative error; a coefficient below
        # the rounding of the products that form it is measured in units
        # of that rounding instead
        prods = (a1 * a2, a1 * b2, b1 * a2, b1 * b2)
        res = (a1 + a2 - a, b1 + prods[0] + b2 - b, prods[1] + prods[2] - c, prods[3] - d)
        terms = (np.abs(a1) + np.abs(a2), np.abs(b1) + np.abs(prods[0]) + np.abs(b2),
                 np.abs(prods[1]) + np.abs(prods[2]), np.abs(prods[3]))
        return res, sum(np.abs(r) / np.maximum(_EPS * t, s)
                        for r, t, s in zip(res, terms, sizes))

    def split_beta(b1, b2):
        # the smaller constant term is d over the larger
        keep = np.abs(b1) >= np.abs(b2)
        big = np.where(keep, b1, b2)
        small = d / np.where(big == 0.0, np.inf, big)
        return np.where(keep, b1, small), np.where(keep, small, b2)

    # the shift s to an inflection point, p''(s) = 0, when one is real
    disc_s = 9.0 * a * a - 24.0 * b
    real_s = disc_s > 0.0
    s = np.where(real_s, -2.0 * b / np.where(
        real_s, 3.0 * a + np.copysign(np.sqrt(np.abs(disc_s)), a), 1.0), -0.25 * a)
    sa = a + 4.0 * s
    sb = b + 3.0 * s * (a + 2.0 * s)
    sc = c + s * (2.0 * b + s * (3.0 * a + 4.0 * s))
    sd = d + s * (c + s * (b + s * (a + s)))
    sac = sa * sc
    sb3 = sb / 3.0
    phi = _cubic_real_root(0.0, sac - 4.0 * sd - sb * sb3,
                           (8.0 * sd + sac - 2.0 * sb3 * sb3) * sb3 - sc * sc - sa * sa * sd)
    l1 = 0.5 * a
    l3 = b / 6.0 + 0.5 * phi
    del2 = c - a * l3
    d3 = d - l3 * l3
    d2_1 = 2.0 * b / 3.0 - phi - l1 * l1
    l2_2 = 2.0 * d3 / np.where(del2 == 0.0, np.inf, del2)
    d2 = np.concatenate([d2_1, del2 / np.where(l2_2 == 0.0, np.inf, 2.0 * l2_2)], axis=-1)
    l2 = np.concatenate([del2 / np.where(d2_1 == 0.0, np.inf, 2.0 * d2_1), l2_2], axis=-1)
    l1l3 = l1 * l3
    d2l2 = d2 * l2
    d2l22 = d2l2 * l2
    ldlt_err = (np.abs(d2 + (l1 * l1 + 2.0 * l3 - b))
                / np.maximum(_EPS * (np.abs(d2) + l1 * l1 + 2.0 * np.abs(l3)), sizes[1])
                + np.abs(2.0 * (d2l2 + l1l3) - c)
                / np.maximum(2.0 * _EPS * (np.abs(d2l2) + np.abs(l1l3)), sizes[2])
                + np.abs(d2l22 + (l3 * l3 - d))
                / np.maximum(_EPS * (np.abs(d2l22) + l3 * l3), sizes[3]))
    second = ldlt_err[..., 1:] < ldlt_err[..., :1]
    d2 = np.where(second, d2[..., 1:], d2[..., :1])
    gamma = np.sqrt(np.abs(d2))
    gl = gamma * np.where(second, l2[..., 1:], l2[..., :1])
    a1, b1, a2, b2 = l1 + gamma, l3 + gl, l1 - gamma, l3 - gl
    conj = d2 > 0.0
    if conj.any():
        # roots z1, z2 of x^2 + (l1 + i gamma) x + l3 + i gamma l2, the
        # larger first (the root term taken along the linear term)
        lin = l1 + 1j * gamma
        root = np.sqrt(lin * lin - 4.0 * (l3 + 1j * gl))
        root = np.where(lin.real * root.real + lin.imag * root.imag < 0.0, -root, root)
        z1 = -0.5 * (lin + root)
        z2 = (l3 + 1j * gl) / np.where(z1 == 0.0, np.inf, z1)
        a1, a2 = np.where(conj, -2.0 * z1.real, a1), np.where(conj, -2.0 * z2.real, a2)
        b1 = np.where(conj, z1.real * z1.real + z1.imag * z1.imag, b1)
        b2 = np.where(conj, z2.real * z2.real + z2.imag * z2.imag, b2)
    b1, b2 = split_beta(b1, b2)
    # (big, big_b) is the factor with the larger linear term; the other
    # linear term has three expressions, and last comes the d2 = 0 split
    # (whose start the Newton steps need for near-biquadratics)
    swap = np.abs(a1) < np.abs(a2)
    big, big_b = np.where(swap, a2, a1), np.where(swap, b2, b1)
    small_b = np.where(swap, b1, b2)
    root_d3 = np.sqrt(np.maximum(-d3, 0.0))
    flat_b1, flat_b2 = split_beta(l3 + root_d3, l3 - root_d3)
    cands = (np.concatenate([big, big, big, l1], axis=-1),
             np.concatenate([big_b, big_b, big_b, flat_b1], axis=-1),
             np.concatenate([a - big,
                             (c - big * small_b) / np.where(big_b == 0.0, np.inf, big_b),
                             (b - big_b - small_b) / np.where(big == 0.0, np.inf, big),
                             l1], axis=-1),
             np.concatenate([small_b, small_b, small_b, flat_b2], axis=-1))
    a1, b1, a2, b2 = cands
    err = misfit(*cands)[1]
    # a row is done once one of its candidates is within rounding
    live = _column_min(err) > _SPLIT_RTOL
    for _ in range(8):
        if not live.any():
            break
        # a step through a near-singular Jacobian may overflow; it cannot
        # reduce the error, so it is dropped like any other such step
        with np.errstate(over="ignore", invalid="ignore"):
            # the Jacobian of the coefficients in (a1, b1, a2, b2), solved
            # by Cramer's rule; its determinant is the resultant of the
            # two factors
            f_a, f_b, f_c, f_d = misfit(a1, b1, a2, b2)[0]
            da = a2 - a1
            db = b2 - b1
            cross = b1 * a2 - b2 * a1
            det = da * cross + db * db
            live = live & (det != 0.0)
            inv = 1.0 / np.where(live, det, 1.0)
            g_b = f_b - a1 * f_a
            g_c = f_c - b1 * f_a
            mix = da * g_c - db * g_b
            step_a1 = (g_b * cross + db * g_c - da * f_d) * inv
            new = (a1 - step_a1,
                   b1 - (b1 * mix - f_d * (da * a1 - db)) * inv,
                   a2 - (f_a - step_a1),
                   b2 - (f_d * (da * a2 - db) - b2 * mix) * inv)
            new_err = misfit(*new)[1]
            live &= new_err < err
            a1, b1, a2, b2 = (np.where(live, x, y) for x, y in zip(new, (a1, b1, a2, b2)))
            err = np.where(live, new_err, err)
            live &= _column_min(err) > _SPLIT_RTOL
    pick = np.argmin(err, axis=-1) + np.arange(0, err.size, 4).reshape(err.shape[:-1])
    a1, b1, a2, b2 = (x.reshape(-1)[pick][..., None] for x in (a1, b1, a2, b2))
    roots = np.empty(scale.shape + (2, 2), dtype=complex)
    _pair_roots(np.concatenate([a1, a2], axis=-1), np.concatenate([b1, b2], axis=-1),
                scale[..., None], roots)
    return roots.reshape(scale.shape + (4,))


def _polyval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of per-row polynomials of degree >= 1 at per-row
    points, in place on one accumulator."""
    acc = coeffs[..., 0, None] * z
    acc += coeffs[..., 1, None]
    for k in range(2, coeffs.shape[-1]):
        acc *= z
        acc += coeffs[..., k, None]
    return acc


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    deg = coeffs.shape[-1] - 1
    powers = np.arange(deg, 0, -1, dtype=float)
    return coeffs[..., :-1] * powers


def _newton_polish(coeffs: np.ndarray,
                   roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One guarded Newton step per root; keeps the step only if the residual
    does not grow and the derivative is not collapsing (near-multiple
    roots).  Returns the kept roots and the polynomial's values at them."""
    p = _polyval_many(coeffs, roots)
    deriv = _polyder(coeffs)
    dp = _polyval_many(deriv, roots)
    dscale = _polyval_many(np.abs(deriv), np.abs(roots))
    safe = np.abs(dp) > 1e-8 * np.maximum(dscale, 1e-300)
    step = np.where(safe, p / np.where(safe, dp, 1.0), 0.0)
    polished = roots - step
    p_polished = _polyval_many(coeffs, polished)
    better = np.abs(p_polished) <= np.abs(p)
    return np.where(better, polished, roots), np.where(better, p_polished, p)


def _sorted_rows(roots: np.ndarray, *values: np.ndarray) -> tuple:
    """Rows of roots sorted by (real, imag), and each of ``values``
    permuted with them.  A bubble-sort network of compare-exchanges of
    neighbours ((0, 1), (1, 2), (0, 1) for three roots) swaps only a
    strictly greater pair, so ties keep their order as in a stable sort."""
    cols = [list(np.moveaxis(x, -1, 0)) for x in (roots, *values)]
    for top in range(len(cols[0]) - 1, 0, -1):
        for i in range(top):
            lo, hi = cols[0][i], cols[0][i + 1]
            swap = (lo.real > hi.real) | ((lo.real == hi.real) & (lo.imag > hi.imag))
            for col in cols:
                col[i], col[i + 1] = (np.where(swap, col[i + 1], col[i]),
                                      np.where(swap, col[i], col[i + 1]))
    return tuple(np.stack(col, axis=-1) for col in cols)


def _min_separation_rel(roots: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Smallest pairwise root distance relative to max(1, |root|) of the
    pair; ``mags`` are the moduli |roots|."""
    deg = roots.shape[-1]
    return functools.reduce(np.minimum, (
        np.abs(roots[..., i] - roots[..., j])
        / np.maximum(1.0, np.maximum(mags[..., i], mags[..., j]))
        for i, j in itertools.combinations(range(deg), 2)))


def _disc_terms_cubic(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The discriminant and the sum of the moduli of its five terms, each
    summed left to right."""
    a, b, c, d = (coeffs[..., k] for k in range(4))
    terms = (18.0 * a * b * c * d,
             -4.0 * b ** 3 * d,
             b ** 2 * c ** 2,
             -4.0 * a * c ** 3,
             -27.0 * a ** 2 * d ** 2)
    return (functools.reduce(np.add, terms),
            functools.reduce(np.add, (np.abs(x) for x in terms)))


def _disc_terms_quartic(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b, c, d, e = (coeffs[..., k] for k in range(5))
    # the power products the sixteen terms share, each formed once
    ae, ac, bd, ce = a * e, a * c, b * d, c * e
    b2, c2, d2 = b * b, c * c, d * d
    ae2, ad2, b2e, bd2 = ae * ae, a * d2, b2 * e, bd * bd
    terms = np.stack([
        256.0 * ae2 * ae,
        -192.0 * ae2 * bd,
        -128.0 * ae2 * c2,
        144.0 * ae * ac * d2,
        -27.0 * ad2 * ad2,
        144.0 * ae * b2 * ce,
        -6.0 * ae * b2 * d2,
        -80.0 * ae * bd * c2,
        18.0 * ac * bd * d2,
        16.0 * ae * c2 * c2,
        -4.0 * ac * c2 * d2,
        -27.0 * b2e * b2e,
        18.0 * b2 * bd * ce,
        -4.0 * bd2 * bd,
        -4.0 * b2e * c2 * c,
        bd2 * c2,
    ], axis=-1)
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def solve_polynomial_batch(coeffs: np.ndarray):
    """Solve many real polynomials at once; the one entry point of the solver.

    Parameters
    ----------
    coeffs:
        Array (..., deg+1) of descending real coefficients with nonzero
        leading entries, deg 3 or 4.  Every row is its own polynomial, so
        rows built from per-row (gamma, tau, r) by :func:`cubic_coefficients`
        or :func:`quartic_coefficients` are solved in one call.  Cubic and
        quartic rows take their closed-form seeds (:func:`_cubic_seed`,
        :func:`_quartic_seed`), each followed by one Newton polish; every
        step works on each row alone, so a row comes out bit-identical to
        a single-row call.

    Returns
    -------
    roots, residuals, scales, flags:
        ``roots`` complex, sorted by (Re, Im); ``residuals`` the values
        |p(root)|; ``scales`` the absolute-monomial sums used to normalise
        the residual bound; ``flags`` (...,) marks rows whose roots are
        (near-)multiple, by a relative separation below
        ``MULTIPLICITY_RTOL`` or a scaled discriminant below ``DISC_RTOL``.
        Callers route flagged rows to the time-domain oracle.

    Pairing is exact (see the module docstring), so no threshold snaps
    roots with tiny imaginary parts onto the real axis: a pair within
    1e-12 |z| of the axis is closer than ``MULTIPLICITY_RTOL``, so its row
    is flagged.
    """
    cubic = coeffs.shape[-1] == 4
    roots, p = _newton_polish(
        coeffs, _cubic_seed(coeffs) if cubic else _quartic_seed(coeffs))
    roots, p = _sorted_rows(roots, p)
    residuals = np.abs(p)
    mags = np.abs(roots)
    scales = np.maximum(1.0, _polyval_many(np.abs(coeffs), mags))
    disc_terms = _disc_terms_cubic if cubic else _disc_terms_quartic
    # the terms are products of 4 (cubic) or 6 (quartic) coefficients and
    # overflow at large r; a power-of-two row scale keeps them in range and
    # scales every product and sum exactly, so |disc| / disc_scale stays
    # (a fold over the columns: max(axis=-1) on rows this short is slower)
    row_max = functools.reduce(np.maximum, np.moveaxis(np.abs(coeffs), -1, 0))
    row_scale = np.ldexp(1.0, -np.frexp(row_max)[1])[..., None]
    disc, disc_scale = disc_terms(coeffs * row_scale)
    flags = ((_min_separation_rel(roots, mags) < MULTIPLICITY_RTOL)
             | (np.abs(disc) <= DISC_RTOL * disc_scale))
    return roots, residuals, scales, flags


def cubic_char_roots_batch(params: ModelParams, r: np.ndarray):
    """Vectorised cubic solve: returns (roots (B,3), residuals, scales, flags)."""
    return solve_polynomial_batch(cubic_coefficients(params.gamma, r))


def quartic_char_roots_batch(params: ModelParams, r: np.ndarray):
    """Vectorised quartic solve: returns (roots (B,4), residuals, scales, flags)."""
    return solve_polynomial_batch(quartic_coefficients(params.gamma, params.require_tau(), r))


def _one_row(solve, params: ModelParams, r: float) -> RootSet:
    if r < 0:
        raise DomainError(f"radial frequency must be >= 0, got {r}")
    roots, residuals, _, flags = solve(params, [r])
    return RootSet(float(r), roots[0], residuals[0], bool(flags[0]))


def cubic_char_roots(params: ModelParams, r: float) -> RootSet:
    """Exact roots of the second-order-model cubic at frequency ``r``.

    Raises
    ------
    DomainError
        If ``r`` is negative.
    InvalidParameterError
        If the coefficients are non-finite.
    """
    return _one_row(cubic_char_roots_batch, params, r)


def quartic_char_roots(params: ModelParams, r: float) -> RootSet:
    """Exact roots of the relaxed-model quartic at frequency ``r``."""
    return _one_row(quartic_char_roots_batch, params, r)


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def cubic_discriminant(params: ModelParams, r) -> float | np.ndarray:
    """Discriminant of the mode cubic (positive: three distinct real roots;
    negative: one real root plus a conjugate pair).

    Computed from the generic resultant-based formula
    18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27 a^2 d^2.
    """
    disc, _ = _disc_terms_cubic(cubic_coefficients(params.gamma, r))
    return disc if np.ndim(r) else float(disc)


def _discriminant_cubic_in_x(g: float) -> tuple[float, float, float, float]:
    """Coefficients, highest first, of the cubic discriminant over r^2 as
    a polynomial in x = r^2."""
    return (g * g - 2.0 * g + 5.0,
            -2.0 * (g ** 3 + g ** 2 - g + 11.0),
            g ** 4 + 8.0 * g ** 3 - 14.0 * g ** 2 + 36.0 * g - 27.0,
            -4.0 * g ** 3 * (g - 1.0))


def cubic_discriminant_expanded(params: ModelParams, r) -> float | np.ndarray:
    """Discriminant written as r^2 times a cubic polynomial in r^2.

    Independent cross-check for :func:`cubic_discriminant`; also the form
    used to locate coalescence radii.
    """
    a, b, c, d = _discriminant_cubic_in_x(params.gamma)
    r = np.asarray(r, dtype=float)
    x = r * r
    out = x * (a * x ** 3 + b * x ** 2 + c * x + d)
    return out if out.ndim else float(out)


def discriminant_zero_radii(params: ModelParams) -> np.ndarray:
    """Positive radii where the cubic discriminant vanishes (sorted)."""
    x = np.roots(_discriminant_cubic_in_x(params.gamma))
    x = x[np.abs(x.imag) < 1e-9 * np.maximum(1.0, np.abs(x.real))].real
    x = x[x > 0]
    return np.sort(np.sqrt(x))


# ---------------------------------------------------------------------------
# printed asymptotic truncations
# ---------------------------------------------------------------------------

def asymptotic_roots(params: ModelParams, r: float, zone: str, equation: str,
                     eps_cut: float = DEFAULT_EPS_CUT,
                     n_cut: float = DEFAULT_N_CUT) -> RootSet:
    """Truncated low/high-frequency root expansions (printed orders only).

    ``zone`` is ``"small"`` (requires r < eps_cut) or ``"large"``
    (requires r > n_cut); ``equation`` is ``"vdw"`` (cubic) or ``"mgt"``
    (quartic).  The returned set is marked ``approximate``.
    """
    if zone not in ("small", "large"):
        raise DomainError(f"unknown zone {zone!r}")
    if equation not in ("vdw", "mgt"):
        raise DomainError(f"unknown equation {equation!r}")
    if zone == "small" and not 0 <= r < eps_cut:
        raise DomainError(f"small-zone expansion needs r < {eps_cut}, got {r}")
    if zone == "large" and not r > n_cut:
        raise DomainError(f"large-zone expansion needs r > {n_cut}, got {r}")

    g = params.gamma
    gt = params.gamma_tilde
    if equation == "vdw":
        if zone == "small":
            pair_re = -params.parabolic_decay * r * r
            roots = [complex(pair_re, gt * r), complex(pair_re, -gt * r),
                     complex(-g + r * r / (g * g))]
        else:
            root_disc = np.sqrt((1.0 + g) ** 2 - 4.0 * (g - 1.0))
            roots = [complex(-(1.0 + g + root_disc) / 2.0),
                     complex(-(1.0 + g - root_disc) / 2.0),
                     complex(-r * r + 1.0)]
        coeffs = cubic_coefficients(g, r)
    else:
        tau = params.require_tau()
        if zone == "small":
            pair_re = -((1.0 - tau) * g * g + tau * g + 1.0) / (2.0 * g * g) * r * r
            roots = [complex(pair_re, gt * r), complex(pair_re, -gt * r),
                     complex(-1.0 / tau), complex(-g)]
        else:
            root_disc = np.sqrt((1.0 + g) ** 2 - 4.0 * (g - 1.0))
            pair_re = -(1.0 - tau) / (2.0 * tau)
            s = np.sqrt(1.0 / tau)
            roots = [complex(-(1.0 + g + root_disc) / 2.0),
                     complex(-(1.0 + g - root_disc) / 2.0),
                     complex(pair_re, s * r), complex(pair_re, -s * r)]
        coeffs = quartic_coefficients(g, tau, r)
    (roots,) = _sorted_rows(np.asarray(roots, dtype=complex))
    residuals = np.abs(_polyval_many(coeffs[None, :], roots[None, :]))[0]
    return RootSet(float(r), roots, residuals, False, approximate=True)


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------

def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))))


def track_branches(sets: list[RootSet]) -> list[RootSet]:
    """Reorder roots node by node so each branch is continuous in ``r``.

    Nearest-neighbour matching against the previous node over all
    permutations (3 or 4 roots, so brute force is exact).  Nodes where two
    permutations tie within a relative tolerance are marked
    ``ambiguous_match`` and resolved by the canonical (Re, Im) order.
    """
    if not sets:
        return []
    if any(sets[i].r > sets[i + 1].r for i in range(len(sets) - 1)):
        raise DomainError("root sets must be sorted by increasing r")
    deg = len(sets[0].roots)
    perms = _permutations(deg)
    out = [RootSet(sets[0].r, sets[0].roots.copy(), sets[0].residuals.copy(),
                   sets[0].multiplicity_flag, sets[0].approximate)]
    prev = out[0]
    for cur in sets[1:]:
        costs = np.array([
            np.abs(cur.roots[p] - prev.roots).sum() for p in perms])
        best = int(np.argmin(costs))
        scale = max(1.0, float(np.abs(cur.roots).max()))
        ties = np.where(costs <= costs[best] + 1e-9 * scale)[0]
        ambiguous = ties.size > 1
        if ambiguous:
            best = int(ties.min())  # permutations listed in lexicographic order
        p = perms[best]
        prev = RootSet(cur.r, cur.roots[p], cur.residuals[p],
                       cur.multiplicity_flag, cur.approximate,
                       ambiguous_match=ambiguous)
        out.append(prev)
    return out

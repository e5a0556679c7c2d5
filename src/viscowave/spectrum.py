"""Characteristic roots of the mode polynomials.

Removing the memory convolution with the operator (d/dt + gamma) turns the
damped wave mode at radial frequency ``r`` into a third-order ODE whose
characteristic cubic is

    lambda^3 + (r^2 + gamma) lambda^2 + (1 + gamma) r^2 lambda
        + (gamma - 1) r^2 = 0,

and the thermally relaxed model into a fourth-order ODE with quartic

    tau mu^4 + (1 + tau gamma) mu^3 + (r^2 + gamma) mu^2
        + (1 + gamma) r^2 mu + (gamma - 1) r^2 = 0.

Cubic roots come in closed form: one real root from the trigonometric or
Cardano formula (Press et al., *Numerical Recipes*, §5.6), refined by a
real Newton step, and the other two from the quadratic left after dividing
it out, divided from whichever end of the cubic is stable.  Quartic roots
are the eigenvalues of the real companion matrix, a backward-stable route
(Edelman & Murakami, Math. Comp. 64, 1995).  One guarded Newton polish
follows either, which keeps a uniform residual bound across frequency
zones without case analysis.  Exact conjugate pairing needs no clean-up
pass: the cubic seed writes a complex pair as ``re +- i im`` and LAPACK
returns the eigenvalues of a real matrix in exactly conjugate pairs, both
with real roots carrying imaginary part ``+0.0``, and the Newton step
preserves this because IEEE complex arithmetic commutes with conjugation.

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

def _companion_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the real companion matrices of monic-normalised rows
    (``eigvals`` returns a float array when all of them are real)."""
    monic = coeffs / coeffs[..., :1]
    deg = monic.shape[-1] - 1
    comp = np.zeros(monic.shape[:-1] + (deg, deg))
    idx = np.arange(deg - 1)
    comp[..., idx + 1, idx] = 1.0
    comp[..., 0, :] = -monic[..., 1:]
    return np.linalg.eigvals(comp).astype(complex)


def _cubic_seed(coeffs: np.ndarray) -> np.ndarray:
    """Closed-form roots of real cubics x^3 + a x^2 + b x + c.

    One real root x comes from the trigonometric form when all three roots
    are real (the larger in modulus of the lowest and the highest) and from
    Cardano's form otherwise (Press et al., *Numerical Recipes*, §5.6),
    refined by one guarded real Newton step.  Dividing it out leaves
    x^2 + s1 x + s0, solved by the cancellation-free quadratic formula.
    The division runs from the constant end (s0 = -c/x, s1 = (s0 - b)/x)
    when x is the largest root in modulus, |x|^3 > |c|, and from the
    leading end (s1 = a + x, s0 = b + x s1) otherwise: the stable order for
    each (Wilkinson, *Rounding Errors in Algebraic Processes*, 1963).  The
    leading end alone would lose the small pair next to a dominant root,
    as at r -> 0 and r >> 1 in the mode cubic.  A complex pair is written
    re +- i im, so it is exactly conjugate and real roots have imaginary
    part exactly zero; the double root at 0 of r = 0 comes out exactly.
    Rows are scaled by a power of two, which is exact, so that a^3, R^2
    and Q^3 stay in range.
    """
    lead = coeffs[..., 0]
    a, b, c = (coeffs[..., k] / lead for k in (1, 2, 3))
    k = np.frexp(np.maximum(np.maximum(np.abs(a), np.sqrt(np.abs(b))),
                            np.cbrt(np.abs(c))))[1]
    a, b, c = np.ldexp(a, -k), np.ldexp(b, -2 * k), np.ldexp(c, -3 * k)
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
    # every root of the scaled cubic lies within 2 of the origin, so a
    # longer step is no use (and could overflow)
    ok = np.abs(f) < 4.0 * np.abs(fp)
    stepped = x - np.where(ok, f, 0.0) / np.where(ok, fp, 1.0)
    x = np.where(np.abs(((stepped + a) * stepped + b) * stepped + c) < np.abs(f),
                 stepped, x)
    back = np.abs(x) ** 3 > np.abs(c)
    x_back = np.where(back, x, 1.0)
    s0_back = -c / x_back
    s1 = np.where(back, (s0_back - b) / x_back, a + x)
    s0 = np.where(back, s0_back, b + x * s1)
    disc = s1 * s1 - 4.0 * s0
    root_disc = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    big = -0.5 * (s1 + np.copysign(root_disc, s1))
    small = s0 / np.where(big == 0.0, np.inf, big)
    scale = np.ldexp(1.0, k)
    roots = np.zeros(x.shape + (3,), dtype=complex)
    roots.real[..., 0] = x * scale
    roots.real[..., 1] = np.where(real, big, -0.5 * s1) * scale
    roots.real[..., 2] = np.where(real, small, -0.5 * s1) * scale
    roots.imag[..., 1] = np.where(real, 0.0, 0.5 * root_disc * scale)
    roots.imag[..., 2] = np.where(real, 0.0, -0.5 * root_disc * scale)
    return roots


def _polyval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of per-row polynomials at per-row points."""
    acc = np.zeros_like(z)
    for k in range(coeffs.shape[-1]):
        acc = acc * z + coeffs[..., k, None]
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


def _canonical_order(roots: np.ndarray) -> np.ndarray:
    """Indices that sort each row of roots by (real, imag)."""
    return np.lexsort((roots.imag, roots.real), axis=-1)


def _min_separation_rel(roots: np.ndarray) -> np.ndarray:
    """Smallest pairwise root distance relative to max(1, |root|)."""
    diff = np.abs(roots[..., :, None] - roots[..., None, :])
    scale = np.maximum(1.0, np.maximum(
        np.abs(roots)[..., :, None], np.abs(roots)[..., None, :]))
    rel = diff / scale
    deg = roots.shape[-1]
    iu = np.triu_indices(deg, k=1)
    return rel[..., iu[0], iu[1]].min(axis=-1)


def _disc_terms_cubic(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b, c, d = (coeffs[..., k] for k in range(4))
    terms = np.stack([
        18.0 * a * b * c * d,
        -4.0 * b ** 3 * d,
        b ** 2 * c ** 2,
        -4.0 * a * c ** 3,
        -27.0 * a ** 2 * d ** 2,
    ], axis=-1)
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def _disc_terms_quartic(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b, c, d, e = (coeffs[..., k] for k in range(5))
    terms = np.stack([
        256.0 * a ** 3 * e ** 3,
        -192.0 * a ** 2 * b * d * e ** 2,
        -128.0 * a ** 2 * c ** 2 * e ** 2,
        144.0 * a ** 2 * c * d ** 2 * e,
        -27.0 * a ** 2 * d ** 4,
        144.0 * a * b ** 2 * c * e ** 2,
        -6.0 * a * b ** 2 * d ** 2 * e,
        -80.0 * a * b * c ** 2 * d * e,
        18.0 * a * b * c * d ** 3,
        16.0 * a * c ** 4 * e,
        -4.0 * a * c ** 3 * d ** 2,
        -27.0 * b ** 4 * e ** 2,
        18.0 * b ** 3 * c * d * e,
        -4.0 * b ** 3 * d ** 3,
        -4.0 * b ** 2 * c ** 3 * e,
        b ** 2 * c ** 2 * d ** 2,
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
        or :func:`quartic_coefficients` are solved in one call.  Cubic rows
        take the closed-form seed, quartic rows the LAPACK companion
        eigenvalues, each followed by one Newton polish; every step works
        on each row alone, so a row comes out bit-identical to a
        single-row call.

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
        coeffs, _cubic_seed(coeffs) if cubic else _companion_eigvals(coeffs))
    order = _canonical_order(roots)
    roots = np.take_along_axis(roots, order, axis=-1)
    residuals = np.abs(np.take_along_axis(p, order, axis=-1))
    scales = np.maximum(1.0, _polyval_many(np.abs(coeffs), np.abs(roots)))
    disc_terms = _disc_terms_cubic if cubic else _disc_terms_quartic
    # the terms are products of 4 (cubic) or 6 (quartic) coefficients and
    # overflow at large r; a power-of-two row scale keeps them in range and
    # scales every product and sum exactly, so |disc| / disc_scale stays
    # (a fold over the columns: max(axis=-1) on rows this short is slower)
    row_max = functools.reduce(np.maximum, np.moveaxis(np.abs(coeffs), -1, 0))
    row_scale = np.ldexp(1.0, -np.frexp(row_max)[1])[..., None]
    disc, disc_scale = disc_terms(coeffs * row_scale)
    flags = ((_min_separation_rel(roots) < MULTIPLICITY_RTOL)
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
    roots = np.asarray(roots, dtype=complex)
    roots = roots[_canonical_order(roots)]
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

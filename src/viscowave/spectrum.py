"""Characteristic roots of the mode polynomials.

Removing the memory convolution with the operator (d/dt + gamma) turns the
damped wave mode at radial frequency ``r`` into a third-order ODE whose
characteristic cubic is

    lambda^3 + (r^2 + gamma) lambda^2 + (1 + gamma) r^2 lambda
        + (gamma - 1) r^2 = 0,

and the thermally relaxed model into a fourth-order ODE with quartic

    tau mu^4 + (1 + tau gamma) mu^3 + (r^2 + gamma) mu^2
        + (1 + gamma) r^2 mu + (gamma - 1) r^2 = 0.

Roots are computed as the eigenvalues of the real companion matrix followed
by a single Newton polish, which keeps a uniform residual bound across
frequency zones without case analysis; the companion route is backward
stable (Edelman & Murakami, Math. Comp. 64, 1995).  Exact conjugate pairing
needs no clean-up pass: LAPACK returns the eigenvalues of a real matrix in
exactly conjugate pairs, with real eigenvalues carrying imaginary part
``+0.0``, and the Newton step preserves both because IEEE complex arithmetic
commutes with conjugation.

:func:`solve_polynomial_batch` is the one solve entry point.  The
coefficient builders take gamma and tau values that broadcast against the
radii, so modes that each carry their own (gamma, tau, r), as in the random
cross-checks, are solved as one batch; the ``*_char_roots`` functions are
thin wrappers for one shared parameter set.  Printed low/high-frequency
truncations are available separately through :func:`asymptotic_roots`.
"""

from __future__ import annotations

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


@dataclass
class FrequencyGrid:
    """Sorted radial nodes with quadrature weights and zone boundaries."""

    nodes: np.ndarray
    weights: np.ndarray
    eps_cut: float = DEFAULT_EPS_CUT
    n_cut: float = DEFAULT_N_CUT

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size == 0:
            raise InvalidParameterError("grid nodes must be a non-empty 1-d array")
        if np.any(np.diff(self.nodes) <= 0) or self.nodes[0] < 0:
            raise InvalidParameterError("grid nodes must be strictly increasing and >= 0")
        if self.weights.shape != self.nodes.shape or np.any(self.weights <= 0):
            raise InvalidParameterError("grid weights must be positive, one per node")
        if not 0 < self.eps_cut < self.n_cut:
            raise InvalidParameterError("need 0 < eps_cut < n_cut")

    @classmethod
    def composite_gauss(cls, r_min, r_max, panels, order=8,
                        eps_cut=DEFAULT_EPS_CUT, n_cut=DEFAULT_N_CUT) -> "FrequencyGrid":
        """Composite Gauss-Legendre nodes/weights on [r_min, r_max].

        Interior Gauss nodes never touch panel edges, so r = 0 and exact
        zone boundaries are avoided automatically.
        """
        x, w = np.polynomial.legendre.leggauss(order)
        edges = np.linspace(r_min, r_max, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return cls(nodes, weights, eps_cut, n_cut)


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


def _evaluation_scale(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sum of absolute monomials |a_k| |z|^(deg-k); the natural backward-error
    denominator for a residual test."""
    az = np.abs(z)
    acc = np.zeros_like(az)
    for k in range(coeffs.shape[-1]):
        acc = acc * az + np.abs(coeffs[..., k, None])
    return acc


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One guarded Newton step per root; keeps the step only if the residual
    shrinks and the derivative is not collapsing (near-multiple roots)."""
    p = _polyval_many(coeffs, roots)
    dp = _polyval_many(_polyder(coeffs), roots)
    dscale = _evaluation_scale(_polyder(coeffs), roots)
    safe = np.abs(dp) > 1e-8 * np.maximum(dscale, 1e-300)
    step = np.where(safe, p / np.where(safe, dp, 1.0), 0.0)
    polished = roots - step
    better = np.abs(_polyval_many(coeffs, polished)) <= np.abs(p)
    return np.where(better, polished, roots)


def _canonical_sort(roots: np.ndarray) -> np.ndarray:
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


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
        or :func:`quartic_coefficients` are solved in one call; LAPACK
        solves each companion matrix on its own, so a row comes out
        bit-identical to a single-row call.

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
    roots = _canonical_sort(_newton_polish(coeffs, _companion_eigvals(coeffs)))
    residuals = np.abs(_polyval_many(coeffs, roots))
    scales = np.maximum(1.0, _evaluation_scale(coeffs, roots))
    disc_terms = _disc_terms_cubic if coeffs.shape[-1] == 4 else _disc_terms_quartic
    disc, disc_scale = disc_terms(coeffs)
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
    roots = _canonical_sort(np.asarray(roots, dtype=complex)[None, :])[0]
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

"""Helpers shared by several test modules."""

import mpmath
import numpy as np

from viscowave.experiments import _mgt_tables
from viscowave.spectrum import quartic_char_roots_batch


def _quartic_discriminant(gamma, tau, r):
    """Discriminant of the relaxed-model quartic tau x^4 + (1 + tau gamma) x^3
    + (r^2 + gamma) x^2 + (1 + gamma) r^2 x + (gamma - 1) r^2, in the
    textbook sixteen-term form, written apart from the package's: numpy
    arguments give doubles, mpmath numbers the working precision."""
    a, b, c = tau, 1 + tau * gamma, r * r + gamma
    d, e = (1 + gamma) * r * r, (gamma - 1) * r * r
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
            + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
            + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e
            + b**2 * c**2 * d**2)


def quartic_coalescence_radii(p):
    """Radii in [1e-3, 1e2] where the quartic discriminant changes sign, each
    the last double before the crossing.  A double-precision scan brackets
    the crossings, and a bisection on the 50-digit mpmath discriminant ends
    each one, so the radii do not move with the package's own sum."""
    grid = np.geomspace(1e-3, 1e2, 4001)
    signs = np.sign(_quartic_discriminant(p.gamma, p.tau, grid))
    radii = []
    with mpmath.workdps(50):
        def sign(r):
            return mpmath.sign(_quartic_discriminant(
                mpmath.mpf(p.gamma), mpmath.mpf(p.tau), mpmath.mpf(r)))

        for k in np.where(signs[:-1] != signs[1:])[0]:
            lo, hi = grid[k], grid[k + 1]
            left = sign(lo)
            assert left == signs[k] and sign(hi) == signs[k + 1], (lo, hi)
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if sign(mid) == left:
                    lo = mid
                else:
                    hi = mid
                mid = 0.5 * (lo + hi)
            radii.append(lo)
    return np.array(radii)


def solved_mgt_tables(p, r, t, *data, step=None):
    """:func:`experiments._mgt_tables` after a quartic solve at the tau of
    ``p`` alone on the radii ``r``."""
    roots, _, _, flags = quartic_char_roots_batch(p, r)
    return _mgt_tables(p, r, roots, flags, t, *data, step=step)

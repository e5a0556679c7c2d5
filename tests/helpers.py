"""Helpers shared by several test modules."""

import numpy as np

from viscowave.experiments import _mgt_tables
from viscowave.spectrum import (_disc_terms_quartic, quartic_char_roots_batch,
                                quartic_coefficients)


def quartic_coalescence_radii(p):
    """Radii in [1e-3, 1e2] where the quartic discriminant changes sign,
    bisected to the last representable step."""
    def disc(r):
        return _disc_terms_quartic(np.moveaxis(quartic_coefficients(p.gamma, p.tau, r), -1, 0))[0]

    grid = np.geomspace(1e-3, 1e2, 4001)
    signs = np.sign(disc(grid))
    radii = []
    for k in np.where(signs[:-1] != signs[1:])[0]:
        lo, hi = grid[k], grid[k + 1]
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if np.sign(disc(mid)) == signs[k]:
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

"""Closed-form Fourier-space mode solutions and leading profiles.

With pairwise-distinct characteristic roots ``lambda_j`` both models have
mode solutions ``sum_j a_j exp(lambda_j t)`` over the three roots of the
memory-only cubic or the four of the relaxed quartic.  The amplitudes solve
the Vandermonde system ``sum_j a_j lambda_j^m = d_m`` (m < deg), whose last
datum each equation fixes at t = 0 (where the memory integral vanishes):

    u2_hat = -r^2 (u0_hat + u1_hat),
    v3_hat = -(v2_hat + r^2 (u0_hat + u1_hat)) / tau,

so the kernels K0, K1 are the amplitudes for the data (1, 0, -r^2) and
(0, 1, -r^2).  One closed-form Vandermonde inverse serves both degrees
(Gautschi, Numer. Math. 4, 1962): a_j is the data paired with the
coefficients of ``prod_{k != j} (x - lambda_k)``, over the root-gap product
``prod_{k != j} (lambda_j - lambda_k)``.  There is no conditioning guard: a
tiny tau spreads the roots and drives the matrix condition number past 1e14,
yet the formula stays accurate to rounding there; only small gaps hurt it.
Rows the root solver flags as (near-)multiple raise
:class:`~viscowave.errors.NearDegenerateError`, and callers fall back to
:mod:`viscowave.oracle` (no confluent formulas here).

Mode tables on a uniform grid ``k h`` are evaluated in blocks: each cell is
``exp(lambda i h)`` at its block start times ``exp(lambda k h)`` for its
offset, both taken directly, so a table costs T/16 + 16 exponentials per
node and root instead of T.  The product of two rounded exponentials
carries about twice the rounding of one; there is no running product
whose error would grow along the grid.  This stepped route is real: it
returns the real part of each sum, which is the whole sum for real data
(the roots and amplitudes then come in conjugate pairs), so the basis
methods that take a step refuse complex data with a
:class:`~viscowave.errors.DomainError`.

Every complex product over a batch of nodes with a temporary operand is
written through ``out=``.  When both operands have one shape and pass
256 KiB, numpy would otherwise reuse the temporary in place with the
operands swapped, and a complex product rounds differently swapped, so a
node's values would depend on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearDegenerateError
from .params import ModelParams
from .spectrum import (DEFAULT_EPS_CUT, cubic_char_roots_batch,
                       quartic_char_roots_batch)

#: times per block of the stepped table route of :func:`_mode_sums`
BLOCK = 16


@dataclass
class KernelPair:
    """Kernel values (and their time derivatives) at one frequency.

    Fields are complex scalars for scalar ``t`` and arrays for array ``t``.
    At t = 0: k0 = 1, k1 = 0, dk0 = 0, dk1 = 1.
    """

    k0: np.ndarray
    k1: np.ndarray
    dk0: np.ndarray
    dk1: np.ndarray


@dataclass
class ModeState:
    """Complex mode values at one frequency and time."""

    u: complex
    ut: complex
    utt: complex
    z: complex


@dataclass
class ProfilePair:
    """Leading low-frequency profiles multiplying the data moments."""

    j0: np.ndarray
    j1: np.ndarray


# ---------------------------------------------------------------------------
# batched mode machinery
# ---------------------------------------------------------------------------

def _amplitudes(roots: np.ndarray, data: tuple, flags: np.ndarray) -> np.ndarray:
    """Solve ``sum_j a_j lambda_j^m = data[m]`` (m < deg) in closed form.

    ``roots`` is (B, deg).  ``data`` holds deg arrays broadcasting to
    (..., B), the first with all leading axes; the amplitudes are
    (..., B, deg).  The other roots of component j are the cyclic shifts
    of the root rows, so one loop builds the ascending coefficients of
    ``prod_{k != j} (x - lambda_k)`` for every j.  The work runs on (deg, B)
    arrays, so the elementwise loops run along B.  Flagged rows get unit
    gaps: finite values that callers discard.
    """
    deg = roots.shape[-1]
    lam = np.ascontiguousarray(roots.T)
    poly, gap = [1.0], 1.0
    for s in range(1, deg):
        other = np.roll(lam, -s, axis=0)
        gap = np.multiply(gap, lam - other, out=np.empty_like(lam))
        poly = ([np.multiply(other, -poly[0], out=np.empty_like(lam))]
                + [poly[m - 1] - other * poly[m] for m in range(1, s)]
                + [poly[-1]])
    amp = data[0][..., None, :] * poly[0]
    for m in range(1, deg):
        amp += data[m][..., None, :] * poly[m]
    amp /= np.where(flags, 1.0, gap)
    return np.ascontiguousarray(np.swapaxes(amp, -1, -2))


def _mode_sums(amp: np.ndarray, roots: np.ndarray, t, step=None):
    """(u, u_t, u_tt) = sum_j amp_j lambda_j^p exp(lambda_j t), p = 0, 1, 2.

    ``amp`` and ``roots`` are (B, deg) or (deg,); results have shape
    ``t.shape + roots.shape[:-1]``.  The sums run one root column at a
    time: ``amp_j exp(lambda_j t)`` is one (T, B) table, added to u, then
    scaled by lambda_j in place and added to u_t, then again for u_tt, so
    no (T, B, deg) product is formed.

    A caller whose 1-d ``t`` is the uniform grid ``k * step`` (k < T) passes
    ``step``, and the tables are evaluated in blocks of ``BLOCK`` times:
    ``amp_j lambda_j^p exp(lambda_j i h)`` at the block starts i = 0, BLOCK,
    2 BLOCK, ... times the powers ``exp(lambda_j k h)``, k < BLOCK, summed
    over the roots in one contraction.  That takes (T/BLOCK + BLOCK)
    exponentials per node and root instead of T.  Each cell is the product
    of two correctly rounded exponentials, where the direct route has one,
    so its rounding is about twice as large; no cell carries a running
    product, so the error does not grow along the grid.  The stepped
    tables are real: they hold the real part of each sum, which is the
    whole sum when the amplitudes come from real data, and callers pass
    real data only.  They are C-contiguous, writable views of one real
    (3, blocks * BLOCK, B) array.
    """
    t = np.asarray(t, dtype=float)
    if step is not None:
        return _blocked_mode_sums(amp, roots, t.size, step)
    u = ut = utt = 0.0
    for lam, a in zip(np.moveaxis(roots, -1, 0), np.moveaxis(amp, -1, 0)):
        term = np.asarray(np.exp(np.multiply.outer(t, lam)))
        np.multiply(a, term, out=term)
        u = u + term
        term *= lam
        ut = ut + term
        term *= lam
        utt = utt + term
    return u, ut, utt


def _blocked_mode_sums(amp: np.ndarray, roots: np.ndarray, count: int, step: float):
    """The stepped route of :func:`_mode_sums` on the grid ``k * step``,
    k < ``count``: real tables Re sum_j amp_j lambda_j^p exp(lambda_j k h).
    The block shrinks to ``count`` on a shorter grid.

    Re(c f) = Re c Re f - Im c Im f, so the coarse factors are viewed as
    interleaved (Re, -Im) pairs and the fine ones as (Re, Im) pairs, and one
    real product per node, over its 2 deg pair entries, writes the tables
    through a transposed view.
    """
    size = min(BLOCK, count)
    blocks = -(-count // size)
    shape, deg = roots.shape[:-1], roots.shape[-1]
    roots, amp = roots.reshape(-1, deg), amp.reshape(-1, deg)
    nodes = roots.shape[0]
    coarse = np.empty((3, blocks, nodes, deg), dtype=complex)
    starts = np.arange(0, blocks * size, size) * step
    np.multiply(amp, np.exp(np.multiply.outer(starts, roots)), out=coarse[0])
    np.multiply(coarse[0], roots, out=coarse[1])
    np.multiply(coarse[1], roots, out=coarse[2])
    coarse = coarse.view(float)
    coarse[..., 1::2] *= -1.0
    fine = np.exp(np.multiply.outer(np.arange(size) * step, roots)).view(float)
    tables = np.empty((3, blocks * size, nodes))
    np.matmul(coarse.reshape(3 * blocks, nodes, 2 * deg).transpose(1, 0, 2),
              fine.transpose(1, 2, 0),
              out=tables.reshape(3 * blocks, size, nodes).transpose(2, 0, 1))
    return tuple(tables.reshape((3, blocks * size) + shape)[:, :count])


def _check_stepped(step, real: bool) -> None:
    """The stepped route keeps only the real part of each sum, so it takes
    real data only."""
    if step is not None and not real:
        raise DomainError("the stepped table route takes real data only")


@dataclass
class VdwKernelBasis:
    """Per-node kernel component amplitudes for a batch of frequencies."""

    r: np.ndarray       # (B,)
    roots: np.ndarray   # (B, 3)
    coef0: np.ndarray   # (B, 3)
    coef1: np.ndarray   # (B, 3)
    flags: np.ndarray   # (B,) near-degenerate markers

    def eval(self, t) -> KernelPair:
        """Kernels at time(s) ``t``; shape (B,) or (T, B)."""
        k0, dk0, _ = _mode_sums(self.coef0, self.roots, t)
        k1, dk1, _ = _mode_sums(self.coef1, self.roots, t)
        return KernelPair(k0=k0, k1=k1, dk0=dk0, dk1=dk1)

    def mode_tables(self, t, u0vals, u1vals, step=None):
        """(u, ut, utt) tables for data values on the node batch; ``step``
        as in :func:`_mode_sums`, for real data only."""
        _check_stepped(step, not (np.iscomplexobj(u0vals) or np.iscomplexobj(u1vals)))
        amp = self.coef0 * np.asarray(u0vals, dtype=complex)[:, None] \
            + self.coef1 * np.asarray(u1vals, dtype=complex)[:, None]
        return _mode_sums(amp, self.roots, t, step)


def _vdw_basis(r: np.ndarray, roots: np.ndarray, flags: np.ndarray) -> VdwKernelBasis:
    """Kernel amplitudes from solved cubic roots (B, 3) on the nodes ``r``."""
    unit = np.array([[1.0], [0.0]])         # data (1, 0, -r^2) and (0, 1, -r^2)
    coef0, coef1 = _amplitudes(roots, (unit, unit[::-1], -r * r), flags)
    return VdwKernelBasis(r=r, roots=roots, coef0=coef0, coef1=coef1, flags=flags)


def vdw_kernel_basis(params: ModelParams, r) -> VdwKernelBasis:
    """Solve the cubic on a node batch and form kernel amplitudes."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    roots, _, _, flags = cubic_char_roots_batch(params, r)
    return _vdw_basis(r, roots, flags)


@dataclass
class MgtModeBasis:
    """Mode amplitudes of the relaxed model for fixed data values."""

    r: np.ndarray       # (B,)
    roots: np.ndarray   # (B, 4)
    amp: np.ndarray     # (B, 4)
    flags: np.ndarray   # (B,)
    real: bool          # the amplitudes come from real data

    def eval(self, t, step=None):
        """(v, vt, vtt) at time(s) ``t``; shape (B,) or (T, B); ``step`` as
        in :func:`_mode_sums`, for a basis of real data only."""
        _check_stepped(step, self.real)
        return _mode_sums(self.amp, self.roots, t, step)


def _mgt_basis(tau, r: np.ndarray, roots: np.ndarray, flags: np.ndarray,
               u0vals, u1vals, v2vals) -> MgtModeBasis:
    """Mode amplitudes from solved quartic roots (B, 4) on the nodes ``r``;
    ``tau`` is a scalar or one value per node."""
    real = not any(np.iscomplexobj(d) for d in (u0vals, u1vals, v2vals))
    u0vals, u1vals, v2vals = (np.broadcast_to(np.asarray(d, dtype=complex), r.shape)
                              for d in (u0vals, u1vals, v2vals))
    v3vals = -(v2vals + r * r * (u0vals + u1vals)) / tau
    amp = _amplitudes(roots, (u0vals, u1vals, v2vals, v3vals), flags)
    return MgtModeBasis(r=r, roots=roots, amp=amp, flags=flags, real=real)


def mgt_mode_basis(params: ModelParams, r, u0vals, u1vals, v2vals) -> MgtModeBasis:
    """Quartic solve plus closed-form Vandermonde amplitudes for given data."""
    tau = params.require_tau()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    roots, _, _, flags = quartic_char_roots_batch(params, r)
    return _mgt_basis(tau, r, roots, flags, u0vals, u1vals, v2vals)


# ---------------------------------------------------------------------------
# scalar-frequency API
# ---------------------------------------------------------------------------

def _check_distinct(basis) -> None:
    """Reject the one node of ``basis`` when its roots are (near-)multiple."""
    if basis.flags[0]:
        raise NearDegenerateError(
            f"near-multiple roots at r={basis.r[0]}; evaluate via the ode oracle")


def vdw_kernels(params: ModelParams, r: float, t) -> KernelPair:
    """Kernels of the second-order model at one frequency.

    Raises
    ------
    NearDegenerateError
        If the roots at ``r`` are (near-)multiple; use the time-domain
        oracle there instead.
    """
    _check_time(t)
    basis = vdw_kernel_basis(params, np.array([r]))
    _check_distinct(basis)
    pair = basis.eval(t)
    return KernelPair(k0=pair.k0[..., 0], k1=pair.k1[..., 0],
                      dk0=pair.dk0[..., 0], dk1=pair.dk1[..., 0])


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):        # NaN fails both
        raise DomainError("time must be finite and >= 0")


def _expm1_over_x(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1)/x for complex x, 1 at x = 0."""
    x = np.asarray(x, dtype=complex)
    zero = x == 0
    return np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))


def _memory_weights(roots: np.ndarray, gamma: float, t) -> np.ndarray:
    """Per-component factors (exp(lambda t) - exp(-gamma t))/(lambda + gamma)
    of the memory variable z = g * u.

    ``t`` may be scalar or 1-d; the result broadcasts as (..., deg).  Small
    (lambda + gamma) t is routed through a cancellation-free form so the
    lambda -> -gamma limit (t exp(-gamma t)) is exact.
    """
    t = np.asarray(t, dtype=float)
    lamg = roots + gamma
    x = np.multiply.outer(t, lamg)                    # (..., deg)
    near = np.abs(x) < 1.0
    e_gam = np.exp(-gamma * t)
    direct = (np.exp(np.multiply.outer(t, roots)) - e_gam[..., None]) \
        / np.where(near, 1.0, lamg)
    stable = (e_gam[..., None] * t[..., None] if t.ndim else e_gam * t) \
        * _expm1_over_x(np.where(near, x, 0.0))
    return np.where(near, stable, direct)


def _mode_state(basis, amp: np.ndarray, gamma: float, t) -> ModeState:
    """(u, u_t, u_tt, z) at the one node of ``basis``, amplitudes ``amp``."""
    _check_distinct(basis)
    roots = basis.roots[0]
    u, ut, utt = _mode_sums(amp, roots, t)
    z = (amp * _memory_weights(roots, gamma, t)).sum(axis=-1)
    return ModeState(u=u, ut=ut, utt=utt, z=z)


def vdw_mode_solution(params: ModelParams, r: float, t, u0hat, u1hat) -> ModeState:
    """Mode solution (u, u_t, u_tt, z) of the second-order model.

    The frequency r = 0 is handled in closed form (the mode equation
    degenerates to u'' = 0 there); other near-degenerate frequencies raise
    :class:`NearDegenerateError`.
    """
    _check_time(t)
    g = params.gamma
    t_arr = np.asarray(t, dtype=float)
    if r == 0.0:
        decay = -np.expm1(-g * t_arr)  # 1 - exp(-gamma t)
        u = u0hat + u1hat * t_arr
        z = u0hat * decay / g + u1hat * (t_arr / g - decay / (g * g))
        return ModeState(u=u, ut=u1hat * np.ones_like(t_arr) if t_arr.ndim else u1hat,
                         utt=np.zeros_like(t_arr) if t_arr.ndim else 0.0, z=z)
    basis = vdw_kernel_basis(params, np.array([r]))
    amp = basis.coef0[0] * u0hat + basis.coef1[0] * u1hat
    return _mode_state(basis, amp, g, t_arr)


def mgt_mode_solution(params: ModelParams, r: float, t, u0hat, u1hat,
                      v2hat) -> ModeState:
    """Mode solution (v, v_t, v_tt, z) of the relaxed model."""
    _check_time(t)
    basis = mgt_mode_basis(params, np.array([r]), [u0hat], [u1hat], [v2hat])
    return _mode_state(basis, basis.amp[0], params.gamma, t)


# ---------------------------------------------------------------------------
# leading low-frequency profiles
# ---------------------------------------------------------------------------

def leading_profiles(params: ModelParams, r, t,
                     eps_cut: float = DEFAULT_EPS_CUT) -> ProfilePair:
    """Leading diffusion-wave profiles on the low-frequency zone.

    Closed real cos/sin form; equals the sum of the two oscillatory branch
    truncations, along exp(+i gamma_tilde r t) and its conjugate, identically
    (``tests/test_kernels.py`` checks that against the branch terms).  The sin
    numerator of the second profile is ``2 gamma^3 - (gamma^2 - 2 gamma + 3) r^2``;
    a commonly quoted variant with ``(gamma-3)(gamma+1)`` breaks that identity.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= eps_cut):
        raise DomainError(f"profiles are defined on 0 <= r < {eps_cut}")
    _check_time(t)
    t = np.asarray(t, dtype=float)
    g = params.gamma
    gt = params.gamma_tilde
    theta = gt * r * t
    damp = np.exp(-params.parabolic_decay * r * r * t)
    r2 = r * r
    den0 = 2.0 * g ** 3 + 2.0 * (g - 1.0) * r2
    j0 = ((2.0 * g ** 3 - (g - 1.0) ** 2 * r2) * np.cos(theta)
          + g * (g + 1.0) * np.sqrt(g * (g - 1.0)) * r * np.sin(theta)) / den0 * damp
    # sin(theta)/r, continuous at r = 0 with value gamma_tilde * t
    sin_over_r = gt * t * np.sinc(theta / np.pi)
    j1 = ((g * g + 1.0) * r2 / (2.0 * g ** 4 + 2.0 * g * (g - 1.0) * r2) * np.cos(theta)
          + (2.0 * g ** 3 - (g * g - 2.0 * g + 3.0) * r2)
          / (2.0 * g ** 3 * gt + 2.0 * (g - 1.0) * gt * r2) * sin_over_r) * damp
    return ProfilePair(j0=j0 + 0j, j1=j1 + 0j)


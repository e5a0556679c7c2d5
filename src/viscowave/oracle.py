"""Brute-force time integration of the per-frequency mode systems.

This is the independent validation route for :mod:`viscowave.kernels` and
the fallback at (near-)degenerate frequencies.  The memory convolution
``z = g * u`` with ``g(t) = exp(-gamma t)`` is reduced exactly to the extra
state equation ``z' = u - gamma z``, so every mode is a linear autonomous
system ``y' = A y``:

second order (3 complex states u, u', z):

    u'' = -r^2 u - r^2 u' + r^2 z

relaxed third order (4 complex states u, u', u'', z):

    tau u''' = -u'' - r^2 u - r^2 u' + r^2 z

One builder forms the generator of either system (the second-order one
when no tau is given) and integrates it with the classical fixed-step
fourth-order Runge-Kutta scheme.  On a linear autonomous system one step of
length h is exactly

    y <- P(hA) y,    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,

the scheme's stability function (Hairer & Wanner, Solving ODEs II, IV.2),
so n equal steps are the matrix power ``P(hA)^n``: the same numbers as a
stepped loop, up to rounding, with no eigendecomposition and no use of the
root solver.  One call makes one power per distinct substep count, stacked
over that count's distinct interval lengths, casts it to complex once and
writes every step into the path in place.  Each interval of exactly one
length reuses that length's propagator, so a uniform output grid costs one
power and a path is bit-identical to the chain of its one-interval calls.
The step is tied to the stiffness scale max(gamma, r^2, 1/tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StabilityError
from .params import ModelParams

#: |h * lambda| limit for the classical scheme (real-axis bound ~= 2.78)
STABILITY_LIMIT = 2.5
#: default step safety factor relative to the stiffness scale
DEFAULT_STEP_FACTOR = 0.2
#: default step ceiling
DEFAULT_STEP_MAX = 0.1


@dataclass
class ModeTrajectory:
    """Sampled mode states along an integration.

    ``u``/``ut``/``utt``/``z`` have shape (len(t),) for a single mode or
    (len(t), B) for a batch.
    """

    t: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    z: np.ndarray


def _stiffness(gamma, r, tau=None):
    """Elementwise stiffness scale max(gamma, r^2, 1/tau); ``tau=None`` is
    the second-order model."""
    scale = np.maximum(gamma, np.multiply(r, r))
    return scale if tau is None else np.maximum(scale, 1.0 / np.asarray(tau))


def stiffness_scale(params: ModelParams, r: float) -> float:
    return float(_stiffness(params.gamma, r, params.tau))


def default_step(params: ModelParams, r: float) -> float:
    return min(DEFAULT_STEP_MAX, DEFAULT_STEP_FACTOR / stiffness_scale(params, r))


def _check_step(step: float, scale: float):
    if not step > 0:
        raise StabilityError(f"step must be positive, got {step}")
    if not np.isfinite(scale):
        raise StabilityError(f"stiffness scale must be finite, got {scale}")
    if step * scale > STABILITY_LIMIT:
        raise StabilityError(
            f"step {step} exceeds the stability bound {STABILITY_LIMIT / scale:.3e} "
            f"for stiffness scale {scale:.3e}")


def _rk4_path(a: np.ndarray, y0: np.ndarray, t_eval: np.ndarray,
              step: float) -> np.ndarray:
    """Classical RK4 of ``y' = A y`` from 0 through every output time.

    ``a`` stacks the generators, shape (..., n, n), and ``y0`` the start
    states, shape (..., n); the path has shape (len(t_eval), ..., n).
    Each output interval is subdivided into an integer number of equal
    steps no larger than ``step``, so sample points are hit exactly, and
    advanced by one power of ``P(hA)``.  That power depends on the
    interval length alone: one power per distinct substep count, stacked
    over its interval lengths; complex propagators, cast once; steps
    written into the path, a zero-length interval copying the state.  A
    stacked power rounds each matrix as a lone one does, so the path is
    bit-identical to chaining one-interval calls.
    """
    eye = np.eye(a.shape[-1])
    dts = np.diff(t_eval, prepend=0.0).tolist()
    groups = {}
    for dt in dict.fromkeys(d for d in dts if d > 0):
        groups.setdefault(max(1, int(np.ceil(dt / step - 1e-12))), []).append(dt)
    powers = {}
    for n_sub, lengths in groups.items():
        ha = np.multiply.outer(np.divide(lengths, n_sub), a)
        p = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
        powers.update(zip(lengths, np.linalg.matrix_power(p, n_sub).astype(complex)))
    path = np.empty((len(dts),) + y0.shape + (1,), dtype=complex)
    y = y0[..., None]
    for dt, out in zip(dts, path):
        if dt > 0:
            np.matmul(powers[dt], y, out=out)
        else:
            out[...] = y
        y = out
    return path[..., 0]


def _prepare_times(t_eval):
    t_eval = np.asarray(t_eval, dtype=float)
    if (t_eval.ndim != 1 or t_eval.size == 0 or not np.isfinite(t_eval).all()
            or (np.diff(t_eval) < 0).any() or t_eval[0] < 0):
        raise InvalidParameterError(
            "t_eval must be a nonempty 1-d array of finite, sorted, nonnegative times")
    return t_eval


def _path(gamma, tau, r, t_eval, data, step) -> ModeTrajectory:
    """Modes of any batch shape (0-d for a single mode) from the start
    ``data``: the second-order states (u, u', z) when ``tau`` is None, else
    the relaxed states (u, u', u'', z)."""
    names = ("gamma", "r") if tau is None else ("gamma", "r", "tau")
    values = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                   for x in (gamma, r, tau)[:len(names)]))
    finite = np.isfinite(values).reshape(len(names), -1).all(axis=1)
    if not finite.all():
        raise InvalidParameterError(f"{names[finite.argmin()]} must be finite")
    gamma, r = values[:2]
    if tau is not None:
        tau = values[2]
        if (tau <= 0).any():
            raise InvalidParameterError("tau must be positive")
    _check_step(step, float(_stiffness(gamma, r, tau).max()))
    r2, n = r * r, len(names) + 1
    a = np.zeros(r.shape + (n, n))
    a[..., 0, 1] = a[..., -1, 0] = 1.0
    a[..., -1, -1] = -gamma
    if tau is None:
        a[..., 1, 0] = a[..., 1, 1] = -r2
        a[..., 1, 2] = r2
    else:
        a[..., 1, 2] = 1.0
        a[..., 2, 0] = a[..., 2, 1] = -r2 / tau
        a[..., 2, 2] = -1.0 / tau
        a[..., 2, 3] = r2 / tau
    y0 = np.stack(np.broadcast_arrays(*(np.asarray(d, dtype=complex) for d in data),
                                      np.zeros(r.shape, dtype=complex)), axis=-1)
    path = _rk4_path(a, y0, t_eval, step)
    u, ut, z = path[..., 0], path[..., 1], path[..., -1]
    # the second-order u'' is reconstructed from the mode equation
    utt = -r2 * (u + ut) + r2 * z if tau is None else path[..., 2]
    return ModeTrajectory(t=t_eval, u=u, ut=ut, utt=utt, z=z)


def integrate_vdw_mode(params: ModelParams, r: float, t_eval, u0hat=1.0,
                       u1hat=0.0, step: float | None = None) -> ModeTrajectory:
    """Integrate one second-order mode; returns the trajectory sampled at
    the sorted nonnegative times ``t_eval``.

    ``u''`` is reconstructed from the mode equation so the trajectory
    carries the full state used by comparisons.
    """
    t_eval = _prepare_times(t_eval)
    if step is None:
        step = default_step(params.without_tau(), r)
    return _path(params.gamma, None, r, t_eval, (u0hat, u1hat), step)


def integrate_mgt_mode(params: ModelParams, r: float, t_eval, u0hat=1.0, u1hat=0.0,
                       v2hat=0.0, step: float | None = None) -> ModeTrajectory:
    """Integrate one relaxed third-order mode at the times ``t_eval``."""
    tau = params.require_tau()
    t_eval = _prepare_times(t_eval)
    if step is None:
        step = default_step(params, r)
    return _path(params.gamma, tau, r, t_eval, (u0hat, u1hat, v2hat), step)


def integrate_vdw_many(gamma: np.ndarray, r: np.ndarray, t_eval,
                       u0hat, u1hat, step: float) -> ModeTrajectory:
    """Vectorised second-order integration over a batch of modes.

    All modes share the output grid and the step, which must satisfy the
    strictest stability bound in the batch.
    """
    return _path(gamma, None, r, _prepare_times(t_eval), (u0hat, u1hat), step)


def integrate_mgt_many(gamma: np.ndarray, tau: np.ndarray, r: np.ndarray, t_eval,
                       u0hat, u1hat, v2hat, step: float) -> ModeTrajectory:
    """Vectorised relaxed-model integration over a batch of modes."""
    return _path(gamma, tau, r, _prepare_times(t_eval), (u0hat, u1hat, v2hat), step)

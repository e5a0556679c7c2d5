"""End-to-end harnesses: decay rates, profiles, optimality, envelopes and
thermal-relaxation convergence.

Every quantity lives in Fourier space; L2 norms of physical fields are
radial Plancherel integrals of mode tables built from the closed-form
kernels (with a time-domain fallback at flagged frequencies).  Rate
exponents are estimated by least squares on log-log series over a fit
window and compared against the predicted piecewise exponents.

Relaxation sweeps fit the energy of the model difference against tau on
the supremum over the sampled time interval (including t = 0): the energy
bound is uniform in time, and the initial-layer share tau * ||w2||^2 of
the budget is only visible near t = 0 (it decays like exp(-t/tau), so any
fixed probe past the transient sees the tau^2 remainder instead).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DomainError, InsufficientDataError,
                     InvalidParameterError, PreconditionError, RefinementError)
# kept for bench/tracing.py, which wraps *_mode_solution and quartic_char_roots_batch
from .kernels import (_amplitudes, _mode_sums, leading_profiles, mgt_mode_basis,
                      mgt_mode_solution, vdw_kernel_basis, vdw_mode_solution)
from .oracle import (default_step, integrate_mgt_many, integrate_mgt_mode,
                     integrate_vdw_many, integrate_vdw_mode)
from .params import ModelParams
from .quadrature import DataSpectrum, l2_norm_radial, rate_function, \
    sphere_area
from .spectrum import (FrequencyGrid, cubic_char_roots_batch, cubic_coefficients,
                       quartic_char_roots_batch, quartic_coefficients,
                       solve_polynomial_batch)

#: spec-pinned default fit window for time-decay experiments
DECAY_FIT_WINDOW = (1e2, 1e4)
#: later window for zone-restricted kernel-norm fits (see quadrature docs)
KERNEL_NORM_FIT_WINDOW = (1e4, 1e6)
#: default window for profile-error fits (delayed onset, same reason)
PROFILE_ERROR_FIT_WINDOW = (1e3, 1e5)


def thread_map(fn, items):
    """Order-preserving map with a worker count capped by VISCOWAVE_THREADS."""
    items = list(items)
    raw = os.environ.get("VISCOWAVE_THREADS", "").strip()
    try:
        workers = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(
            f"VISCOWAVE_THREADS must be an integer, got {raw!r}") from None
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    params: ModelParams
    n: int = 3
    s: float = 0.0
    u0: DataSpectrum = field(default_factory=DataSpectrum.zero)
    u1: DataSpectrum = field(default_factory=DataSpectrum.gaussian)
    v2: DataSpectrum | str | None = None       # spectrum or "consistent"
    t_grid: np.ndarray = field(default_factory=lambda: np.geomspace(50.0, 1.2e4, 28))
    r_grid: FrequencyGrid | None = None
    tau_list: np.ndarray | None = None
    fit_window: tuple[float, float] = DECAY_FIT_WINDOW
    #: window for the profile-error fit; the subtracted difference carries
    #: extra frequency powers, so its zone-restricted norm enters the
    #: asymptotic regime roughly a decade later than the solution norm
    error_fit_window: tuple[float, float] = PROFILE_ERROR_FIT_WINDOW
    probe_time: float = 10.0
    history_points: int = 200
    solver: str = "kernel"                      # kernel | kernel-grid | oracle
    rel_tol: float = 1e-9

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        if np.any(np.diff(self.t_grid) <= 0):
            raise InvalidParameterError("t_grid must be strictly increasing")
        lo, hi = self.fit_window
        if not (self.t_grid[0] <= lo < hi <= self.t_grid[-1] * (1 + 1e-12)):
            if self.tau_list is None:
                raise InvalidParameterError(
                    "fit_window must lie inside the t_grid span")
        if self.tau_list is not None:
            self.tau_list = np.asarray(self.tau_list, dtype=float)
            if np.any((self.tau_list <= 0) | (self.tau_list >= 1)):
                raise InvalidParameterError("every tau must lie in (0, 1)")
        if int(self.n) != self.n or self.n < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.n}")
        if self.solver not in ("kernel", "kernel-grid", "oracle"):
            raise InvalidParameterError(f"unknown solver {self.solver!r}")
        if self.r_grid is None:
            r_max = max(self.u0.tail_radius(), self.u1.tail_radius())
            if isinstance(self.v2, DataSpectrum):
                r_max = max(r_max, self.v2.tail_radius())
            self.r_grid = FrequencyGrid.composite_gauss(0.0, r_max, panels=48, order=8)

    def v2_values(self, r: np.ndarray) -> np.ndarray:
        """Resolve the second datum of the relaxed model on nodes ``r``."""
        u0v = self.u0(r)
        u1v = self.u1(r)
        if self.v2 == "consistent":
            return -r * r * (u0v + u1v)
        if isinstance(self.v2, DataSpectrum):
            return self.v2(r) + 0j
        if self.v2 is None:
            return np.zeros_like(r, dtype=complex)
        raise InvalidParameterError(f"cannot interpret v2={self.v2!r}")


@dataclass
class RateFit:
    """Log-log least-squares line over a window (natural logs)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def rate_fit(x, y, window) -> RateFit:
    """Fit log y against log x on the points falling inside ``window``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = window
    mask = (x >= lo) & (x <= hi)
    if mask.sum() < 5:
        raise InsufficientDataError(
            f"need >= 5 points in window [{lo}, {hi}], found {int(mask.sum())}")
    if np.any(x[mask] <= 0) or np.any(y[mask] <= 0):
        raise DomainError("log-log fit needs positive x and y")
    lx, ly = np.log(x[mask]), np.log(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=float(r2), window=(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# predicted exponents
# ---------------------------------------------------------------------------

@dataclass
class RatePrediction:
    """Slowest predicted term of a norm estimate.

    ``exponent`` is the power of t; ``log_half`` marks the (ln(e+t))^(1/2)
    branch, in which case ``exponent`` is 0 and fits should deflate the
    log factor first.  ``sharp`` records whether the data saturates the
    dominating term (moment-carrying data, or spectra vanishing exactly
    linearly at the origin when moments vanish); otherwise the exponent
    is only an upper bound on the norm and the observed slope may be more
    negative.
    """

    exponent: float
    log_half: bool = False
    sharp: bool = True


def predicted_decay(s: float, n: int, moment0: float, moment1: float,
                    which: str, u0_present: bool = True,
                    u1_present: bool = True, u0_linear: bool = False,
                    u1_linear: bool = False) -> RatePrediction:
    """Slowest-decaying term of the norm estimate for ``u`` or ``ut``.

    Bulk-norm terms enter only for data that is actually nonzero; moment
    terms additionally require a nonvanishing spectrum at the origin.
    ``u*_linear`` marks spectra vanishing exactly linearly at the origin,
    which saturate their bulk terms when the moments vanish.
    """
    terms: list[RatePrediction] = []
    if which == "u":
        if u0_present:
            terms.append(RatePrediction(-(s + 1) / 2 - n / 4, sharp=u0_linear))
            if moment0 != 0.0:
                terms.append(RatePrediction(-s / 2 - n / 4))
        if u1_present:
            terms.append(RatePrediction(-s / 2 - n / 4, sharp=u1_linear))
            if moment1 != 0.0:
                q = 2 * s + n
                if q < 2.0 - 1e-12:
                    terms.append(RatePrediction(1 - s - n / 2))
                elif abs(q - 2.0) <= 1e-12:
                    terms.append(RatePrediction(0.0, log_half=True))
                elif q < 3.0 - 1e-12:
                    terms.append(RatePrediction(1 - 5 * s / 6 - 5 * n / 12))
                else:
                    terms.append(RatePrediction(0.5 - s / 2 - n / 4))
    elif which == "ut":
        if u0_present:
            terms.append(RatePrediction(-(s + 2) / 2 - n / 4, sharp=u0_linear))
            if moment0 != 0.0:
                terms.append(RatePrediction(-(s + 1) / 2 - n / 4))
        if u1_present:
            terms.append(RatePrediction(-(s + 1) / 2 - n / 4, sharp=u1_linear))
            if moment1 != 0.0:
                terms.append(RatePrediction(-s / 2 - n / 4))
    else:
        raise DomainError(f"which must be 'u' or 'ut', got {which!r}")
    if not terms:
        return RatePrediction(-math.inf)
    return max(terms, key=lambda p: (p.exponent, p.log_half, p.sharp))


# ---------------------------------------------------------------------------
# mode tables with degenerate-node fallback
# (a quarter of the default oracle step keeps coalescence-radius modes within
# 1e-6 of the closed form to t = 1e4; the full step is off by up to 2.2e-6)
# ---------------------------------------------------------------------------

def _vdw_tables(params: ModelParams, r: np.ndarray, t_grid: np.ndarray,
                u0v: np.ndarray, u1v: np.ndarray):
    """(u, ut, utt) tables of shape (T, B); flagged nodes go through the
    time-domain oracle."""
    params = params.without_tau()
    basis = vdw_kernel_basis(params, r)
    u, ut, utt = basis.mode_tables(t_grid, u0v, u1v)
    for k in np.where(basis.flags)[0]:
        traj = integrate_vdw_mode(params, float(r[k]), t_eval=t_grid, u0hat=u0v[k],
                                  u1hat=u1v[k], step=default_step(params, r[k]) / 4)
        u[..., k], ut[..., k], utt[..., k] = traj.u, traj.ut, traj.utt
    return u, ut, utt


def _mgt_tables(params: ModelParams, r: np.ndarray, t_grid: np.ndarray,
                u0v: np.ndarray, u1v: np.ndarray, v2v: np.ndarray):
    basis = mgt_mode_basis(params, r, u0v, u1v, v2v)
    v, vt, vtt = basis.eval(t_grid)
    for k in np.where(basis.flags)[0]:
        traj = integrate_mgt_mode(params, float(r[k]), t_eval=t_grid,
                                  u0hat=u0v[k], u1hat=u1v[k], v2hat=v2v[k],
                                  step=default_step(params, r[k]) / 4)
        v[..., k], vt[..., k], vtt[..., k] = traj.u, traj.ut, traj.utt
    return v, vt, vtt


def _field_factory(config: ExperimentConfig, t: float):
    """Vectorised r -> stacked (u, ut) mode rows at time t, shape (2, B)
    (mode tables, oracle fallback)."""
    params, u0, u1 = config.params, config.u0, config.u1

    def field(r):
        u, ut, _ = _vdw_tables(params, r, [t], u0(r), u1(r))
        return np.concatenate((u, ut))

    return field


def _osc_segments(config: ExperimentConfig, t: float):
    """Panel-width caps for the oscillatory low-frequency region at time t.

    Beyond the radius where exp(-2c r^2 t) has reached ~1e-22 the mode
    amplitudes are negligible and aliasing cannot contribute, so the caps
    stop there (a dead panel and its halves all evaluate to ~0).
    """
    params = config.params
    omega = params.gamma_tilde * max(t, 1.0)
    eps = config.r_grid.eps_cut
    n_cut = config.r_grid.n_cut
    alive = math.sqrt(50.0 / (2.0 * params.parabolic_decay * max(t, 1.0)))
    segs = [(0.0, min(eps, 1.3 * alive), math.pi / max(omega, math.pi / eps))]
    if alive > eps:
        segs.append((eps, min(alive, n_cut), 2.0 * math.pi / omega))
    return segs


def solution_norm(config: ExperimentConfig, t: float) -> np.ndarray:
    """(|| |D|^s u(t) ||, || |D|^s u_t(t) ||) over all frequencies.

    One adaptive pass integrates both: they share nodes, root solves and
    mode tables, and a panel is accepted only when both have converged.
    """
    f = _field_factory(config, t)
    r_max = max(config.u0.tail_radius(), config.u1.tail_radius())
    return l2_norm_radial(
        f, n=config.n, s=config.s, zone_filter="all",
        eps_cut=config.r_grid.eps_cut, n_cut=config.r_grid.n_cut,
        r_max=r_max, rel_tol=config.rel_tol,
        cap_segments=_osc_segments(config, t))


def _grid_norm_series(config: ExperimentConfig) -> np.ndarray:
    """(u, ut) norm series, shape (2, T), on the fixed frequency grid from
    one kernel table or one oracle batch."""
    grid = config.r_grid
    r = grid.nodes
    u0v, u1v = config.u0(r) + 0j, config.u1(r) + 0j
    params = config.params.without_tau()
    if config.solver == "oracle":
        step = min(default_step(params, float(r.max())), 0.05)
        traj = integrate_vdw_many(np.full(r.shape, params.gamma), r,
                                  config.t_grid, u0v, u1v, step)
        tables = np.stack((traj.u, traj.ut))
    else:
        tables = np.stack(_vdw_tables(params, r, config.t_grid, u0v, u1v)[:2])
    w = sphere_area(config.n) * grid.weights * r ** (2 * config.s + config.n - 1)
    return np.sqrt((np.abs(tables) ** 2 * w).sum(axis=-1))


# ---------------------------------------------------------------------------
# decay / profile / optimality
# ---------------------------------------------------------------------------

@dataclass
class DecayResult:
    t: np.ndarray
    u_norms: np.ndarray
    ut_norms: np.ndarray
    fit_u: RateFit
    fit_ut: RateFit
    predicted_u: RatePrediction
    predicted_ut: RatePrediction
    #: fit of u-norm with the sqrt-log factor divided out (log branch only)
    fit_u_deflated: RateFit | None = None
    #: spread max/min of u-norm / (ln(e+t))^(1/2) on the window (log branch)
    log_ratio_spread: float | None = None


def decay_experiment(config: ExperimentConfig) -> DecayResult:
    """Time-decay slopes of the solution and velocity norms."""
    if config.solver == "kernel":
        u_norms, ut_norms = np.array(thread_map(
            lambda t: solution_norm(config, t), config.t_grid)).T
    else:
        u_norms, ut_norms = _grid_norm_series(config)
    pred_u = predicted_decay(config.s, config.n, config.u0.moment,
                             config.u1.moment, "u",
                             u0_present=not config.u0.is_zero,
                             u1_present=not config.u1.is_zero,
                             u0_linear=config.u0.kind == "linear_gaussian",
                             u1_linear=config.u1.kind == "linear_gaussian")
    pred_ut = predicted_decay(config.s, config.n, config.u0.moment,
                              config.u1.moment, "ut",
                              u0_present=not config.u0.is_zero,
                              u1_present=not config.u1.is_zero,
                              u0_linear=config.u0.kind == "linear_gaussian",
                              u1_linear=config.u1.kind == "linear_gaussian")
    fit_u = rate_fit(config.t_grid, u_norms, config.fit_window)
    fit_ut = rate_fit(config.t_grid, ut_norms, config.fit_window)
    fit_defl = None
    spread = None
    if pred_u.log_half:
        factor = np.sqrt(np.log(math.e + config.t_grid))
        fit_defl = rate_fit(config.t_grid, u_norms / factor, config.fit_window)
        lo, hi = config.fit_window
        mask = (config.t_grid >= lo) & (config.t_grid <= hi)
        ratios = (u_norms / factor)[mask]
        spread = float(ratios.max() / ratios.min())
    return DecayResult(t=config.t_grid, u_norms=u_norms, ut_norms=ut_norms,
                       fit_u=fit_u, fit_ut=fit_ut, predicted_u=pred_u,
                       predicted_ut=pred_ut, fit_u_deflated=fit_defl,
                       log_ratio_spread=spread)


@dataclass
class ProfileResult:
    t: np.ndarray
    solution_norms: np.ndarray
    error_norms: np.ndarray
    fit_solution: RateFit
    fit_error: RateFit
    rate_gain: float
    #: error/solution ratios on the grid
    ratios: np.ndarray

    def ratio_monotone_beyond(self, t0: float) -> bool:
        mask = self.t >= t0
        r = self.ratios[mask]
        return bool(np.all(np.diff(r) < 0))


def profile_error_experiment(config: ExperimentConfig) -> ProfileResult:
    """Low-frequency refinement: distance to the leading diffusion-wave
    profiles against the solution norm itself.

    The profiles multiply the spectrum values at the origin (the moment
    carriers in this normalisation); data with vanishing spectrum at 0
    therefore subtract nothing and the error equals the zone-restricted
    solution norm.
    """
    params = config.params.without_tau()
    m0, m1 = config.u0.moment, config.u1.moment
    eps = config.r_grid.eps_cut

    def error_norm(t: float) -> float:
        field = _field_factory(config, t)

        def f(r):
            prof = leading_profiles(params, r, t, eps_cut=eps * (1 + 1e-9))
            return field(r)[0] - prof.j0 * m0 - prof.j1 * m1

        return l2_norm_radial(f, n=config.n, s=config.s, zone_filter="small",
                              eps_cut=eps, rel_tol=config.rel_tol,
                              cap_segments=_osc_segments(config, t))

    if config.u0.is_zero and config.u1.is_zero:
        zeros = np.zeros_like(config.t_grid)
        fit0 = RateFit(0.0, -math.inf, 1.0, config.fit_window)
        return ProfileResult(config.t_grid, zeros, zeros, fit0, fit0, 0.0, zeros)

    err = np.array(thread_map(error_norm, config.t_grid))
    sol = np.array(thread_map(lambda t: solution_norm(config, t)[0],
                              config.t_grid))
    err_window = (max(config.error_fit_window[0], config.t_grid[0]),
                  min(config.error_fit_window[1], config.t_grid[-1]))
    fit_err = rate_fit(config.t_grid, err, err_window)
    fit_sol = rate_fit(config.t_grid, sol, config.fit_window)
    return ProfileResult(t=config.t_grid, solution_norms=sol, error_norms=err,
                         fit_solution=fit_sol, fit_error=fit_err,
                         rate_gain=fit_sol.slope - fit_err.slope,
                         ratios=err / sol)


@dataclass
class OptimalityReport:
    t: np.ndarray
    norms: np.ndarray
    rate_values: np.ndarray
    ratio_min: float
    ratio_max: float
    spread: float


def optimality_check(config: ExperimentConfig) -> OptimalityReport:
    """Two-sided sharpness: solution norm against the rate H(t; n)."""
    if config.u1.moment == 0.0:
        raise PreconditionError(
            "optimality needs a nonzero first-datum moment (spectrum(0) != 0)")
    hvals = rate_function("H", config.t_grid, n=config.n)
    sol = np.array(thread_map(lambda t: solution_norm(config, t)[0],
                              config.t_grid))
    lo, hi = config.fit_window
    mask = (config.t_grid >= lo) & (config.t_grid <= hi)
    ratio = sol[mask] / hvals[mask]
    return OptimalityReport(t=config.t_grid, norms=sol, rate_values=hvals,
                            ratio_min=float(ratio.min()),
                            ratio_max=float(ratio.max()),
                            spread=float(ratio.max() / ratio.min()))


# ---------------------------------------------------------------------------
# pointwise envelopes
# ---------------------------------------------------------------------------

@dataclass
class ZoneEnvelope:
    zone: str
    c_fit: float          # exponential rate used in the bound (0 if unused)
    constant_u: float     # max |u| / bound over the grid
    constant_ut: float    # max |u_t| / bound (small zone only; 0 otherwise)


@dataclass
class EnvelopeReport:
    small: ZoneEnvelope
    bounded: ZoneEnvelope
    large: ZoneEnvelope

    def all_finite(self) -> bool:
        vals = [self.small.constant_u, self.small.constant_ut,
                self.bounded.constant_u, self.large.constant_u]
        return all(np.isfinite(v) and v > 0 for v in vals)


def envelope_check(config: ExperimentConfig) -> EnvelopeReport:
    """Fit single constants for the pointwise kernel envelopes per zone.

    The kernels are tested directly (unit data values), once with datum
    (1, 0) and once with (0, 1), so each data channel meets its own bound.
    """
    params = config.params.without_tau()
    g, gt, pd = params.gamma, params.gamma_tilde, params.parabolic_decay
    eps, n_cut = config.r_grid.eps_cut, config.r_grid.n_cut

    # small zone ----------------------------------------------------------
    r_s = np.geomspace(1e-3, eps * 0.999, 28)
    t_s = np.concatenate([[0.0], np.geomspace(0.1, 1e3, 25)])
    basis = vdw_kernel_basis(params, r_s)
    pair = basis.eval(t_s)                       # (T, B)
    tt, rr = t_s[:, None], r_s[None, :]
    osc = np.exp(-pd * rr ** 2 * tt)
    cosv, sinv = np.abs(np.cos(gt * rr * tt)), np.abs(np.sin(gt * rr * tt))
    bound0 = (cosv + rr * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    bound1 = (rr ** 2 * cosv + sinv / rr) * osc + rr ** 2 * np.exp(-g * tt)
    c_u_small = max(float((np.abs(pair.k0) / bound0).max()),
                    float((np.abs(pair.k1) / bound1).max()))
    dbound0 = (rr ** 2 * cosv + rr * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    dbound1 = (cosv + rr ** 3 * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    c_ut_small = max(float((np.abs(pair.dk0) / dbound0).max()),
                     float((np.abs(pair.dk1) / dbound1).max()))
    small = ZoneEnvelope("small", 0.0, c_u_small, c_ut_small)

    # bounded zone --------------------------------------------------------
    r_b = np.linspace(eps, n_cut, 220)
    roots, _, _, _ = cubic_char_roots_batch(params, r_b)
    c_fit = 0.9 * float(-roots.real.max())
    t_b = np.linspace(0.0, 40.0, 33)
    u_b, ut_b, _ = _vdw_tables(params, r_b, t_b, np.ones_like(r_b) + 0j,
                               np.ones_like(r_b) + 0j)
    bound_b = 2.0 * np.exp(-c_fit * t_b)[:, None]    # data (1, 1)
    c_u_bdd = float((np.abs(u_b) / bound_b).max())
    bounded = ZoneEnvelope("bounded", c_fit, c_u_bdd, 0.0)

    # exterior zone -------------------------------------------------------
    r_l = np.geomspace(n_cut * 1.001, n_cut * 3.0, 24)
    roots_l, _, _, _ = cubic_char_roots_batch(params, r_l)
    slow = np.where(np.abs(roots_l.real) < 0.5 * r_l[:, None] ** 2,
                    roots_l.real, -np.inf)
    c_large = 0.9 * float(-slow.max())
    t_l = np.linspace(0.05, 5.0, 21)
    basis_l = vdw_kernel_basis(params, r_l)
    pair_l = basis_l.eval(t_l)
    tt, rr = t_l[:, None], r_l[None, :]
    with np.errstate(under="ignore"):
        b0 = np.exp(-c_large * tt) + np.exp(-rr ** 2 * tt) / rr ** 2
        b1 = (np.exp(-c_large * tt) + np.exp(-rr ** 2 * tt)) / rr ** 2
    c_u_large = max(float((np.abs(pair_l.k0) / b0).max()),
                    float((np.abs(pair_l.k1) / b1).max()))
    large = ZoneEnvelope("large", c_large, c_u_large, 0.0)
    return EnvelopeReport(small=small, bounded=bounded, large=large)


# ---------------------------------------------------------------------------
# thermal-relaxation sweeps
# ---------------------------------------------------------------------------

@dataclass
class EnergySeries:
    """Standard-energy components of the model difference for one tau."""

    tau: float
    t: np.ndarray
    e_wtt: np.ndarray        # tau ||w_tt||^2
    e_grad_wt: np.ndarray    # ||grad w_t||^2
    e_grad_w: np.ndarray     # ||grad w||^2
    e_wt: np.ndarray         # tau ||w_t||^2
    e_memory: np.ndarray     # gamma int g(t-s) ||grad w(t)-grad w(s)||^2 ds
    w_l2_sq: np.ndarray      # ||w||^2

    @property
    def total(self) -> np.ndarray:
        return (self.e_wtt + self.e_grad_wt + self.e_grad_w
                + self.e_wt + self.e_memory)


@dataclass
class SingularEnergyResult:
    series: list[EnergySeries]
    fit_sup: RateFit          # sup_t E_S against tau
    es0_values: np.ndarray    # E_S at t = 0 per tau
    w2_norm_sq: float         # ||v2 - (Delta u0 + Delta u1)||^2


def _difference_tables(config: ExperimentConfig, tau: float,
                       t_grid: np.ndarray):
    """(w, w_t, w_tt) tables (T, B) between relaxed and limit models."""
    r = config.r_grid.nodes
    u0v = config.u0(r) + 0j
    u1v = config.u1(r) + 0j
    v2v = config.v2_values(r)
    base = config.params.without_tau()
    u, ut, utt = _vdw_tables(base, r, t_grid, u0v, u1v)
    v, vt, vtt = _mgt_tables(base.with_tau(tau), r, t_grid, u0v, u1v, v2v)
    return v - u, vt - ut, vtt - utt


def _require_tau_list(config: ExperimentConfig) -> None:
    if config.tau_list is None or len(config.tau_list) < 5:
        raise PreconditionError("singular-limit runs need a tau_list (>= 5 values)")


def _memory_series(t_grid: np.ndarray, gram: np.ndarray, gamma: float,
                   stride: int = 1) -> np.ndarray:
    """History term by trapezoid over the (possibly strided) time grid.

    ``gram[i, j]`` is the gradient inner product of w(t_i) with w(t_j).
    """
    idx = np.arange(0, len(t_grid), stride)
    if idx[-1] != len(t_grid) - 1:
        idx = np.append(idx, len(t_grid) - 1)
    diag = np.diag(gram).real
    out = np.zeros(len(t_grid))
    for pos, i in enumerate(idx):
        sub = idx[:pos + 1]
        if len(sub) < 2:
            continue
        s = t_grid[sub]
        integrand = np.exp(-gamma * (t_grid[i] - s)) * (
            diag[i] + diag[sub] - 2.0 * gram[i, sub].real)
        out[i] = gamma * np.trapezoid(integrand, s)
    return out[idx] if stride > 1 else out


def singular_limit_energy(config: ExperimentConfig) -> SingularEnergyResult:
    """Standard-energy convergence of the relaxed model to its limit.

    The tau fit uses the supremum of the energy over the sampled interval
    [0, probe_time]; see the module docstring for why a fixed probe past
    the initial layer would measure the tau^2 remainder only.
    """
    _require_tau_list(config)
    span = math.log10(config.tau_list.max() / config.tau_list.min())
    if span < 2.0 - 1e-9:
        raise PreconditionError("tau_list must span at least two decades")
    n = config.n
    grid = config.r_grid
    r = grid.nodes
    t_hist = np.linspace(0.0, config.probe_time, config.history_points + 1)
    w_s0 = sphere_area(n) * grid.weights * r ** (n - 1)
    w_s1 = sphere_area(n) * grid.weights * r ** (n + 1)

    u0v, u1v = config.u0(r) + 0j, config.u1(r) + 0j
    w2_modes = config.v2_values(r) + r * r * (u0v + u1v)
    w2_norm_sq = float((w_s0 * np.abs(w2_modes) ** 2).sum())

    def one_tau(tau: float) -> EnergySeries:
        w, wt, wtt = _difference_tables(config, tau, t_hist)
        gram = (w * w_s1) @ w.conj().T
        memory = _memory_series(t_hist, gram, config.params.gamma)
        mem_coarse = _memory_series(t_hist, gram, config.params.gamma, stride=2)
        scale = max(float(memory[-1]), 1e-300)
        if abs(mem_coarse[-1] - memory[-1]) > 0.01 * scale + 1e-30:
            raise RefinementError(
                "memory-history trapezoid not converged; raise history_points")
        return EnergySeries(
            tau=tau, t=t_hist,
            e_wtt=tau * (np.abs(wtt) ** 2 * w_s0).sum(axis=-1),
            e_grad_wt=(np.abs(wt) ** 2 * w_s1).sum(axis=-1),
            e_grad_w=np.diag(gram).real.copy(),
            e_wt=tau * (np.abs(wt) ** 2 * w_s0).sum(axis=-1),
            e_memory=memory,
            w_l2_sq=(np.abs(w) ** 2 * w_s0).sum(axis=-1),
        )

    series = thread_map(one_tau, config.tau_list)
    sup_vals = np.array([s.total.max() for s in series])
    es0_vals = np.array([s.total[0] for s in series])
    window = (config.tau_list.min(), config.tau_list.max())
    if sup_vals.max() == 0.0:      # identically zero difference (trivial data)
        fit = RateFit(0.0, -math.inf, 1.0, window)
    else:
        fit = rate_fit(config.tau_list, sup_vals, window)
    return SingularEnergyResult(series=series, fit_sup=fit, es0_values=es0_vals,
                                w2_norm_sq=w2_norm_sq)


@dataclass
class SingularSolutionResult:
    tau: np.ndarray
    w_l2_sq: np.ndarray
    fit: RateFit
    predicted_exponent: float
    meets_prediction: bool


def singular_limit_solution(config: ExperimentConfig,
                            allow_outside: bool = False) -> SingularSolutionResult:
    """L2 convergence of the solution difference at the probe time.

    The underlying estimate holds for gamma > 5 and n >= 3; outside that
    range the run must be forced with ``allow_outside`` and the observed
    slope carries no predicted value.
    """
    _require_tau_list(config)
    if (config.params.gamma <= 5.0 or config.n < 3) and not allow_outside:
        raise PreconditionError(
            "the solution-limit estimate requires gamma > 5 and n >= 3 "
            "(pass allow_outside=True to explore regardless)")
    n = config.n
    grid = config.r_grid
    r = grid.nodes
    w_s0 = sphere_area(n) * grid.weights * r ** (n - 1)
    t_pair = np.array([0.0, config.probe_time])

    def one_tau(tau: float) -> float:
        w, _, _ = _difference_tables(config, tau, t_pair)
        return float((np.abs(w[-1]) ** 2 * w_s0).sum())

    vals = np.array(thread_map(one_tau, config.tau_list))
    consistent = config.v2 == "consistent"
    predicted = 2.0 if consistent else 1.0
    window = (config.tau_list.min(), config.tau_list.max())
    if vals.max() == 0.0:          # identically zero difference (trivial data)
        return SingularSolutionResult(tau=config.tau_list, w_l2_sq=vals,
                                      fit=RateFit(0.0, -math.inf, 1.0, window),
                                      predicted_exponent=predicted,
                                      meets_prediction=True)
    fit = rate_fit(config.tau_list, vals, window)
    return SingularSolutionResult(
        tau=config.tau_list, w_l2_sq=vals, fit=fit,
        predicted_exponent=predicted,
        meets_prediction=bool(fit.slope >= predicted - 0.1))


# ---------------------------------------------------------------------------
# closed-form vs time-domain comparison on random modes
# ---------------------------------------------------------------------------

@dataclass
class OracleComparison:
    """Per-mode relative gaps between the kernel path and the integrator."""

    rows: list            # (kind, gamma, tau, r, t, rel_u, rel_ut)
    worst: float


def _accuracy_step(roots: np.ndarray, stiffness: float, t_max: float) -> float:
    """Step for ~1e-8 relative accuracy on the oscillatory components.

    The per-eigencomponent relative error of the classical fourth-order
    scheme grows like (t/h) (h|mu|)^5 / 120; real components with large
    |mu| die off before their error can accumulate, so the binding
    constraint comes from the largest non-real root magnitude.
    """
    osc = np.abs(roots[np.abs(roots.imag) > 1e-9])
    h = min(0.01, 0.2 / stiffness)
    if osc.size:
        mu = float(osc.max())
        h = min(h, (120.0 * 1e-8 / (t_max * mu ** 5)) ** 0.25)
    return h


def oracle_mode_comparison(count: int = 50, seed: int = 20240808,
                           t_max: float = 20.0) -> OracleComparison:
    """Compare both solution routes on random non-degenerate modes.

    Draws ``count`` second-order modes (gamma in (1,10], r in [0.01,20])
    and ``count`` relaxed modes (tau in [0.3,0.9), r in [0.01,10]) with
    complex random data, evaluates the closed-form path at one random
    sample time each, and integrates the whole batch with an
    accuracy-targeted step.  Every mode carries its own (gamma, tau, r), so
    each rejection round is one batched root solve and the closed form is
    one amplitude solve and one exp-sum per model.
    """
    if count < 1:
        raise DomainError(f"need at least one mode per model, got count={count}")
    rng = np.random.default_rng(seed)
    t_eval = np.linspace(0.0, t_max, 41)
    rows = []
    worst = 0.0

    def rel(a, b):
        return float(abs(a - b) / max(abs(a), abs(b), 1e-290))

    for kind in ("vdw", "mgt"):
        g = np.empty(0)
        r = np.empty(0)
        tau = np.empty(0)
        roots = np.empty((0, 3 if kind == "vdw" else 4), dtype=complex)
        while g.size < count:
            need = count - g.size
            gi = rng.uniform(1.0 + 1e-3, 10.0, need)
            if kind == "vdw":
                ri = rng.uniform(0.01, 20.0, need)
                ti = np.ones(need)
                coeffs = cubic_coefficients(gi, ri)
            else:
                ri = rng.uniform(0.01, 10.0, need)
                ti = rng.uniform(0.3, 0.9, need)
                coeffs = quartic_coefficients(gi, ti, ri)
            drawn, _, _, flags = solve_polynomial_batch(coeffs)
            g = np.concatenate([g, gi[~flags]])
            r = np.concatenate([r, ri[~flags]])
            tau = np.concatenate([tau, ti[~flags]])
            roots = np.concatenate([roots, drawn[~flags]])
        u0 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        u1 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        v2 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        t_idx = rng.integers(1, len(t_eval), count)
        if kind == "vdw":
            stiffness = float(np.max(np.maximum(g, r * r)))
            step = _accuracy_step(roots, stiffness, t_max)
            traj = integrate_vdw_many(g, r, t_eval, u0, u1, step)
            # kernel amplitudes, then data, in the order vdw_kernel_basis and
            # mode_tables use, so each row matches vdw_mode_solution exactly
            unit = np.array([[1.0], [0.0]])
            coef0, coef1 = _amplitudes(roots, (unit, unit[::-1], -r * r), False)
            amp = coef0 * u0[:, None] + coef1 * u1[:, None]
        else:
            stiffness = float(np.max(np.maximum(np.maximum(g, r * r), 1.0 / tau)))
            step = _accuracy_step(roots, stiffness, t_max)
            traj = integrate_mgt_many(g, tau, r, t_eval, u0, u1, v2, step)
            v3 = -(v2 + r * r * (u0 + u1)) / tau    # as in mgt_mode_basis
            amp = _amplitudes(roots, (u0, u1, v2, v3), False)
        u, ut, _ = _mode_sums(amp, roots, t_eval)
        # scalar abs per row: numpy's vectorised complex abs can differ from
        # it in the last bit, which would move the rows off the scalar path
        for i, k in enumerate(t_idx):
            ru, rut = rel(u[k, i], traj.u[k, i]), rel(ut[k, i], traj.ut[k, i])
            worst = max(worst, ru, rut)
            rows.append((kind, float(g[i]), float(tau[i]) if kind == "mgt" else 0.0,
                         float(r[i]), float(t_eval[k]), ru, rut))
    return OracleComparison(rows=rows, worst=worst)

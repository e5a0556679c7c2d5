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
fixed probe past the transient sees the tau^2 remainder instead).  The
sweeps' radial sums take the G10-K21 panel rule of the adaptive norms, on
panels derived from the data and halved until every summed column meets
its own |K21 - G10| estimate (:func:`_refined_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, InsufficientDataError, InvalidParameterError,
                     PreconditionError, RefinementError)
# mgt_mode_basis, vdw_mode_solution, mgt_mode_solution, l2_norm_radial and
# quartic_char_roots_batch are unused here, and thread_map (below) is a plain
# map, kept only for bench/tracing.py, which wraps them under these names;
# the norm series reach quadrature through l2_norms_radial, which it does not
# wrap
from .kernels import (_mgt_basis, _vdw_basis, leading_profiles, mgt_mode_basis,
                      mgt_mode_solution, vdw_kernel_basis, vdw_mode_solution)
from .oracle import (_stiffness, default_step, integrate_mgt_many,
                     integrate_mgt_mode, integrate_vdw_many, integrate_vdw_mode)
from .params import ModelParams
from .quadrature import (REL_TOL, DataSpectrum, g_exponent, l2_norm_radial,
                         l2_norms_radial, oscillation_caps, panel_rule, rate_function,
                         sphere_area)
from .spectrum import (DEFAULT_EPS_CUT, DEFAULT_N_CUT, cubic_char_roots_batch,
                       cubic_coefficients, quartic_char_roots_batch,
                       quartic_coefficients, solve_polynomial_batch)

#: spec-pinned default fit window for time-decay experiments
DECAY_FIT_WINDOW = (1e2, 1e4)
#: later window for zone-restricted kernel-norm fits (see quadrature docs)
KERNEL_NORM_FIT_WINDOW = (1e4, 1e6)
#: default window for profile-error fits (delayed onset, same reason)
PROFILE_ERROR_FIT_WINDOW = (1e3, 1e5)
#: sample-time horizon of oracle_mode_comparison
ORACLE_HORIZON = 20.0
#: initial equal panels, and panel budget, of the singular-limit sums, whose
#: |K21 - G10| bound, relative to the largest value of each column, is the
#: adaptive norms' quadrature.REL_TOL
SWEEP_PANELS, SWEEP_MAX_PANELS = 16, 512
#: most intervals of the energy run's history grid, whose memory kernel is a
#: square array of that order (at 4,096, an energy run of 7 tau values peaks
#: at about 0.4 GB)
HISTORY_MAX_POINTS = 4096


def thread_map(fn, items):
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int, if it is an integer >= ``least`` (NaN and inf
    are not)."""
    if not (float(value).is_integer() and value >= least):
        raise InvalidParameterError(
            f"{name} must be an integer >= {least}, got {value}")
    return int(value)


@dataclass
class ExperimentConfig:
    params: ModelParams
    n: int = 3
    s: float = 0.0
    u0: DataSpectrum = field(default_factory=DataSpectrum.zero)
    u1: DataSpectrum = field(default_factory=DataSpectrum.gaussian)
    v2: DataSpectrum | str | None = None       # spectrum or "consistent"
    t_grid: np.ndarray = field(default_factory=lambda: np.geomspace(50.0, 1.2e4, 28))
    #: frequency zones: small r < eps_cut, bounded up to n_cut, large beyond
    eps_cut: float = DEFAULT_EPS_CUT
    n_cut: float = DEFAULT_N_CUT
    tau_list: np.ndarray | None = None
    fit_window: tuple[float, float] = DECAY_FIT_WINDOW
    #: window for the profile-error fit; the subtracted difference carries
    #: extra frequency powers, so its zone-restricted norm enters the
    #: asymptotic regime roughly a decade later than the solution norm
    error_fit_window: tuple[float, float] = PROFILE_ERROR_FIT_WINDOW
    probe_time: float = 10.0
    history_points: int = 200

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        if not np.all(np.isfinite(self.t_grid)):
            raise InvalidParameterError("t_grid must be finite")
        if np.any(np.diff(self.t_grid) <= 0):
            raise InvalidParameterError("t_grid must be strictly increasing")
        lo, hi = self.fit_window
        if not (self.t_grid[0] <= lo < hi <= self.t_grid[-1] * (1 + 1e-12)):
            raise InvalidParameterError("fit_window must lie inside the t_grid span")
        if self.tau_list is not None:
            self.tau_list = np.asarray(self.tau_list, dtype=float)
            if not np.all((self.tau_list > 0) & (self.tau_list < 1)):   # NaN fails too
                raise InvalidParameterError("every tau must lie in (0, 1)")
        self.n = _count("dimension", self.n)
        if not self.s >= 0:
            raise InvalidParameterError(f"Sobolev order must be >= 0, got {self.s}")
        if not (0 < self.probe_time < math.inf):
            raise InvalidParameterError(
                f"probe_time must be finite and > 0, got {self.probe_time}")
        # one interval leaves the stride-2 check of the memory trapezoid
        # comparing the grid with itself
        self.history_points = _count("history_points", self.history_points, 2)
        if self.history_points > HISTORY_MAX_POINTS:
            raise InvalidParameterError(f"history_points must be <= {HISTORY_MAX_POINTS}, "
                                        f"got {self.history_points} (the memory kernel is "
                                        f"square in the history times)")
        if not 0 < self.eps_cut < self.n_cut:
            raise InvalidParameterError("need 0 < eps_cut < n_cut")

    def v2_values(self, r: np.ndarray) -> np.ndarray:
        """Resolve the second datum of the relaxed model on nodes ``r``."""
        u0v = self.u0(r)
        u1v = self.u1(r)
        if self.v2 == "consistent":
            return -r * r * (u0v + u1v)
        if isinstance(self.v2, DataSpectrum):
            return self.v2(r)
        if self.v2 is None:
            return np.zeros_like(r)
        raise InvalidParameterError(f"cannot interpret v2={self.v2!r}")


@dataclass
class RateFit:
    """Log-log least-squares line over a window (natural logs)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def rate_fit(x, y, window) -> RateFit:
    """Fit log y against log x on the points falling inside ``window``.

    A ``y`` that is identically zero there (trivial data) gets the flat
    fit at log 0: slope 0, intercept -inf."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = window
    mask = (x >= lo) & (x <= hi)
    if mask.sum() < 5:
        raise InsufficientDataError(
            f"need >= 5 points in window [{lo}, {hi}], found {int(mask.sum())}")
    if np.all(x[mask] > 0) and not y[mask].any():
        return RateFit(0.0, -math.inf, 1.0, (float(lo), float(hi)))
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
                    u0_present: bool = True, u1_present: bool = True,
                    u0_linear: bool = False, u1_linear: bool = False) -> RatePrediction:
    """Slowest-decaying term of the norm estimate for ``|D|^s u``.

    The estimate for ``u_t`` at order s >= 0 is this one at order s + 1
    (there 2(s + 1) + n >= 3 puts the sin-kernel moment term on its
    ``-s/2 - n/4`` branch).  Bulk-norm terms enter only for data that is
    actually nonzero; moment terms additionally require a nonvanishing
    spectrum at the origin.  ``u*_linear`` marks spectra vanishing exactly
    linearly at the origin, which saturate their bulk terms when the
    moments vanish.
    """
    terms: list[RatePrediction] = []
    if u0_present:
        terms.append(RatePrediction(-(s + 1) / 2 - n / 4, sharp=u0_linear))
        if moment0 != 0.0:
            terms.append(RatePrediction(-s / 2 - n / 4))
    if u1_present:
        terms.append(RatePrediction(-s / 2 - n / 4, sharp=u1_linear))
        if moment1 != 0.0:
            p = g_exponent(s, n)
            terms.append(RatePrediction(0.0, log_half=True) if p is None
                         else RatePrediction(p))
    if not terms:
        return RatePrediction(-math.inf)
    return max(terms, key=lambda p: (p.exponent, p.log_half, p.sharp))


# ---------------------------------------------------------------------------
# mode tables: closed form, with the oracle at flagged nodes
# ---------------------------------------------------------------------------

def _oracle_fallback(tables, flags, integrate, params: ModelParams, r: np.ndarray,
                     t_grid: np.ndarray, data):
    """Overwrite the flagged columns of the (u, ut, utt) ``tables`` with
    ``integrate(params, r_k, t_grid, *data_k)``; returns ``tables``.

    The step is a quarter of the default oracle step: that keeps
    coalescence-radius modes within 1e-6 of the closed form to t = 1e4,
    where the full step is off by up to 2.2e-6.  Callers pass the
    ``integrate_*_mode`` they look up as a module global on each call, so a
    wrapper bound to that name sees every fallback.
    """
    for k in np.where(flags)[0]:
        traj = integrate(params, float(r[k]), t_grid, *(d[k] for d in data),
                         step=default_step(params, r[k]) / 4)
        for table, column in zip(tables, (traj.u, traj.ut, traj.utt)):
            # real (stepped) tables come from real data, whose modes are real
            table[..., k] = column if np.iscomplexobj(table) else column.real
    return tables


def _vdw_tables(params: ModelParams, r: np.ndarray, t_grid: np.ndarray,
                u0v: np.ndarray, u1v: np.ndarray, step=None):
    """(u, ut, utt) tables of shape (T, B) of the memory-only model; pass
    ``step`` when ``t_grid`` is the uniform grid ``k * step``; the tables
    are then real, and the data must be real."""
    return _basis_tables(params, vdw_kernel_basis(params, r), t_grid, u0v, u1v, step)


def _basis_tables(params: ModelParams, basis, t_grid: np.ndarray, u0v: np.ndarray,
                  u1v: np.ndarray, step=None):
    """:func:`_vdw_tables` on a solved memory-only kernel ``basis``.  The
    tables read only the gamma of ``params``; the tau of ``params``, if any,
    is dropped here, where the oracle fallback would otherwise take it into
    its step."""
    return _oracle_fallback(basis.mode_tables(t_grid, u0v, u1v, step), basis.flags,
                            integrate_vdw_mode, params.without_tau(), basis.r, t_grid,
                            (u0v, u1v))


def _mgt_tables(params: ModelParams, r: np.ndarray, roots: np.ndarray,
                flags: np.ndarray, t_grid: np.ndarray, u0v: np.ndarray,
                u1v: np.ndarray, v2v: np.ndarray, step=None):
    """(v, vt, vtt) tables of shape (T, B) of the relaxed model at the tau
    of ``params``, from its solved quartic ``roots`` (B, 4) and ``flags``
    (B,) on the radii ``r``; ``step`` as in :func:`_vdw_tables`."""
    basis = _mgt_basis(params.require_tau(), r, roots, flags, u0v, u1v, v2v)
    return _oracle_fallback(basis.eval(t_grid, step), flags, integrate_mgt_mode,
                            params, r, t_grid, (u0v, u1v, v2v))


def kernel_tables(params: ModelParams, basis, t: np.ndarray):
    """(k0, dk0, k1, dk1) tables (T, B) of the memory-only kernel ``basis``
    at the times ``t``: the (u, ut) mode tables of :func:`_basis_tables` for
    the unit data (1, 0), then (0, 1), flagged columns from the oracle."""
    one, zero = np.ones(basis.r.shape), np.zeros(basis.r.shape)
    return (*_basis_tables(params, basis, t, one, zero)[:2],
            *_basis_tables(params, basis, t, zero, one)[:2])


def _mode_field(config: ExperimentConfig, times, rows):
    """The lockstep field of :func:`quadrature.l2_norms_radial` for norms
    of the memory-only modes at ``times``.

    A call solves the cubics of all its radii in one
    :func:`cubic_char_roots_batch`; the roots are row-wise, so each time
    gets those of a solve of its own radii.  The amplitudes, the mode
    tables with their oracle fallback, and ``rows(t, r, u, ut)`` run per
    time on that time's radii ``r`` in the call (its round, or a piece of
    it), with ``u`` and ``ut`` the (1, B) mode tables at ``t``; every step
    is row-wise, so the field is pointwise in r.
    """
    params, u0, u1 = config.params, config.u0, config.u1

    def field(ks, radii):
        roots, _, _, flags = cubic_char_roots_batch(params, np.concatenate(radii))
        out, end = [], 0
        for k, r in zip(ks, radii):
            own = slice(end, end + r.size)
            end = own.stop
            basis = _vdw_basis(r, roots[own], flags[own])
            u, ut, _ = _basis_tables(params, basis, [times[k]], u0(r), u1(r))
            out.append(rows(times[k], r, u, ut))
        return out

    return field


def _data_kinks(spectra, n_cut: float = math.inf) -> np.ndarray:
    """The nodes r > 0 of every tabulated datum among ``spectra``, sorted:
    its kinks, and its last node, past which it drops to 0.  Both radial
    routes make them panel edges, since a panel across a kink or the drop
    converges only linearly in its width.  A node above ``n_cut`` is
    returned as y = n_cut + 1 - n_cut / r, the ``qagi`` variable of the
    adaptive norms."""
    r = np.unique([x for sp in spectra if sp.kind == "tabulated"
                   for x in sp.params[0] if x > 0.0])
    mapped = r > n_cut
    r[mapped] = n_cut + 1.0 - n_cut / r[mapped]
    return r


def _radial_norms(config: ExperimentConfig, times, zone: str, rows) -> list:
    """Radial norms over ``zone`` of ``rows`` (see :func:`_mode_field`) at
    every time of ``times``, run in lockstep: one adaptive problem per time,
    with that time's oscillation caps, and one root solve per field call
    of at most ``quadrature.LOCKSTEP_NODES`` radii, a round of many times
    or a piece of one large-t round.  The data's kinks (:func:`_data_kinks`)
    are initial panel edges of every time: each gap between consecutive
    kinks, the last one closed by y = n_cut + 1, is a cap as wide as
    itself.  A quadrature failure names its time."""
    kinks = [*_data_kinks((config.u0, config.u1), config.n_cut), config.n_cut + 1.0]
    edges = [(lo, hi, hi - lo) for lo, hi in zip(kinks, kinks[1:])]
    return l2_norms_radial(
        _mode_field(config, times, rows),
        [oscillation_caps(config.params, t, config.eps_cut, config.n_cut) + edges
         for t in times],
        config.n, config.s, zone, eps_cut=config.eps_cut, n_cut=config.n_cut,
        names=[f"t={t:g}" for t in times])


def _norm_series(config: ExperimentConfig, times=None) -> np.ndarray:
    """(u, ut) norm series, shape (2, T), at ``times`` (default the t_grid).

    The norms of all times run in lockstep (:func:`_radial_norms`); each
    time integrates u and u_t in one adaptive problem, so both share nodes
    and mode tables, and a panel is accepted only when both have
    converged.  Every time's norms equal a run at that time alone.
    """
    times = config.t_grid if times is None else times
    return np.array(_radial_norms(config, times, "all",
                                  lambda t, r, u, ut: np.concatenate((u, ut)))).T


def solution_norm(config: ExperimentConfig, t: float) -> np.ndarray:
    """(|| |D|^s u(t) ||, || |D|^s u_t(t) ||) over all frequencies: the
    one-time case of :func:`_norm_series`."""
    return _norm_series(config, [t])[:, 0]


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
    #: spread max/min of u-norm / (ln(e+t))^(1/2) on the window (log branch)
    log_ratio_spread: float | None = None


def decay_experiment(config: ExperimentConfig) -> DecayResult:
    """Time-decay slopes of the solution and velocity norms."""
    u_norms, ut_norms = _norm_series(config)
    data = dict(n=config.n, moment0=config.u0.moment,
                moment1=config.u1.moment, u0_present=not config.u0.is_zero,
                u1_present=not config.u1.is_zero,
                u0_linear=config.u0.kind == "linear_gaussian",
                u1_linear=config.u1.kind == "linear_gaussian")
    pred_u = predicted_decay(config.s, **data)
    pred_ut = predicted_decay(config.s + 1, **data)
    fit_u = rate_fit(config.t_grid, u_norms, config.fit_window)
    fit_ut = rate_fit(config.t_grid, ut_norms, config.fit_window)
    spread = None
    if pred_u.log_half:
        factor = np.sqrt(np.log(math.e + config.t_grid))
        lo, hi = config.fit_window
        mask = (config.t_grid >= lo) & (config.t_grid <= hi)
        ratios = (u_norms / factor)[mask]
        spread = float(ratios.max() / ratios.min())
    return DecayResult(t=config.t_grid, u_norms=u_norms, ut_norms=ut_norms,
                       fit_u=fit_u, fit_ut=fit_ut, predicted_u=pred_u,
                       predicted_ut=pred_ut, log_ratio_spread=spread)


@dataclass
class ProfileResult:
    t: np.ndarray
    solution_norms: np.ndarray
    error_norms: np.ndarray
    fit_solution: RateFit
    fit_error: RateFit
    rate_gain: float
    #: error/solution ratios on the grid, 0 where the solution norm is 0
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
    m0, m1 = config.u0.moment, config.u1.moment
    eps = config.eps_cut

    def error_rows(t, r, u, ut):
        prof = leading_profiles(config.params, r, t, eps_cut=eps * (1 + 1e-9))
        return u[0] - prof.j0 * m0 - prof.j1 * m1

    if config.u0.is_zero and config.u1.is_zero:
        # both norms are zero, with no quadrature
        err = sol = np.zeros_like(config.t_grid)
    else:
        err = np.array(_radial_norms(config, config.t_grid, "small", error_rows))
        sol = _norm_series(config)[0]
    err_window = (max(config.error_fit_window[0], config.t_grid[0]),
                  min(config.error_fit_window[1], config.t_grid[-1]))
    fit_err = rate_fit(config.t_grid, err, err_window)
    fit_sol = rate_fit(config.t_grid, sol, config.fit_window)
    return ProfileResult(t=config.t_grid, solution_norms=sol, error_norms=err,
                         fit_solution=fit_sol, fit_error=fit_err,
                         rate_gain=fit_sol.slope - fit_err.slope,
                         ratios=np.divide(err, sol, out=np.zeros_like(err), where=sol != 0))


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
    sol = _norm_series(config)[0]
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
    Both come from :func:`kernel_tables`, so near-degenerate nodes take the
    oracle fallback instead of the unit-gap amplitudes of a flagged row.
    One kernel basis per zone gives its tables and its roots.
    """
    params = config.params
    g, gt, pd = params.gamma, params.gamma_tilde, params.parabolic_decay
    eps, n_cut = config.eps_cut, config.n_cut

    # small zone ----------------------------------------------------------
    r_s = np.geomspace(1e-3, eps * 0.999, 28)
    t_s = np.concatenate([[0.0], np.geomspace(0.1, 1e3, 25)])
    k0, dk0, k1, dk1 = kernel_tables(params, vdw_kernel_basis(params, r_s), t_s)
    tt, rr = t_s[:, None], r_s[None, :]
    osc = np.exp(-pd * rr ** 2 * tt)
    cosv, sinv = np.abs(np.cos(gt * rr * tt)), np.abs(np.sin(gt * rr * tt))
    bound0 = (cosv + rr * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    bound1 = (rr ** 2 * cosv + sinv / rr) * osc + rr ** 2 * np.exp(-g * tt)
    c_u_small = max(float((np.abs(k0) / bound0).max()),
                    float((np.abs(k1) / bound1).max()))
    dbound0 = (rr ** 2 * cosv + rr * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    dbound1 = (cosv + rr ** 3 * sinv) * osc + rr ** 2 * np.exp(-g * tt)
    c_ut_small = max(float((np.abs(dk0) / dbound0).max()),
                     float((np.abs(dk1) / dbound1).max()))
    small = ZoneEnvelope("small", 0.0, c_u_small, c_ut_small)

    # bounded zone --------------------------------------------------------
    basis = vdw_kernel_basis(params, np.linspace(eps, n_cut, 220))
    c_fit = 0.9 * float(-basis.roots.real.max())
    t_b = np.linspace(0.0, 40.0, 33)
    k0, _, k1, _ = kernel_tables(params, basis, t_b)
    bound_b = 2.0 * np.exp(-c_fit * t_b)[:, None]    # data (1, 1): k0 + k1
    c_u_bdd = float((np.abs(k0 + k1) / bound_b).max())
    bounded = ZoneEnvelope("bounded", c_fit, c_u_bdd, 0.0)

    # exterior zone -------------------------------------------------------
    r_l = np.geomspace(n_cut * 1.001, n_cut * 3.0, 24)
    basis = vdw_kernel_basis(params, r_l)
    slow = np.where(np.abs(basis.roots.real) < 0.5 * r_l[:, None] ** 2,
                    basis.roots.real, -np.inf)
    c_large = 0.9 * float(-slow.max())
    t_l = np.linspace(0.05, 5.0, 21)
    k0, _, k1, _ = kernel_tables(params, basis, t_l)
    tt, rr = t_l[:, None], r_l[None, :]
    with np.errstate(under="ignore"):
        b0 = np.exp(-c_large * tt) + np.exp(-rr ** 2 * tt) / rr ** 2
        b1 = (np.exp(-c_large * tt) + np.exp(-rr ** 2 * tt)) / rr ** 2
    c_u_large = max(float((np.abs(k0) / b0).max()),
                    float((np.abs(k1) / b1).max()))
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
    total: np.ndarray = field(init=False)   # sum of the five energy terms

    def __post_init__(self):
        self.total = (self.e_wtt + self.e_grad_wt + self.e_grad_w
                      + self.e_wt + self.e_memory)


@dataclass
class SingularEnergyResult:
    series: list[EnergySeries]
    fit_sup: RateFit          # sup_t E_S against tau
    es0_values: np.ndarray    # E_S at t = 0 per tau
    w2_norm_sq: float         # ||v2 - (Delta u0 + Delta u1)||^2
    predicted_exponent: float  # power of tau the sup energy should follow
    meets_prediction: bool    # fit_sup within 0.1 of it (see _tau_fit)


def _require_tau_list(config: ExperimentConfig) -> None:
    """The tau fits need at least 5 values spanning two decades."""
    if config.tau_list is None or len(config.tau_list) < 5:
        raise PreconditionError("singular-limit runs need a tau_list (>= 5 values)")
    span = math.log10(config.tau_list.max() / config.tau_list.min())
    if span < 2.0 - 1e-9:
        raise PreconditionError(f"tau_list spans {span:.3g} decades, needs at least 2")


def _sweep_grid(config: ExperimentConfig, steps: int):
    """The uniform grid of ``steps`` steps on [0, probe_time], and its step."""
    return np.linspace(0.0, config.probe_time, steps + 1, retstep=True)


def _tau_sweep(config: ExperimentConfig, r: np.ndarray, steps: int, one_tau) -> list:
    """``one_tau(tau, t, w, w_t, w_tt)`` for every tau of the list, in order.

    ``t`` is :func:`_sweep_grid`, and (w, w_t, w_tt) are the real (T, B)
    tables on ``t`` and the radii ``r`` of the relaxed model at tau minus
    the limit model, evaluated in blocks of the step (see
    :func:`kernels._mode_sums`).  The data spectra are real, so the modes
    are real and the stepped route, which takes real data only, keeps all
    of them.  The limit tables do not depend on tau, so they are built once.
    The quartics of every tau are solved in one call, each row on its own,
    so a tau's roots and flags are those of a solve at that tau alone; the
    amplitudes, tables and oracle fallback are per tau, and each tau
    subtracts the limit tables from the relaxed tables it has just built.
    """
    t_grid, step = _sweep_grid(config, steps)
    u0v, u1v = config.u0(r), config.u1(r)
    v2v = config.v2_values(r)
    limit = _vdw_tables(config.params, r, t_grid, u0v, u1v, step)
    taus = config.tau_list
    roots, _, _, flags = solve_polynomial_batch(
        quartic_coefficients(config.params.gamma, taus[:, None], r))

    def task(k):
        diff = _mgt_tables(config.params.with_tau(taus[k]), r, roots[k], flags[k],
                           t_grid, u0v, u1v, v2v, step)
        for v, u in zip(diff, limit):
            v -= u
        return one_tau(taus[k], t_grid, *diff)

    return thread_map(task, range(taus.size))


def _refined_sweep(config: ExperimentConfig, steps: int, one_tau):
    """:func:`_tau_sweep` on the G10-K21 panel rule, halved until every sum
    meets its own estimate; returns the results, the radii and the weights.

    ``one_tau(tau, t, w, w_t, w_tt, r, weights)`` returns a result and the
    list of its summed (..., 2) columns, the K21 and the G10 sum of each,
    where ``weights`` (B, 2) are the Plancherel weights |S^(n-1)| r^(n-1)
    times the K21 and the G10 weights of :func:`quadrature.panel_rule`.
    The estimate of a tau is the largest |K21 - G10| of its columns, each
    relative to that column's largest value (:func:`_kg_gap`).  The panels
    start as ``SWEEP_PANELS`` equal ones on [0, R], R the largest tail
    radius of the data, and every node of a tabulated datum is an edge
    too, so that its kinks fall on edges.  While some tau's estimate is
    above ``REL_TOL``, all panels are halved and the sweep runs again; past
    ``SWEEP_MAX_PANELS`` panels a :class:`RefinementError` names that tau.
    """
    spectra = [sp for sp in (config.u0, config.u1, config.v2)
               if isinstance(sp, DataSpectrum)]
    r_max = max(sp.tail_radius() for sp in spectra)
    if not r_max > 0:
        raise InvalidParameterError("the data spectra vanish for every r > 0")
    edges = np.union1d(np.linspace(0.0, r_max, SWEEP_PANELS + 1), _data_kinks(spectra))
    while True:
        r, k21, g10 = panel_rule(edges)
        weights = (sphere_area(config.n) * r ** (config.n - 1))[:, None] \
            * np.stack((k21, g10), axis=-1)
        out = _tau_sweep(config, r, steps,
                         lambda *tables: one_tau(*tables, r, weights))
        gaps = (_kg_gap(columns) for _, columns in out)
        # NaN is not converged
        bad = [(tau, gap) for tau, gap in zip(config.tau_list, gaps) if not gap <= REL_TOL]
        if not bad:
            return [res for res, _ in out], r, weights
        if 2 * (edges.size - 1) > SWEEP_MAX_PANELS:
            tau, gap = bad[0]
            raise RefinementError(
                f"singular-limit sums at tau={tau:g} not converged on "
                f"{edges.size - 1} panels: |K21 - G10| is {gap:.2e} of the "
                f"column maximum (needs <= {REL_TOL:g})")
        edges = np.union1d(edges, 0.5 * (edges[:-1] + edges[1:]))


def _kg_gap(columns) -> float:
    """Largest |K21 - G10| of the (..., 2) sums of ``columns``, each relative
    to its largest K21 value (0 for an all-zero column); NaN wherever a NaN
    falls, as np.max, unlike max, keeps it."""
    return float(np.max([np.abs(c[..., 0] - c[..., 1]).max()
                         / max(np.abs(c[..., 0]).max(), 1e-300) for c in columns]))


def _tau_exponent(config: ExperimentConfig) -> float:
    """Predicted power of tau in the model difference: 2 for consistent
    data (no initial layer, w2 = 0), 1 otherwise."""
    return 2.0 if config.v2 == "consistent" else 1.0


def _tau_fit(config: ExperimentConfig, values: np.ndarray, two_sided: bool):
    """Log-log fit of ``values`` against tau over the whole list, and
    whether its slope meets :func:`_tau_exponent` to 0.1: on both sides, or
    from below only for an upper-bound estimate.  An identically zero
    difference (trivial data) gets :func:`rate_fit`'s flat fit and meets
    any prediction."""
    fit = rate_fit(config.tau_list, values, (config.tau_list.min(), config.tau_list.max()))
    if not values.any():
        return fit, True
    predicted = _tau_exponent(config)
    return fit, bool(abs(fit.slope - predicted) <= 0.1 if two_sided
                     else fit.slope >= predicted - 0.1)


def _memory_kernel(t_grid: np.ndarray, gamma: float, stride: int = 1):
    """Kept indices and trapezoid kernel of :func:`_memory_sums`.

    The kept times s are every ``stride``-th time plus the last one (so the
    last interval may be shorter).  Row i of the strictly lower-triangular
    kernel is gamma times the trapezoid weights of [s_0, s_i] times
    ``exp(-gamma (s_i - s_j))``; the weight of s_i itself is left out, as
    its term ``||grad w(s_i) - grad w(s_i)||^2`` is 0.  It depends on the
    grid only, so a run builds it once for all its tau values.
    """
    last = len(t_grid) - 1
    # where the stride divides the grid the kept times are a slice, so that
    # _memory_sums takes views of the tables, not copies
    idx = (slice(0, None, stride) if last % stride == 0
           else np.append(np.arange(0, last, stride), last))
    s = t_grid[idx]
    half = 0.5 * np.diff(s)
    # node j gets half of the interval on each side of it; above the
    # diagonal the weights are 0, and the clip keeps exp finite there
    node = np.append(0.0, half) + np.append(half, 0.0)
    lag = np.maximum(s[:, None] - s, 0.0)
    return idx, np.tril(gamma * node * np.exp(-gamma * lag), -1)


def _memory_sums(kernel, w: np.ndarray, grad_sq: np.ndarray, weights) -> np.ndarray:
    """History term at every kept time of ``kernel``, per weight set.

    ``kernel`` is :func:`_memory_kernel` of the grid of the real (T, B)
    table ``w``, ``weights`` (B, W) are gradient weights of its radial
    nodes, and ``grad_sq`` (T, W) is ``(w * w) @ weights``.  Entry (i, m)
    is gamma times the trapezoid integral over [s_0, s_i] of
    ``exp(-gamma (s_i - s_j)) ||grad w(s_i) - grad w(s_j)||^2`` in the
    weights of column m: with d = ``grad_sq`` and K the kernel,
    d rowsum(K) + K d - 2 (w * (K w)) @ weights, one (T', T') @ (T', B)
    product.
    """
    idx, k = kernel
    w, d = w[idx], grad_sq[idx]
    # one (T', B) temporary, multiplied in place: with a second one the heap
    # of an energy run grew and was trimmed again at every tau, faulting its
    # pages in anew
    cross = k @ w
    cross *= w
    return d * k.sum(axis=1)[:, None] + k @ d - 2.0 * (cross @ weights)


def singular_limit_energy(config: ExperimentConfig) -> SingularEnergyResult:
    """Standard-energy convergence of the relaxed model to its limit.

    The tau fit uses the supremum of the energy over the sampled interval
    [0, probe_time]; see the module docstring for why a fixed probe past
    the initial layer would measure the tau^2 remainder only.
    """
    _require_tau_list(config)
    t_grid, _ = _sweep_grid(config, config.history_points)
    # the trapezoid on the grid, and on every other point of it as a check
    kernels = [_memory_kernel(t_grid, config.params.gamma, stride) for stride in (1, 2)]

    def one_tau(tau: float, t, w, wt, wtt, r, w_s0):
        w_s1 = w_s0 * (r * r)[:, None]
        wt_sq = wt * wt
        sums = dict(e_wtt=tau * ((wtt * wtt) @ w_s0), e_grad_wt=wt_sq @ w_s1,
                    e_grad_w=(w * w) @ w_s1, e_wt=tau * (wt_sq @ w_s0),
                    w_l2_sq=(w * w) @ w_s0)
        memory, coarse = (_memory_sums(k, w, sums["e_grad_w"], w_s1) for k in kernels)
        sums["e_memory"] = memory
        gap, scale = abs(coarse[-1, 0] - memory[-1, 0]), max(memory[-1, 0], 1e-300)
        if gap > 0.01 * scale + 1e-30:
            raise RefinementError(
                f"memory-history trapezoid at tau={tau:g} not converged on "
                f"{config.history_points} history points: the stride-2 sum differs by "
                f"{gap / scale:.2e} of the last value (needs <= 0.01); "
                f"raise history_points")
        return EnergySeries(tau=tau, t=t, **{name: s[:, 0] for name, s in sums.items()}), \
            list(sums.values())

    series, r, weights = _refined_sweep(config, config.history_points, one_tau)
    w2_modes = config.v2_values(r) + r * r * (config.u0(r) + config.u1(r))
    w2_norm_sq = float(w2_modes ** 2 @ weights[:, 0])
    fit, meets = _tau_fit(config, np.array([s.total.max() for s in series]), True)
    return SingularEnergyResult(
        series=series, fit_sup=fit, es0_values=np.array([s.total[0] for s in series]),
        w2_norm_sq=w2_norm_sq, predicted_exponent=_tau_exponent(config),
        meets_prediction=meets)


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
            "the solution-limit estimate requires gamma > 5 and n >= 3 (set "
            "allow_outside = true in a CLI config, or pass allow_outside=True, "
            "to explore regardless)")

    def one_tau(tau, t, w, wt, wtt, r, w_s0):
        sums = w[-1] ** 2 @ w_s0
        return float(sums[0]), [sums]

    vals = np.array(_refined_sweep(config, 1, one_tau)[0])
    fit, meets = _tau_fit(config, vals, False)
    return SingularSolutionResult(tau=config.tau_list, w_l2_sq=vals, fit=fit,
                                  predicted_exponent=_tau_exponent(config),
                                  meets_prediction=meets)


# ---------------------------------------------------------------------------
# closed-form vs time-domain comparison on random modes
# ---------------------------------------------------------------------------

@dataclass
class OracleComparison:
    """Per-mode relative gaps between the kernel path and the integrator."""

    rows: list            # (kind, gamma, tau, r, t, rel_u, rel_ut)
    worst: float


def _accuracy_step(roots: np.ndarray, stiffness: float) -> float:
    """Step for ~1e-8 relative accuracy on the oscillatory components up
    to t = ORACLE_HORIZON.

    The per-eigencomponent relative error of the classical fourth-order
    scheme grows like (t/h) (h|mu|)^5 / 120; real components with large
    |mu| die off before their error can accumulate, so the binding
    constraint comes from the largest non-real root magnitude.
    """
    osc = np.abs(roots[np.abs(roots.imag) > 1e-9])
    h = min(0.01, 0.2 / stiffness)
    if osc.size:
        mu = float(osc.max())
        h = min(h, (120.0 * 1e-8 / (ORACLE_HORIZON * mu ** 5)) ** 0.25)
    return h


def oracle_mode_comparison(count: int = 50, seed: int = 20240808) -> OracleComparison:
    """Compare both solution routes on random non-degenerate modes.

    Draws ``count`` second-order modes (gamma in (1,10], r in [0.01,20])
    and ``count`` relaxed modes (tau in [0.3,0.9), r in [0.01,10]) with
    complex random data, evaluates the closed-form path at one random
    sample time each, and integrates the whole batch with an
    accuracy-targeted step.  Every mode carries its own (gamma, tau, r), so
    each rejection round is one batched root solve, the kept modes are one
    more, and the closed form is one amplitude solve and one exp-sum per
    model.
    """
    if count < 1:
        raise DomainError(f"need at least one mode per model, got count={count}")
    rng = np.random.default_rng(seed)
    t_eval = np.linspace(0.0, ORACLE_HORIZON, 41)
    rows = []
    worst = 0.0

    def rel(a, b):
        return float(abs(a - b) / max(abs(a), abs(b), 1e-290))

    def solve(kind, g, r, tau):
        return solve_polynomial_batch(cubic_coefficients(g, r) if kind == "vdw"
                                      else quartic_coefficients(g, tau, r))

    for kind in ("vdw", "mgt"):
        # (gamma, r, tau) of the unflagged draws; each row is solved on its
        # own, so the kept rows solved again give the loop's roots
        kept = np.empty((3, 0))
        while kept.shape[1] < count:
            need = count - kept.shape[1]
            drawn = (rng.uniform(1.0 + 1e-3, 10.0, need),
                     rng.uniform(0.01, 20.0 if kind == "vdw" else 10.0, need),
                     np.ones(need) if kind == "vdw" else rng.uniform(0.3, 0.9, need))
            flags = solve(kind, *drawn)[3]
            kept = np.concatenate([kept, np.array(drawn)[:, ~flags]], axis=1)
        g, r, tau = kept
        roots = solve(kind, g, r, tau)[0]
        u0 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        u1 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        v2 = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        t_idx = rng.integers(1, len(t_eval), count)
        distinct = np.zeros(count, dtype=bool)
        # the basis builders of the scalar path, so each row's amplitudes
        # equal those of vdw_mode_solution / mgt_mode_solution bit for bit;
        # the table values may differ in the last bits (3 of 150 for 50 vdW
        # modes at 3 times), as numpy's vectorised complex multiply and exp
        # round differently from its scalar path
        step = _accuracy_step(roots, float(np.max(
            _stiffness(g, r, tau if kind == "mgt" else None))))
        if kind == "vdw":
            traj = integrate_vdw_many(g, r, t_eval, u0, u1, step)
            u, ut, _ = _vdw_basis(r, roots, distinct).mode_tables(t_eval, u0, u1)
        else:
            traj = integrate_mgt_many(g, tau, r, t_eval, u0, u1, v2, step)
            u, ut, _ = _mgt_basis(tau, r, roots, distinct, u0, u1, v2).eval(t_eval)
        # scalar abs per row: numpy's vectorised complex abs can differ from
        # it in the last bit, which would move the rows off the scalar path
        for i, k in enumerate(t_idx):
            ru, rut = rel(u[k, i], traj.u[k, i]), rel(ut[k, i], traj.ut[k, i])
            worst = max(worst, ru, rut)
            rows.append((kind, float(g[i]), float(tau[i]) if kind == "mgt" else 0.0,
                         float(r[i]), float(t_eval[k]), ru, rut))
    return OracleComparison(rows=rows, worst=worst)

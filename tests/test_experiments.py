"""Experiment-harness tests: fits, configs, and the norm references."""

import dataclasses
import math
import os

import numpy as np
import pytest

from viscowave import (DataSpectrum, DomainError, ExperimentConfig,
                       InsufficientDataError, InvalidParameterError,
                       ModelParams, PreconditionError, RefinementError,
                       TruncationError, decay_experiment, envelope_check, optimality_check,
                       profile_error_experiment, rate_fit,
                       singular_limit_energy, singular_limit_solution,
                       solution_norm, sphere_area)
from viscowave import quadrature
from viscowave.experiments import (HISTORY_MAX_POINTS, _memory_kernel, _memory_sums,
                                   _tau_sweep, _vdw_tables, oracle_mode_comparison,
                                   predicted_decay)
from viscowave.kernels import leading_profiles
from viscowave.oracle import default_step, integrate_vdw_many
from viscowave.quadrature import panel_rule
from viscowave.spectrum import (DEFAULT_N_CUT, cubic_char_roots_batch,
                                cubic_discriminant_expanded,
                                quartic_char_roots_batch)

from helpers import quartic_coalescence_radii, solved_mgt_tables


def _gauss_rule(edges, order):
    """Composite Gauss-Legendre nodes and weights of ``order`` points on
    each panel between consecutive ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


class TestRateFit:
    def test_exact_power_law(self):
        x = np.geomspace(1.0, 100.0, 12)
        fit = rate_fit(x, x ** -1.0, (1.0, 100.0))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_scaled_power_law(self):
        x = np.geomspace(1.0, 100.0, 12)
        fit = rate_fit(x, 3.0 * x ** 0.5, (1.0, 100.0))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)

    def test_window_restriction(self):
        x = np.geomspace(1.0, 1000.0, 30)
        y = np.where(x < 10.0, x, x ** 2)     # kink outside the window
        fit = rate_fit(x, y, (10.0, 1000.0))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_errors(self):
        x = np.geomspace(1.0, 10.0, 10)
        with pytest.raises(InsufficientDataError):
            rate_fit(x, x, (20.0, 30.0))
        with pytest.raises(DomainError):
            rate_fit(x, -x, (1.0, 10.0))


class TestPredictedDecay:
    def test_moment_carrying_first_datum(self):
        pred = predicted_decay(0.0, 3, 0.0, 1.0)
        assert pred.exponent == pytest.approx(-0.25)
        pred = predicted_decay(0.0, 1, 0.0, 1.0)
        assert pred.exponent == pytest.approx(0.5)
        pred = predicted_decay(0.0, 2, 0.0, 1.0)
        assert pred.log_half

    def test_moment_free(self):
        pred = predicted_decay(0.0, 3, 0.0, 0.0)
        assert pred.exponent == pytest.approx(-0.75)
        assert not pred.log_half

    def test_velocity_norm(self):
        # the u_t estimate at order s is the u estimate at order s + 1
        assert predicted_decay(1.0, 3, 0.0, 1.0).exponent == pytest.approx(-0.75)
        assert predicted_decay(2.0, 3, 1.0, 0.0).exponent == pytest.approx(-1.75)


class TestConfigValidation:
    def test_t_grid_must_increase(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             t_grid=np.array([1.0, 1.0, 2.0]))

    def test_t_grid_must_be_finite(self):
        # np.diff of a NaN grid is NaN, which no `<= 0` check rejects
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             t_grid=np.array([50.0, np.nan, 2e4]))

    def test_window_inside_span(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             t_grid=np.geomspace(10, 100, 10),
                             fit_window=(1.0, 1e5))

    def test_tau_range(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             tau_list=np.array([0.5, 1.5, 0.1]))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             tau_list=np.array([0.5, np.nan, 0.1]))

    @pytest.mark.parametrize("probe", [0.0, -5.0, np.nan, np.inf])
    def test_probe_time_positive(self, probe):
        # a probe time <= 0 put the history grid at t <= 0, where the
        # decaying modes overflow
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(6.0), probe_time=probe,
                             tau_list=np.geomspace(0.1, 0.001, 5))

    @pytest.mark.parametrize("points", [0, 1, -3, 2.5, np.nan, np.inf])
    def test_history_points_positive_integer(self, points):
        # history_points = 0 gave a one-point history grid t = [0] and a
        # meaningless tau fit with no error; at 1 the stride-2 memory check
        # compared the one-interval trapezoid with itself
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0), history_points=points,
                             tau_list=np.geomspace(0.1, 0.001, 5))

    def test_history_points_bounded(self):
        # the memory kernel is a square array of the history times: at
        # 30,000 points one such array alone would take 7.2 GB
        assert HISTORY_MAX_POINTS >= 1600
        ExperimentConfig(params=ModelParams(2.0), history_points=HISTORY_MAX_POINTS)
        with pytest.raises(InvalidParameterError,
                           match=f"history_points must be <= {HISTORY_MAX_POINTS}, "
                                 f"got {HISTORY_MAX_POINTS + 1}"):
            ExperimentConfig(params=ModelParams(2.0), history_points=HISTORY_MAX_POINTS + 1)

    @pytest.mark.parametrize("n", [0, 2.5, np.nan, np.inf])
    def test_dimension_positive_integer(self, n):
        # NaN and inf reached int(n) unchecked: ValueError, OverflowError
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0), n=n)

    def test_integral_floats_stored_as_int(self):
        # history_points = 200.0 passed validation, then np.linspace
        # rejected it as a point count
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3.0, history_points=200.0,
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               tau_list=np.geomspace(1e-1, 1e-3, 5))
        assert type(cfg.n) is int and type(cfg.history_points) is int
        assert singular_limit_energy(cfg).series[0].t.size == 201

    def test_sobolev_order_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0), s=-0.5)

    @pytest.mark.parametrize("cuts", [(2.0, 1.0), (0.0, 10.0), (0.1, np.nan)])
    def test_zone_cuts_ordered(self, cuts):
        with pytest.raises(InvalidParameterError, match="eps_cut < n_cut"):
            ExperimentConfig(params=ModelParams(2.0), eps_cut=cuts[0], n_cut=cuts[1])

    def test_grid_built_on_the_singular_limit_path_only(self):
        # only a config with a tau list sums over tau; the radii are the
        # run's own, so the config carries none
        assert ExperimentConfig(params=ModelParams(6.0)).tau_list is None
        cfg = ExperimentConfig(params=ModelParams(6.0), n=3,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0), v2="consistent",
                               tau_list=np.geomspace(1e-1, 1e-3, 5))
        assert np.array_equal(singular_limit_solution(cfg).tau, cfg.tau_list)

    def test_consistent_token_resolution(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), v2="consistent",
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               tau_list=np.geomspace(0.1, 0.001, 3))
        r = np.array([0.5, 1.0])
        vals = cfg.v2_values(r)
        expected = -r * r * (cfg.u0(r) + cfg.u1(r))
        assert np.allclose(vals, expected)


def _reference_config(gamma: float = 2.0) -> ExperimentConfig:
    """Reduced-scale decay config (t up to 200, so the references stay cheap)."""
    return ExperimentConfig(params=ModelParams(gamma), n=3,
                            t_grid=np.geomspace(15.0, 200.0, 10),
                            fit_window=(20.0, 200.0))


def _quarter_period(cfg: ExperimentConfig) -> float:
    """Panel width pi/(2 gamma_tilde t) at the last time of ``cfg``: a
    quarter period of cos(gamma_tilde r t) in r."""
    return math.pi / (2.0 * cfg.params.gamma_tilde * cfg.t_grid[-1])


def _resolving_grid(cfg: ExperimentConfig):
    """Fixed nodes and weights whose panels resolve the oscillation
    cos(gamma_tilde r t) up to the last time of ``cfg`` on [0, 1], a quarter
    period per panel (four Gauss nodes each), with a coarser tail out to 5."""
    panels = int(np.ceil(1.0 / _quarter_period(cfg))) + 8
    fine = _gauss_rule(np.linspace(0.0, 1.0, panels + 1), 4)
    tail = _gauss_rule(np.linspace(1.0, 5.0, 17), 6)
    return tuple(np.concatenate(pair) for pair in zip(fine, tail))


def _reference_norms(cfg: ExperimentConfig, route: str):
    """Fixed-grid Plancherel sums of ||u|| and ||u_t|| from one of two
    independent mode tables: the closed-form kernel ("kernel-grid") or one
    RK4 batch ("oracle")."""
    r, grid_weights = _resolving_grid(cfg)
    u0v, u1v = cfg.u0(r) + 0j, cfg.u1(r) + 0j
    params = cfg.params
    if route == "kernel-grid":
        tables = _vdw_tables(params, r, cfg.t_grid, u0v, u1v)[:2]
    else:
        step = min(default_step(params, float(r.max())), 0.05)
        traj = integrate_vdw_many(np.full(r.shape, params.gamma), r,
                                  cfg.t_grid, u0v, u1v, step)
        tables = (traj.u, traj.ut)
    weights = sphere_area(cfg.n) * grid_weights * r ** (cfg.n - 1)
    return tuple(np.sqrt((np.abs(tab) ** 2 * weights).sum(axis=-1))
                 for tab in tables)


def _reference_error_norms(cfg: ExperimentConfig) -> np.ndarray:
    """Fixed-grid Plancherel sums of the small-zone error norm of
    :func:`profile_error_experiment`: closed-form tables minus the leading
    profiles times the data moments, on panels of a quarter period at the
    last time over [0, eps_cut)."""
    panels = int(np.ceil(cfg.eps_cut / _quarter_period(cfg)))
    r, grid_weights = _gauss_rule(np.linspace(0.0, cfg.eps_cut, panels + 1), 4)
    params = cfg.params
    u = _vdw_tables(params, r, cfg.t_grid, cfg.u0(r) + 0j, cfg.u1(r) + 0j)[0]
    prof = leading_profiles(params, r, cfg.t_grid[:, None])
    err = u - prof.j0 * cfg.u0.moment - prof.j1 * cfg.u1.moment
    weights = sphere_area(cfg.n) * grid_weights * r ** (2 * cfg.s + cfg.n - 1)
    return np.sqrt((np.abs(err) ** 2 * weights).sum(axis=-1))


class TestNormReferences:
    def test_adaptive_norms_match_closed_form_and_rk4(self):
        self.check_against_references(_reference_config())

    def test_adaptive_norms_match_at_gamma_6(self):
        self.check_against_references(_reference_config(6.0))

    # small times, where the bounded zone carries most of the norm
    @pytest.mark.parametrize("gamma", [2.0, 6.0])
    def test_small_times_match_closed_form_and_rk4(self, gamma):
        self.check_against_references(ExperimentConfig(
            params=ModelParams(gamma), n=3, t_grid=np.geomspace(0.5, 20.0, 10),
            fit_window=(0.5, 20.0)))

    # the default decay config: t = 50...1.2e4, 28 times
    def test_default_times_match_closed_form_and_rk4(self):
        self.check_against_references(ExperimentConfig(params=ModelParams(2.0), n=3))

    def test_default_times_at_gamma_6_match_closed_form(self):
        self.check_against_references(ExperimentConfig(params=ModelParams(6.0), n=3),
                                      routes=("kernel-grid",))

    def test_profile_error_norms_match_closed_form(self):
        # the profile command's default times, t = 50...1.2e5, 30 times
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               t_grid=np.geomspace(50.0, 1.2e5, 30))
        res = profile_error_experiment(cfg)
        np.testing.assert_allclose(res.error_norms, _reference_error_norms(cfg),
                                   rtol=1e-9)

    def test_tabulated_datum_with_a_drop_matches_its_panel_sums(self):
        # a tabulated u0 drops from 2.921 to 0 past its last node, and the
        # weight r^5 makes that drop heavy: its nodes are panel edges, so
        # every norm converges (a panel across the drop hit the depth cap
        # and refused), and matches Gauss panels that break there too
        cfg = ExperimentConfig(params=ModelParams(2.0), n=1, s=2.5,
                               u0=DataSpectrum.tabulated((1.0, 47.43), (1.0, 2.921)),
                               u1=DataSpectrum.zero(),
                               t_grid=np.geomspace(0.296, 98.8, 17),
                               fit_window=(1.0, 98.0))
        res = decay_experiment(cfg)
        r, grid_weights = _gauss_rule(np.union1d(np.linspace(0.0, 1.0, 51),
                                                 np.linspace(1.0, 47.43, 2001)), 8)
        weights = sphere_area(cfg.n) * grid_weights * r ** (2.0 * cfg.s + cfg.n - 1.0)
        tables = _vdw_tables(cfg.params, r, cfg.t_grid, cfg.u0(r) + 0j, cfg.u1(r) + 0j)
        for norms, tab in zip((res.u_norms, res.ut_norms), tables):
            np.testing.assert_allclose(
                norms, np.sqrt((np.abs(tab) ** 2 * weights).sum(axis=-1)), rtol=1e-9)

    @staticmethod
    def check_against_references(cfg: ExperimentConfig,
                                 routes=("kernel-grid", "oracle")):
        # the adaptive norms against fixed-grid references
        res = decay_experiment(cfg)
        for route in routes:
            u, ut = _reference_norms(cfg, route)
            np.testing.assert_allclose(res.u_norms, u, rtol=1e-9)
            np.testing.assert_allclose(res.ut_norms, ut, rtol=1e-9)
            # swapping the route moves the fitted slopes by < 0.01
            for norms, fit in ((u, res.fit_u), (ut, res.fit_ut)):
                slope = rate_fit(cfg.t_grid, norms, cfg.fit_window).slope
                assert abs(slope - fit.slope) < 0.01


class TestCrossSolverEquivalence:
    @pytest.mark.parametrize("route", ["kernel-grid", "oracle"])
    def test_optimality_uses_the_chosen_route(self, route):
        # optimality takes its norms from the same route as decay, and
        # that route agrees with each fixed-grid reference
        cfg = _reference_config()
        norms = optimality_check(cfg).norms
        assert np.array_equal(norms, decay_experiment(cfg).u_norms)
        np.testing.assert_allclose(norms, _reference_norms(cfg, route)[0],
                                   rtol=1e-9)


class TestProfileExperiment:
    def test_zero_data_gives_zero_error(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u0=DataSpectrum.zero(), u1=DataSpectrum.zero())
        res = profile_error_experiment(cfg)
        assert np.all(res.error_norms == 0.0)
        assert np.all(res.solution_norms == 0.0)
        assert np.all(res.ratios == 0.0) and res.rate_gain == 0.0
        # both fits are rate_fit's flat fit, each over its own window
        err_window = (max(cfg.error_fit_window[0], cfg.t_grid[0]),
                      min(cfg.error_fit_window[1], cfg.t_grid[-1]))
        assert res.fit_error == rate_fit(cfg.t_grid, res.error_norms, err_window)
        assert res.fit_solution == rate_fit(cfg.t_grid, res.solution_norms, cfg.fit_window)
        assert res.fit_error.window == err_window != res.fit_solution.window


class TestOptimality:
    def test_zero_moment_rejected(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u1=DataSpectrum.linear_gaussian(1.0, 1.0))
        with pytest.raises(PreconditionError):
            optimality_check(cfg)


@pytest.fixture(scope="module")
def sl_energy_result():
    cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                           u0=DataSpectrum.gaussian(1.0, 1.0),
                           u1=DataSpectrum.gaussian(1.0, 1.0),
                           v2=DataSpectrum.zero(),
                           tau_list=np.geomspace(1e-1, 1e-3, 5))
    return cfg, singular_limit_energy(cfg)


class TestSingularLimitEnergy:
    def test_components_nonnegative(self, sl_energy_result):
        _, res = sl_energy_result
        for s in res.series:
            for comp in (s.e_wtt, s.e_grad_wt, s.e_grad_w, s.e_wt,
                         s.e_memory, s.w_l2_sq):
                assert np.all(comp >= -1e-15)

    def test_initial_energy_identity(self, sl_energy_result):
        cfg, res = sl_energy_result
        expected = cfg.tau_list * res.w2_norm_sq
        assert np.allclose(res.es0_values, expected, rtol=1e-12)

    def test_kappa_growth_in_two_dimensions(self):
        # with a moment-carrying first datum the n=2 energy budget tracks
        # log(e+t); verify the energy stays within a slowly growing band
        cfg = ExperimentConfig(params=ModelParams(2.0), n=2,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               v2="consistent", probe_time=40.0,
                               tau_list=np.geomspace(1e-1, 1e-3, 5))
        res = singular_limit_energy(cfg)
        s = res.series[0]
        mask = s.t >= 1.0
        kappa = np.log(math.e + s.t[mask])
        band = s.total[mask] / (res.es0_values[0] + s.total.max()) / kappa
        assert np.all(np.isfinite(band))
        assert band.max() / max(band.min(), 1e-300) < 1e3

    def test_precondition_errors(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u1=DataSpectrum.gaussian(1.0, 1.0))
        with pytest.raises(PreconditionError):
            singular_limit_energy(cfg)              # no tau list
        cfg2 = ExperimentConfig(params=ModelParams(2.0), n=3,
                                tau_list=np.array([0.1, 0.09, 0.08]))
        with pytest.raises(PreconditionError):
            singular_limit_energy(cfg2)             # span < 2 decades

    @pytest.mark.parametrize("run", [singular_limit_energy, singular_limit_solution])
    def test_enough_values_over_too_short_a_span(self, run):
        cfg = ExperimentConfig(params=ModelParams(6.0), n=3,
                               tau_list=np.geomspace(0.1, 0.002, 5))
        with pytest.raises(PreconditionError, match="spans 1.7 decades"):
            run(cfg)


def _same_bits(a, b) -> bool:
    """Dataclass results equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return all(_same_bits(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return np.array_equal(a, b)


class TestMemoryOnlyRunsIgnoreTau:
    """The memory-only runs read gamma alone: a tau in their params moves
    no bit, not even at a flagged radius, where the oracle fallback would
    take that tau into its step."""

    WITH, WITHOUT = ModelParams(2.0, 0.1), ModelParams(2.0)

    def test_kernel_tables(self):
        from viscowave.experiments import kernel_tables
        from viscowave.kernels import vdw_kernel_basis

        r, t = np.array([0.3, 1.0, 2.5]), np.array([0.0, 0.5, 3.0])
        tables = []
        for p in (self.WITH, self.WITHOUT):
            basis = vdw_kernel_basis(p, r)
            assert basis.flags.tolist() == [False, True, False]   # triple root
            tables.append(kernel_tables(p, basis, t))
        assert all(np.array_equal(a, b) for a, b in zip(*tables))

    @pytest.mark.parametrize("run", [decay_experiment, profile_error_experiment,
                                     envelope_check])
    def test_runs(self, run):
        results = [run(ExperimentConfig(params=p, t_grid=np.geomspace(1e2, 1e4, 9)))
                   for p in (self.WITH, self.WITHOUT)]
        assert _same_bits(*results)


class TestSingularLimitSolution:
    def test_hypotheses_enforced(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               tau_list=np.geomspace(0.1, 0.001, 5))
        with pytest.raises(PreconditionError):
            singular_limit_solution(cfg)
        res = singular_limit_solution(cfg, allow_outside=True)
        assert np.all(res.w_l2_sq >= 0)

    def test_zero_data_trivial(self):
        cfg = ExperimentConfig(params=ModelParams(6.0), n=3,
                               u0=DataSpectrum.zero(), u1=DataSpectrum.zero(),
                               v2=DataSpectrum.zero(),
                               tau_list=np.geomspace(0.1, 0.001, 5))
        res = singular_limit_solution(cfg)
        assert np.all(res.w_l2_sq == 0.0)
        assert res.meets_prediction


class TestEnvelope:
    def test_constants_finite(self):
        rep = envelope_check(ExperimentConfig(params=ModelParams(2.0), n=3))
        assert rep.all_finite()
        assert rep.bounded.c_fit > 0
        assert rep.large.c_fit > 0

    def test_one_cubic_solve_per_zone(self, monkeypatch):
        # one kernel basis per zone serves its tables and its roots; a
        # solve per table and per root fit would make 7
        import viscowave.experiments as experiments
        import viscowave.kernels as kernels
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return cubic_char_roots_batch(*args, **kwargs)

        for module in (kernels, experiments):
            monkeypatch.setattr(module, "cubic_char_roots_batch", counted)
        envelope_check(ExperimentConfig(params=ModelParams(2.0), n=3))
        assert len(calls) == 3

    def test_flagged_node_takes_the_fallback(self):
        # bisect gamma so that the first large-zone node, r = n_cut * 1.001,
        # is a root-coalescence radius; the unit-gap amplitudes of its
        # flagged row gave C_large ~ 1e4 against ~ 1.007 one step away
        r = DEFAULT_N_CUT * 1.001
        lo, hi = 100.0, 102.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if (cubic_discriminant_expanded(ModelParams(mid), r) > 0) == \
                    (cubic_discriminant_expanded(ModelParams(lo), r) > 0):
                lo = mid
            else:
                hi = mid
        _, _, _, flags = cubic_char_roots_batch(ModelParams(lo), np.array([r]))
        assert flags[0]
        rep = envelope_check(ExperimentConfig(params=ModelParams(lo), n=3))
        near = envelope_check(ExperimentConfig(params=ModelParams(lo * (1 + 1e-6)),
                                               n=3))
        assert rep.all_finite()
        assert rep.large.constant_u == pytest.approx(near.large.constant_u, rel=0.01)


class TestRefinementGuard:
    def test_coarse_history_raises(self):
        from viscowave import RefinementError

        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               v2=DataSpectrum.zero(),
                               tau_list=np.geomspace(1e-1, 1e-3, 5),
                               history_points=6)
        with pytest.raises(RefinementError,
                           match=r"tau=0\.1 not converged on 6 history points: the "
                                 r"stride-2 sum differs by 7\.\d+e-01 of the last value "
                                 r"\(needs <= 0\.01\)"):
            singular_limit_energy(cfg)


class TestProfileLogBranch:
    def test_two_dimensional_ratio_vanishes(self):
        # n=2 with a moment-carrying first datum: the solution norm grows
        # like sqrt(log t) while the profile error decays like t^(-1/2),
        # so their ratio is strictly decreasing at large times
        cfg = ExperimentConfig(params=ModelParams(2.0), n=2,
                               t_grid=np.geomspace(50.0, 1.2e4, 16))
        res = profile_error_experiment(cfg)
        assert res.fit_solution.slope == pytest.approx(0.0, abs=0.1)
        assert res.fit_error.slope == pytest.approx(-0.5, abs=0.07)
        late = res.ratios[res.t >= 1e3]
        assert np.all(np.diff(late) < 0)


class TestProfileCuts:
    def test_error_norms_take_the_config_cuts(self):
        # the error norms run on the config's n_cut, as the solution norms
        # do; on the default n_cut = 10 an eps_cut of 12 was refused
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3, eps_cut=12.0,
                               n_cut=20.0, t_grid=np.geomspace(50.0, 1.2e5, 10))
        res = profile_error_experiment(cfg)
        assert np.all(res.error_norms > 0) and np.all(np.isfinite(res.error_norms))


class TestPredictedDecayPresence:
    def test_absent_data_drops_terms(self):
        # only the first datum, with vanishing moment: the slow u1 terms
        # must not pollute the prediction
        pred = predicted_decay(0.0, 3, 0.0, 0.0, u1_present=False)
        assert pred.exponent == pytest.approx(-1.25)
        pred = predicted_decay(0.0, 3, 1.0, 0.0, u1_present=False)
        assert pred.exponent == pytest.approx(-0.75)


class TestFirstDatumDecay:
    def test_u0_only_rates(self):
        # first-datum-only data: both norms follow the moment-carrying
        # first-datum terms (-s/2 - n/4 and -(s+1)/2 - n/4 at s=0, n=3)
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.zero(),
                               t_grid=np.geomspace(50.0, 1.2e4, 20))
        res = decay_experiment(cfg)
        assert res.fit_u.slope == pytest.approx(res.predicted_u.exponent, abs=0.05)
        assert res.fit_ut.slope == pytest.approx(res.predicted_ut.exponent, abs=0.07)


class TestLockstepNorms:
    """The norms of all times of a run share each round's field calls."""

    @staticmethod
    def _bench_config():
        # the benchmark's decay config: C05, n = 3, at its five fit times
        return ExperimentConfig(params=ModelParams(2.0), n=3,
                                t_grid=np.geomspace(100.0, 1e4, 5))

    @staticmethod
    def _field_rows(monkeypatch) -> list:
        """The radii of every field call from here on, one root solve each."""
        import viscowave.experiments as ex

        rows = []
        original = ex.cubic_char_roots_batch

        def counted(params, r):
            rows.append(np.size(r))
            return original(params, r)

        monkeypatch.setattr(ex, "cubic_char_roots_batch", counted)
        return rows

    def test_bench_decay_config_takes_two_field_calls(self, monkeypatch):
        # one root solve per field call for all five times: the first
        # round (7,056 radii) fits one call, the second (126) takes another
        # (7,182 rows in 2 calls); one adaptive pass per time makes 7
        rows = self._field_rows(monkeypatch)
        decay_experiment(self._bench_config())
        assert rows == [7056, 126]

    def test_large_t_round_is_cut_into_budget_calls(self, monkeypatch):
        # one norm at t = 1e7 has a first round of 122,976 radii: it is cut
        # into calls of at most LOCKSTEP_NODES, and equals the norm from
        # one call per round bit for bit, since the field is pointwise in r
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3)
        rows = self._field_rows(monkeypatch)
        cut = solution_norm(cfg, 1e7)
        assert len(rows) > 1 and max(rows) <= quadrature.LOCKSTEP_NODES
        rows.clear()
        monkeypatch.setattr(quadrature, "LOCKSTEP_NODES", 10 ** 6)
        whole = solution_norm(cfg, 1e7)
        assert max(rows) == 122976
        assert np.array_equal(cut, whole)

    def test_each_time_equals_its_own_run(self):
        # the lockstep series equals a run at each time alone, bit for bit
        cfg = self._bench_config()
        res = decay_experiment(cfg)
        for k, t in enumerate(cfg.t_grid):
            u, ut = solution_norm(cfg, t)
            assert u == res.u_norms[k] and ut == res.ut_norms[k]

    def test_failure_names_its_time(self, monkeypatch):
        # a quadrature failure at one time of the series names that time
        import viscowave.experiments as ex

        original = ex._basis_tables

        def poisoned(params, basis, t_grid, *args, **kwargs):
            tables = original(params, basis, t_grid, *args, **kwargs)
            if t_grid[0] == 1e3:
                tables[0][...] = np.nan
            return tables

        monkeypatch.setattr(ex, "_basis_tables", poisoned)
        with pytest.raises(TruncationError, match=r"^t=1000: integrand returned"):
            decay_experiment(self._bench_config())


class TestIndependentEnergyRoute:
    def test_oracle_grid_reproduces_energy(self):
        # recompute E_S(probe) for one tau entirely through the time-domain
        # integrator on a different radial grid and a finer history; the
        # two routes share no kernel or quadrature code
        from viscowave.oracle import integrate_mgt_many, integrate_vdw_many
        from viscowave.quadrature import sphere_area

        gamma, tau, n, probe = 2.0, 0.05, 3, 10.0
        cfg = ExperimentConfig(params=ModelParams(gamma), n=n,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               v2="consistent",
                               tau_list=np.array([0.05, 0.02, 0.01, 0.002, 5e-4]),
                               probe_time=probe)
        produced = singular_limit_energy(cfg).series[0].total[-1]

        r, grid_weights = _gauss_rule(np.linspace(0.0, 7.5, 58), 7)
        u0v, u1v = cfg.u0(r) + 0j, cfg.u1(r) + 0j
        v2v = -r * r * (u0v + u1v)
        t_hist = np.linspace(0.0, probe, 401)
        rmax = float(r.max())
        mu = np.roots([tau, 1 + tau * gamma, rmax * rmax + gamma,
                       (1 + gamma) * rmax * rmax, (gamma - 1) * rmax * rmax])
        mu_max = float(np.abs(mu[np.abs(mu.imag) > 1e-9]).max())
        step = min(0.2 / max(1 / tau, rmax * rmax),
                   (120 * 1e-8 / (probe * mu_max ** 5)) ** 0.25)
        g_arr = np.full(r.shape, gamma)
        trv = integrate_vdw_many(g_arr, r, t_hist, u0v, u1v, step)
        trm = integrate_mgt_many(g_arr, np.full(r.shape, tau), r, t_hist,
                                 u0v, u1v, v2v, step)
        w, wt, wtt = trm.u - trv.u, trm.ut - trv.ut, trm.utt - trv.utt
        w_s0 = sphere_area(n) * grid_weights * r ** (n - 1)
        w_s1 = sphere_area(n) * grid_weights * r ** (n + 1)
        gram = (w * w_s1) @ w.conj().T
        diag = np.diag(gram).real
        integ = np.exp(-gamma * (probe - t_hist)) * (diag[-1] + diag
                                                     - 2.0 * gram[-1, :].real)
        memory = gamma * np.trapezoid(integ, t_hist)
        independent = (tau * (np.abs(wtt[-1]) ** 2 * w_s0).sum()
                       + (np.abs(wt[-1]) ** 2 * w_s1).sum() + diag[-1]
                       + tau * (np.abs(wt[-1]) ** 2 * w_s0).sum() + memory)
        assert independent == pytest.approx(produced, rel=1e-5)


class TestNonSaturatingData:
    def test_quadratic_vanishing_beats_the_bound(self):
        # spectrum vanishing quadratically at the origin decays faster
        # than the moment-free bound; the prediction is marked non-sharp
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u1=DataSpectrum.gaussian_diff(1.0, 1.0, 2.0),
                               t_grid=np.geomspace(50, 1.2e4, 16))
        res = decay_experiment(cfg)
        assert not res.predicted_u.sharp
        assert res.fit_u.slope <= res.predicted_u.exponent + 0.05
        assert res.fit_u.slope == pytest.approx(-1.25, abs=0.07)

    def test_linear_vanishing_is_sharp(self):
        pred = predicted_decay(0.0, 3, 0.0, 0.0, u1_linear=True)
        assert pred.sharp and pred.exponent == pytest.approx(-0.75)
        pred = predicted_decay(0.0, 3, 0.0, 0.0)
        assert not pred.sharp


class TestOracleModeComparison:
    @pytest.mark.parametrize("count", [0, -4])
    def test_count_below_one_is_domain_error(self, count):
        with pytest.raises(DomainError, match="count"):
            oracle_mode_comparison(count=count)


def trapezoid_history(t_grid, gram, gamma, stride=1):
    """Reference for the memory history: one np.trapezoid per kept time."""
    idx = np.arange(0, len(t_grid), stride)
    if idx[-1] != len(t_grid) - 1:
        idx = np.append(idx, len(t_grid) - 1)
    diag = np.diag(gram).real
    out = np.zeros(len(idx))
    for pos, i in enumerate(idx[1:], 1):
        sub = idx[:pos + 1]
        integrand = np.exp(-gamma * (t_grid[i] - t_grid[sub])) * (
            diag[i] + diag[sub] - 2.0 * gram[i, sub].real)
        out[pos] = gamma * np.trapezoid(integrand, t_grid[sub])
    return out


def memory_sums(t_grid, gamma, w, weights, stride=1):
    """:func:`_memory_sums` of the (T, B) table ``w`` on ``t_grid`` with the
    (B, W) ``weights``, given the gradient sums it expects."""
    return _memory_sums(_memory_kernel(t_grid, gamma, stride), w, (w * w) @ weights,
                        weights)


def longdouble_history(t_grid, w, weights, gamma):
    """Reference for the memory history without the Gram cancellation: the
    trapezoid over [0, t_i] of the pairwise differences w(t_i) - w(t_j),
    squared and summed over the nodes with the (B,) ``weights``, in long
    double."""
    t, w = t_grid.astype(np.longdouble), w.astype(np.longdouble)
    weights = weights.astype(np.longdouble)
    out = np.zeros(len(t), dtype=np.longdouble)
    for i in range(1, len(t)):
        diff = w[i] - w[:i + 1]
        integrand = np.exp(-gamma * (t[i] - t[:i + 1])) * ((diff * diff) @ weights)
        out[i] = gamma * np.sum(0.5 * np.diff(t[:i + 1]) * (integrand[1:] + integrand[:-1]))
    return out


class TestMemorySeries:
    @pytest.mark.parametrize("points, stride", [
        (201, 1), (201, 2),
        (6, 2),            # stride 2 appends the last index: a short last interval
        (6, 1), (2, 2), (1, 1),
    ])
    def test_matches_per_row_trapezoid(self, points, stride):
        rng = np.random.default_rng(points + stride)
        t = np.sort(rng.uniform(0.0, 10.0, points))
        t[0] = 0.0
        w = rng.standard_normal((points, 30))
        weights = rng.uniform(0.5, 2.0, (30, 2))
        got = memory_sums(t, 2.0, w, weights, stride)
        for m in range(2):
            ref = trapezoid_history(t, (w * weights[:, m]) @ w.T, 2.0, stride)
            assert got[:, m].shape == ref.shape
            assert np.all(np.abs(got[:, m] - ref) <= 1e-13 * np.abs(ref))

    def test_large_gamma_stays_finite(self):
        # exp(-gamma (t_i - s_j)) above the diagonal would overflow; and a
        # kernel weight on the diagonal would leave each row a self-term
        # that cancels only to rounding, far above these values near 1e-214
        t = np.linspace(0.0, 10.0, 11)
        w = np.diag(np.sqrt(np.linspace(1.0, 2.0, 11)))
        got = memory_sums(t, 500.0, w, np.ones((11, 1)))[:, 0]
        ref = trapezoid_history(t, w @ w.T, 500.0)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_sweep_tables_match_long_double_reference(self):
        # the expansion d_i + d_j - 2 <grad w_i, grad w_j> of the history
        # cancels where w varies slowly against the memory decay; on real
        # sweep tables it keeps the history to 1e-13 of its largest value
        cfg = ExperimentConfig(params=ModelParams(6.0), n=3,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0), v2="consistent",
                               tau_list=np.array([1e-1, 1e-3, 1e-5]))
        r, k21, _ = panel_rule(np.linspace(0.0, cfg.u0.tail_radius(), 17))
        weights = sphere_area(3) * r ** 4 * k21
        for t, w in _tau_sweep(cfg, r, cfg.history_points,
                               lambda tau, t, w, wt, wtt: (t, w)):
            got = memory_sums(t, 6.0, w, weights[:, None])[:, 0]
            ref = longdouble_history(t, w, weights, 6.0)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _benchmark_relaxation_config(gamma):
    """The benchmark's relaxation data with consistent v2: gaussian u0 and
    u1, 7 tau values from 1e-1 to 1e-3."""
    return ExperimentConfig(params=ModelParams(gamma), n=3,
                            u0=DataSpectrum.gaussian(1.0, 1.0),
                            u1=DataSpectrum.gaussian(1.0, 1.0), v2="consistent",
                            tau_list=np.geomspace(1e-1, 1e-3, 7))


class TestLimitTablesOnce:
    """The tau-independent limit tables are built once per sweep, not once
    per tau."""

    @pytest.mark.parametrize("run, gamma", [(singular_limit_energy, 2.0),
                                            (singular_limit_solution, 6.0)])
    def test_one_limit_solve_per_run(self, monkeypatch, run, gamma):
        import viscowave.experiments as ex

        calls = []
        original = ex._vdw_tables

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ex, "_vdw_tables", counted)
        run(_benchmark_relaxation_config(gamma))
        assert len(calls) == 1


class TestQuarticSolveOnce:
    """The quartics of every tau of a sweep level are solved in one call,
    and each tau's tables are those of a solve at that tau alone."""

    @pytest.mark.parametrize("run, gamma", [(singular_limit_energy, 2.0),
                                            (singular_limit_solution, 6.0)])
    def test_one_quartic_solve_per_level(self, monkeypatch, run, gamma):
        import viscowave.experiments as ex
        import viscowave.spectrum as sp

        rows, levels = [], []
        original, sweep = sp.solve_polynomial_batch, ex._tau_sweep

        def counted(coeffs):
            if coeffs.shape[-1] == 5:
                rows.append(coeffs[..., 0].size)
            return original(coeffs)

        def counted_sweep(config, r, *args):
            levels.append(r.size)
            return sweep(config, r, *args)

        # the sweep's own name and the one behind quartic_char_roots_batch
        monkeypatch.setattr(ex, "solve_polynomial_batch", counted)
        monkeypatch.setattr(sp, "solve_polynomial_batch", counted)
        monkeypatch.setattr(ex, "_tau_sweep", counted_sweep)
        run(_benchmark_relaxation_config(gamma))
        assert levels == [16 * 21]
        assert rows == [7 * 16 * 21]

    @staticmethod
    def per_tau_route(config, r, steps):
        """(w, w_t, w_tt) per tau of ``config`` from a quartic solve at that
        tau alone: quartic_char_roots_batch, _mgt_tables, minus _vdw_tables."""
        t, step = np.linspace(0.0, config.probe_time, steps + 1, retstep=True)
        u0v, u1v, v2v = config.u0(r), config.u1(r), config.v2_values(r)
        limit = _vdw_tables(config.params, r, t, u0v, u1v, step)
        out = []
        for tau in config.tau_list:
            p = config.params.with_tau(tau)
            tables = solved_mgt_tables(p, r, t, u0v, u1v, v2v, step=step)
            out.append([v - u for v, u in zip(tables, limit)])
        return out

    @staticmethod
    def sweep(config, r, steps):
        return _tau_sweep(config, r, steps, lambda tau, t, *tables: tables)

    def test_flags_of_one_tau_reach_the_oracle(self, monkeypatch):
        import viscowave.experiments as ex

        cfg = _benchmark_relaxation_config(2.0)
        # the coalescence radii of tau = 0.01, flagged at that tau only
        flagged = quartic_coalescence_radii(cfg.params.with_tau(cfg.tau_list[3]))
        r = np.concatenate([[0.3, 1.1], flagged, [6.0]])
        flags = np.array([quartic_char_roots_batch(cfg.params.with_tau(tau), r)[3]
                          for tau in cfg.tau_list])
        assert flags.sum() == flagged.size and flags[3, 2:-1].all()
        calls = []
        original = ex.integrate_mgt_mode

        def counted(params, rk, *args, **kwargs):
            calls.append((params.tau, rk))
            return original(params, rk, *args, **kwargs)

        monkeypatch.setattr(ex, "integrate_mgt_mode", counted)
        got = self.sweep(cfg, r, 20)
        assert sorted(calls) == [(cfg.tau_list[3], rk) for rk in flagged]
        for tables, want in zip(got, self.per_tau_route(cfg, r, 20)):
            for a, b in zip(tables, want):
                assert np.array_equal(a, b)

    def test_bit_identical_past_the_ufunc_buffer(self):
        # 128 panels of 21 nodes and 7 tau values: 18,816 quartic rows, whose
        # (4, 18,816) complex amplitude rows pass the 256 KiB from which numpy
        # reuses a temporary operand in place with the operands swapped;
        # there amplitudes batched over tau moved in the last bit
        cfg = _benchmark_relaxation_config(6.0)
        r, _, _ = panel_rule(np.linspace(0.0, cfg.u0.tail_radius(), 129))
        assert r.size * cfg.tau_list.size == 18816
        for tables, want in zip(self.sweep(cfg, r, 4), self.per_tau_route(cfg, r, 4)):
            for a, b in zip(tables, want):
                assert np.array_equal(a, b)


def _sweep_difference(config: ExperimentConfig, r):
    """History grid and (w, w_t, w_tt) tables on the radii ``r`` of the one
    tau of ``config``, through the tau sweep the singular-limit runs use."""
    ((t, tables),) = _tau_sweep(config, r, config.history_points,
                                lambda tau, t, *tables: (t, tables))
    return t, tables


def _mp_differences(gamma, tau, r, data, t, dps=60):
    """(w, w_t, w_tt) at times ``t`` of the relaxed minus the limit mode at
    one frequency, one (3, T) array per (u0, u1, v2) triple of ``data``, to
    ``dps`` digits: roots by ``polyroots``, amplitudes by a Vandermonde
    solve, every float input taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        g, tau, r = (mpmath.mpf(float(x)) for x in (gamma, tau, r))
        r2 = r * r
        cubic = [1, r2 + g, (1 + g) * r2, (g - 1) * r2]
        quartic = [tau, 1 + tau * g] + cubic[1:]
        times = [mpmath.mpf(float(tk)) for tk in t]
        models = []
        for coeffs in (quartic, cubic):
            lam = mpmath.polyroots(coeffs, maxsteps=500, extraprec=4 * dps)
            vander = mpmath.matrix([[x ** m for x in lam] for m in range(len(lam))])
            models.append((lam, vander, [[mpmath.exp(x * tk) for x in lam]
                                         for tk in times]))
        outs = []
        for triple in data:
            u0, u1, v2 = (mpmath.mpc(complex(d)) for d in triple)
            u2 = -r2 * (u0 + u1)
            out = np.zeros((3, len(t)), dtype=complex)
            for (lam, vander, powers), d, sign in zip(
                    models, ([u0, u1, v2, -(v2 - u2) / tau], [u0, u1, u2]), (1, -1)):
                amp = mpmath.lu_solve(vander, mpmath.matrix(d))
                for p in range(3):
                    coef = [amp[j] * x ** p for j, x in enumerate(lam)]
                    out[p] += sign * np.array([complex(mpmath.fdot(coef, e))
                                               for e in powers])
            outs.append(out)
        return outs


class TestTauDifferenceAccuracy:
    """The sweep's w = v - u tables against a 60-digit reference.

    Subtracting the limit mode from the relaxed one cancels down to the
    O(tau) difference, so the error relative to max_t |w| grows like
    eps/tau; the bound pins that growth at 1e3 eps/tau."""

    R = np.array([0.05, 0.3, 1.1, 2.5, 6.0])

    @pytest.mark.parametrize("gamma", [2.0, 6.0])
    @pytest.mark.parametrize("tau", [1e-1, 1e-3])
    def test_difference_tables_near_reference(self, gamma, tau):
        runs = []
        for v2 in (DataSpectrum.zero(), "consistent"):
            cfg = ExperimentConfig(params=ModelParams(gamma), n=3,
                                   u0=DataSpectrum.gaussian(1.0, 1.0),
                                   u1=DataSpectrum.gaussian(1.0, 1.0), v2=v2,
                                   tau_list=np.array([tau]), probe_time=10.0,
                                   history_points=200)
            t, tables = _sweep_difference(cfg, self.R)
            runs.append((tables, list(zip(cfg.u0(self.R), cfg.u1(self.R),
                                          cfg.v2_values(self.R)))))
        assert t.size == 201
        bound = 1e3 * np.finfo(float).eps / tau
        for k, r in enumerate(self.R):
            refs = _mp_differences(gamma, tau, r, [data[k] for _, data in runs], t)
            for (tables, _), ref, v2 in zip(runs, refs, ("zero", "consistent")):
                for name, got, want in zip(("w", "w_t", "w_tt"), tables, ref):
                    err = np.abs(got[:, k] - want).max() / np.abs(want).max()
                    assert err <= bound, (v2, name, r, err / bound)


def _dense_limit_sums(cfg: ExperimentConfig, steps: int, panels: int) -> list:
    """Every summed column of the singular-limit runs of ``cfg``, per tau
    on the sweep grid of ``steps`` steps, from ``panels`` Gauss-Legendre
    panels of 10 nodes between each pair of breaks: 0, the nodes of
    tabulated data and the largest tail radius of the data."""
    spectra = [sp for sp in (cfg.u0, cfg.u1, cfg.v2) if isinstance(sp, DataSpectrum)]
    r_max = max(sp.tail_radius() for sp in spectra)
    breaks = sorted({0.0, r_max, *(x for sp in spectra if sp.kind == "tabulated"
                                   for x in sp.params[0] if 0.0 < x < r_max)})
    edges = np.concatenate([np.linspace(a, b, panels + 1)[:-1]
                            for a, b in zip(breaks, breaks[1:])] + [[r_max]])
    r, weights = _gauss_rule(edges, 10)
    w_s0 = sphere_area(cfg.n) * weights * r ** (cfg.n - 1)
    w_s1 = w_s0 * r * r

    def one_tau(tau, t, w, wt, wtt):
        return dict(e_wtt=tau * (wtt * wtt) @ w_s0, e_grad_wt=(wt * wt) @ w_s1,
                    e_grad_w=(w * w) @ w_s1, e_wt=tau * (wt * wt) @ w_s0,
                    e_memory=memory_sums(t, cfg.params.gamma, w, w_s1[:, None])[:, 0],
                    w_l2_sq=(w * w) @ w_s0)

    return _tau_sweep(cfg, r, steps, one_tau)


class TestSingularLimitSums:
    """The singular-limit sums against dense Gauss-Legendre references.

    The panels are halved until every sum meets its own |K21 - G10|
    estimate, so cases that a fixed grid of 48 panels of 8 Gauss nodes
    misread without notice now match, or raise."""

    @staticmethod
    def config(u0, **kw):
        return ExperimentConfig(params=ModelParams(6.0), n=3, u0=u0,
                                u1=DataSpectrum.gaussian(1.0, 1.0),
                                v2=DataSpectrum.zero(),
                                tau_list=np.geomspace(1e-1, 1e-3, 5), **kw)

    # the fixed grid read ||w||^2 4.7e-3 off at probe_time 100, and 4.4e-2
    # off with a spectrum of width 0.01 (tail radius 43)
    @pytest.mark.parametrize("width, probe", [(1.0, 100.0), (0.01, 10.0)])
    def test_solution_matches_dense_reference(self, width, probe):
        cfg = self.config(DataSpectrum.gaussian(1.0, width), probe_time=probe)
        want = [sums["w_l2_sq"][-1] for sums in _dense_limit_sums(cfg, 1, 800)]
        np.testing.assert_allclose(singular_limit_solution(cfg).w_l2_sq, want,
                                   rtol=1e-9, atol=0)

    def test_tabulated_data_matches_dense_reference(self):
        # the nodes of a tabulated spectrum, where it has kinks, are panel
        # edges; inside fixed panels they left the energy 4e-5 off
        cfg = self.config(DataSpectrum.tabulated([0.0, 0.5, 1.0, 2.0, 3.0],
                                                 [1.0, 0.8, 0.4, 0.1, 0.0]))
        want = [sums["w_l2_sq"][-1] for sums in _dense_limit_sums(cfg, 1, 60)]
        np.testing.assert_allclose(singular_limit_solution(cfg).w_l2_sq, want,
                                   rtol=1e-8, atol=0)
        res = singular_limit_energy(cfg)
        refs = _dense_limit_sums(cfg, cfg.history_points, 60)
        for series, ref in zip(res.series, refs):
            for name, want in ref.items():
                gap = np.abs(getattr(series, name) - want).max()
                assert gap <= 1e-8 * np.abs(want).max(), (series.tau, name)

    def test_unresolved_probe_time_raises(self):
        # at t = 1000 the modes oscillate in r faster than 512 panels
        # resolve; the fixed grid read ||w||^2 about 78% off and passed
        cfg = self.config(DataSpectrum.gaussian(1.0, 1.0), probe_time=1000.0)
        with pytest.raises(RefinementError, match=r"tau=0\.1 .* 512 panels"):
            singular_limit_solution(cfg)

    def test_data_without_positive_support_rejected(self):
        # tabulated data that end at r <= 0 leave no panels on r > 0
        tab = DataSpectrum.tabulated([-2.0, -1.0], [1.0, 1.0])
        cfg = dataclasses.replace(self.config(tab), u1=tab, v2=None)
        with pytest.raises(InvalidParameterError, match="r > 0"):
            singular_limit_solution(cfg)

    @pytest.mark.parametrize("v2", ["zero", "consistent"])
    @pytest.mark.parametrize("run, gamma", [(singular_limit_energy, 2.0),
                                            (singular_limit_solution, 6.0)])
    def test_first_level_meets_the_estimate(self, monkeypatch, run, gamma, v2):
        # the benchmark's relaxation configs: 16 panels of 21 nodes
        import viscowave.experiments as ex

        sizes = []
        original = ex._tau_sweep

        def counted(config, r, *args):
            sizes.append(r.size)
            return original(config, r, *args)

        monkeypatch.setattr(ex, "_tau_sweep", counted)
        run(ExperimentConfig(params=ModelParams(gamma), n=3,
                             u0=DataSpectrum.gaussian(1.0, 1.0),
                             u1=DataSpectrum.gaussian(1.0, 1.0),
                             v2=DataSpectrum.zero() if v2 == "zero" else v2,
                             tau_list=np.geomspace(1e-1, 1e-3, 7)))
        assert sizes == [16 * 21]

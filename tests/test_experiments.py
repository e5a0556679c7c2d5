"""Experiment-harness tests: fits, configs, and the cross-solver route."""

import math
import os

import numpy as np
import pytest

from viscowave import (DataSpectrum, DomainError, ExperimentConfig,
                       InsufficientDataError, InvalidParameterError,
                       ModelParams, PreconditionError, decay_experiment,
                       envelope_check, optimality_check,
                       profile_error_experiment, rate_fit,
                       singular_limit_energy, singular_limit_solution)
from viscowave.experiments import (oracle_mode_comparison, predicted_decay,
                                   thread_map)
from viscowave.spectrum import FrequencyGrid


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
        pred = predicted_decay(0.0, 3, 0.0, 1.0, "u")
        assert pred.exponent == pytest.approx(-0.25)
        pred = predicted_decay(0.0, 1, 0.0, 1.0, "u")
        assert pred.exponent == pytest.approx(0.5)
        pred = predicted_decay(0.0, 2, 0.0, 1.0, "u")
        assert pred.log_half

    def test_moment_free(self):
        pred = predicted_decay(0.0, 3, 0.0, 0.0, "u")
        assert pred.exponent == pytest.approx(-0.75)
        assert not pred.log_half

    def test_velocity_norm(self):
        assert predicted_decay(0.0, 3, 0.0, 1.0, "ut").exponent == pytest.approx(-0.75)
        assert predicted_decay(1.0, 3, 1.0, 0.0, "ut").exponent == pytest.approx(-1.75)


class TestConfigValidation:
    def test_t_grid_must_increase(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             t_grid=np.array([1.0, 1.0, 2.0]))

    def test_window_inside_span(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             t_grid=np.geomspace(10, 100, 10),
                             fit_window=(1.0, 1e5))

    def test_tau_range(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(params=ModelParams(2.0),
                             tau_list=np.array([0.5, 1.5, 0.1]))

    def test_consistent_token_resolution(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), v2="consistent",
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               tau_list=np.geomspace(0.1, 0.001, 3))
        r = np.array([0.5, 1.0])
        vals = cfg.v2_values(r)
        expected = -r * r * (cfg.u0(r) + cfg.u1(r))
        assert np.allclose(vals, expected)


class TestCrossSolverEquivalence:
    def test_slopes_agree_between_kernel_and_oracle(self):
        # reduced-scale decay run on a shared oscillation-resolving grid:
        # swapping the mode solver moves the fitted slope by < 0.01
        t_grid = np.geomspace(15.0, 200.0, 10)
        cap = math.pi / (0.75 * t_grid[-1])
        panels = int(np.ceil(1.0 / cap)) + 8
        fine = FrequencyGrid.composite_gauss(0.0, 1.0, panels=panels, order=6)
        tail = FrequencyGrid.composite_gauss(1.0, 5.0, panels=16, order=6)
        grid = FrequencyGrid(np.concatenate([fine.nodes, tail.nodes]),
                             np.concatenate([fine.weights, tail.weights]))
        slopes = {}
        for solver in ("kernel-grid", "oracle"):
            cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                                   t_grid=t_grid, r_grid=grid,
                                   fit_window=(20.0, 200.0), solver=solver)
            slopes[solver] = decay_experiment(cfg).fit_u.slope
        assert abs(slopes["kernel-grid"] - slopes["oracle"]) < 0.01


class TestProfileExperiment:
    def test_zero_data_gives_zero_error(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u0=DataSpectrum.zero(), u1=DataSpectrum.zero())
        res = profile_error_experiment(cfg)
        assert np.all(res.error_norms == 0.0)
        assert np.all(res.solution_norms == 0.0)


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


class TestThreadMap:
    def test_results_independent_of_worker_count(self, monkeypatch):
        items = list(range(40))

        def fn(i):
            return np.sin(np.linspace(0, i, 50)).sum()

        monkeypatch.setenv("VISCOWAVE_THREADS", "1")
        a = thread_map(fn, items)
        monkeypatch.setenv("VISCOWAVE_THREADS", "8")
        b = thread_map(fn, items)
        assert a == b


class TestRefinementGuard:
    def test_coarse_history_raises(self):
        from viscowave import RefinementError

        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u0=DataSpectrum.gaussian(1.0, 1.0),
                               u1=DataSpectrum.gaussian(1.0, 1.0),
                               v2=DataSpectrum.zero(),
                               tau_list=np.geomspace(1e-1, 1e-3, 5),
                               history_points=6)
        with pytest.raises(RefinementError):
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


class TestPredictedDecayPresence:
    def test_absent_data_drops_terms(self):
        # only the first datum, with vanishing moment: the slow u1 terms
        # must not pollute the prediction
        pred = predicted_decay(0.0, 3, 0.0, 0.0, "u", u1_present=False)
        assert pred.exponent == pytest.approx(-1.25)
        pred = predicted_decay(0.0, 3, 1.0, 0.0, "u", u1_present=False)
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


class TestOneQuadraturePass:
    def test_decay_calls_solution_norm_once_per_time(self, monkeypatch):
        # u and u_t come out of one adaptive pass per time
        import viscowave.experiments as ex

        seen = []
        original = ex.solution_norm

        def counted(config, t, *args, **kwargs):
            seen.append(t)
            return original(config, t, *args, **kwargs)

        monkeypatch.setattr(ex, "solution_norm", counted)
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               t_grid=np.geomspace(100.0, 1e4, 5))
        decay_experiment(cfg)
        assert sorted(seen) == list(cfg.t_grid)


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

        grid = FrequencyGrid.composite_gauss(0.0, 7.5, panels=57, order=7)
        r = grid.nodes
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
        w_s0 = sphere_area(n) * grid.weights * r ** (n - 1)
        w_s1 = sphere_area(n) * grid.weights * r ** (n + 1)
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
        pred = predicted_decay(0.0, 3, 0.0, 0.0, "u", u1_linear=True)
        assert pred.sharp and pred.exponent == pytest.approx(-0.75)
        pred = predicted_decay(0.0, 3, 0.0, 0.0, "u")
        assert not pred.sharp


class TestOracleModeComparison:
    @pytest.mark.parametrize("count", [0, -4])
    def test_count_below_one_is_domain_error(self, count):
        with pytest.raises(DomainError, match="count"):
            oracle_mode_comparison(count=count)

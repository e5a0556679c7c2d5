"""Acceptance suite: one test per criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s`` (or through the full
suite); every criterion prints ``[Cxx] ... PASS/FAIL`` with its measured
values and pinned tolerance before asserting.
"""

import time

import numpy as np
import pytest

from viscowave import (DataSpectrum, ExperimentConfig, ModelParams,
                       asymptotic_roots, cubic_char_roots, decay_experiment,
                       kernel_norm, optimality_check,
                       profile_error_experiment, rate_function,
                       singular_limit_energy, singular_limit_solution)
from viscowave.cli import run_command
from viscowave.experiments import (KERNEL_NORM_FIT_WINDOW,
                                   oracle_mode_comparison, rate_fit)
from viscowave.spectrum import (RESIDUAL_RTOL, cubic_char_roots_batch,
                                cubic_coefficients, quartic_coefficients,
                                solve_polynomial_batch)


def report(cid: str, desc: str, passed: bool, detail: str):
    print(f"[{cid}] {desc}: {detail} {'PASS' if passed else 'FAIL'}")
    assert passed, f"{cid} {desc}: {detail}"


@pytest.fixture(scope="module")
def decay_runs():
    """Shared decay experiments for criteria 5, 6 and 9."""
    runs = {}
    for n in (1, 2, 3):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=n,
                               u1=DataSpectrum.gaussian(1.0, 1.0))
        start = time.perf_counter()
        runs[n] = (cfg, decay_experiment(cfg), time.perf_counter() - start)
    return runs


class TestC01RootResiduals:
    def test_criterion(self):
        # every draw carries its own (gamma, tau, r), so each model is one
        # batched solve (test_spectrum.TestPerRowSolve: rows match
        # single-row calls bit for bit)
        rng = np.random.default_rng(101)
        count = 10_000
        gammas = rng.uniform(1.0 + 1e-4, 10.0, count)
        radii = rng.uniform(0.0, 100.0, count)
        taus = rng.uniform(0.01, 0.99, count)
        worst = 0.0
        worst_conj = 0.0
        for coeffs in (cubic_coefficients(gammas, radii),
                       quartic_coefficients(gammas, taus, radii)):
            roots, resid, scales, _ = solve_polynomial_batch(coeffs)
            worst = max(worst, float((resid / (RESIDUAL_RTOL * scales)).max()))
            gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
            worst_conj = max(worst_conj, float(gap.max()))
        report("C01", "root residuals on 1e4 random draws",
               worst < 1.0 and worst_conj <= 1e-12,
               f"max residual/bound={worst:.3e} (<1), "
               f"max conjugation gap={worst_conj:.1e} (<=1e-12)")


class TestC02ExpansionOrders:
    @staticmethod
    def _gap(params, r, zone, eps_cut=0.1):
        approx = asymptotic_roots(params, r, zone, eps_cut=eps_cut)
        exact = cubic_char_roots(params, r)
        order = np.argmin(np.abs(exact.roots[:, None] - approx.roots[None, :]),
                          axis=1)
        return float(np.abs(exact.roots - approx.roots[order]).max())

    def test_criterion(self):
        checks = []
        for g in (1.5, 2.0, 6.0):
            p = ModelParams(g)
            small = [self._gap(p, r, "small") / r ** 3 for r in (1e-2, 1e-3)]
            large = [self._gap(p, r, "large") * r for r in (1e2, 1e3)]
            checks.append((g, small[1] / small[0], large[1] / large[0]))
        ok = all(s < 3.0 and l < 3.0 for _, s, l in checks)
        detail = "; ".join(f"g={g}: small ratio {s:.3f}, large ratio {l:.3f}"
                           for g, s, l in checks)
        report("C02", "expansion remainders bounded toward the limit (<3x)",
               ok, detail)


class TestC03BoundedZoneStability:
    def test_criterion(self):
        worst = {}
        for g in (1.1, 2.0, 6.0):
            nodes = np.linspace(0.1, 10.0, 1000)
            roots, _, _, _ = cubic_char_roots_batch(ModelParams(g), nodes)
            worst[g] = float(roots.real.max())
        ok = all(v < 0 for v in worst.values())
        report("C03", "spectral abscissa negative on [eps, N], 1e3 nodes",
               ok, "; ".join(f"g={g}: max Re={v:.3e}" for g, v in worst.items()))


class TestC04OracleEquivalence:
    def test_criterion(self):
        res = oracle_mode_comparison(count=50, seed=404)
        report("C04", "kernel vs integrator on 50+50 random modes",
               res.worst <= 1e-6, f"max relative gap={res.worst:.3e} (<=1e-6)")


class TestC05DecayRates:
    def test_criterion(self, decay_runs):
        _, r3, dt3 = decay_runs[3]
        _, r1, dt1 = decay_runs[1]
        _, r2, dt2 = decay_runs[2]
        ok3 = abs(r3.fit_u.slope + 0.25) <= 0.05
        ok1 = abs(r1.fit_u.slope - 0.50) <= 0.05
        ok2 = r2.log_ratio_spread is not None and r2.log_ratio_spread < 20.0
        ok_time = max(dt1, dt2, dt3) <= 30.0
        report("C05", "decay rates n=3/n=1/n=2",
               ok3 and ok1 and ok2 and ok_time,
               f"n=3 slope={r3.fit_u.slope:.4f} (-0.25±0.05), "
               f"n=1 slope={r1.fit_u.slope:.4f} (+0.50±0.05), "
               f"n=2 log-ratio spread={r2.log_ratio_spread:.2f} (<20), "
               f"max runtime={max(dt1, dt2, dt3):.1f}s (<=30s/dim)")


class TestC06DerivativeDecay:
    def test_criterion(self, decay_runs):
        _, r3, _ = decay_runs[3]
        ok = abs(r3.fit_ut.slope + 0.75) <= 0.07
        report("C06", "velocity-norm decay n=3",
               ok, f"slope={r3.fit_ut.slope:.4f} (-0.75±0.07)")


class TestC07MomentFree:
    def test_criterion(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               u1=DataSpectrum.linear_gaussian(1.0, 1.0))
        res = decay_experiment(cfg)
        ok = abs(res.fit_u.slope + 0.75) <= 0.07
        report("C07", "moment-free improvement n=3",
               ok, f"slope={res.fit_u.slope:.4f} (-0.75±0.07)")


class TestC08ProfileRefinement:
    def test_criterion(self):
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               t_grid=np.geomspace(50.0, 1.2e5, 28))
        res = profile_error_experiment(cfg)
        ok_err = res.fit_error.slope <= -0.68
        ok_sol = abs(res.fit_solution.slope + 0.25) <= 0.05
        ok_mono = res.ratio_monotone_beyond(1e3)
        report("C08", "profile refinement n=3",
               ok_err and ok_sol and ok_mono,
               f"error slope={res.fit_error.slope:.4f} (<=-0.68), "
               f"solution slope={res.fit_solution.slope:.4f} (-0.25±0.05), "
               f"ratio monotone beyond 1e3: {ok_mono}")


class TestC09TwoSidedOptimality:
    def test_criterion(self, decay_runs):
        details = []
        ok = True
        for n in (1, 2, 3):
            cfg, _, _ = decay_runs[n]
            rep = optimality_check(cfg)
            ok = ok and rep.spread < 20.0
            details.append(f"n={n}: spread={rep.spread:.3f}")
        report("C09", "norm/H(t;n) two-sided bounded (spread<20)",
               ok, "; ".join(details))


class TestC10KernelNormRates:
    def test_criterion(self):
        p = ModelParams(2.0)
        ts = np.geomspace(*KERNEL_NORM_FIT_WINDOW, 9)
        cos_ok = True
        details = []
        for s, n in ((0.0, 3), (1.0, 3), (0.0, 1)):
            vals = np.array([kernel_norm(t, s, n, "cos_part", p) for t in ts])
            fit = rate_fit(ts, vals, (ts[0], ts[-1]))
            want = -s / 2 - n / 4
            cos_ok = cos_ok and abs(fit.slope - want) <= 0.05
            details.append(f"cos({s:g},{n}): {fit.slope:.4f} vs {want}")
        sin_ok = True
        for s, n in ((0.0, 1), (0.0, 2), (0.75, 1), (0.0, 3)):
            vals = np.array([kernel_norm(t, s, n, "sin_part", p) for t in ts])
            ratio = vals / rate_function("G", ts, s=s, n=n)
            spread = ratio.max() / ratio.min()
            sin_ok = sin_ok and np.isfinite(spread) and spread < 20.0
            details.append(f"sin({s:g},{n}): ratio spread {spread:.2f}")
        report("C10", "kernel-norm slopes and G-ratios",
               cos_ok and sin_ok, "; ".join(details))


class TestC11SingularLimitEnergy:
    def test_criterion(self):
        details = []
        ok = True
        for label, v2, want in (("inconsistent", DataSpectrum.zero(), 1.0),
                                ("consistent", "consistent", 2.0)):
            cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                                   u0=DataSpectrum.gaussian(1.0, 1.0),
                                   u1=DataSpectrum.gaussian(1.0, 1.0),
                                   v2=v2, tau_list=np.geomspace(1e-1, 1e-3, 7))
            start = time.perf_counter()
            res = singular_limit_energy(cfg)
            elapsed = time.perf_counter() - start
            slope_ok = abs(res.fit_sup.slope - want) <= 0.1
            if res.w2_norm_sq > 0:
                rel = float(np.max(np.abs(res.es0_values
                                          - cfg.tau_list * res.w2_norm_sq)
                                   / (cfg.tau_list * res.w2_norm_sq)))
            else:
                rel = float(np.max(np.abs(res.es0_values)))
            init_ok = rel <= 1e-8
            ok = ok and slope_ok and init_ok and elapsed <= 60.0
            details.append(f"{label}: slope={res.fit_sup.slope:.4f} "
                           f"({want}±0.1), E(0) rel={rel:.1e}, {elapsed:.1f}s")
        report("C11", "energy convergence in tau", ok, "; ".join(details))


class TestC12SingularLimitSolution:
    def test_criterion(self):
        details = []
        ok = True
        for label, v2, floor in (("inconsistent", DataSpectrum.zero(), 0.9),
                                 ("consistent", "consistent", 1.9)):
            cfg = ExperimentConfig(params=ModelParams(6.0), n=3,
                                   u0=DataSpectrum.gaussian(1.0, 1.0),
                                   u1=DataSpectrum.gaussian(1.0, 1.0),
                                   v2=v2, tau_list=np.geomspace(1e-1, 1e-3, 7))
            res = singular_limit_solution(cfg)
            ok = ok and res.fit.slope >= floor
            details.append(f"{label}: slope={res.fit.slope:.4f} (>={floor})")
        report("C12", "solution convergence in tau (gamma=6)", ok,
               "; ".join(details))


class TestC13Determinism:
    def test_criterion(self, tmp_path):
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(
            "gamma = 2.0\nn = 3\nt.points = 10\nt.min = 60\nt.max = 1.5e4\n"
            "data.u1 = gaussian:1.0,1.0\n", encoding="utf-8")
        payloads = {}
        for run in (1, 2):
            for command in ("decay", "roots", "singular-limit-energy"):
                out = tmp_path / f"{command}-{run}.csv"
                rc = run_command([command, "--config", str(cfg_path),
                                  "--out", str(out)])
                assert rc == 0
                body = b"\n".join(
                    ln for ln in out.read_bytes().split(b"\n")
                    if not ln.startswith(b"# timestamp="))
                payloads.setdefault(command, []).append(body)
        ok = all(a == b for a, b in payloads.values())
        report("C13", "byte-identical CSV across two runs", ok,
               ", ".join(f"{command} identical={a == b}"
                         for command, (a, b) in payloads.items()))

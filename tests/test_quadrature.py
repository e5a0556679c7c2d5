"""Radial norm quadrature, data spectra and rate-function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave import (DataSpectrum, DomainError, InvalidParameterError,
                       ModelParams, TruncationError, kernel_norm,
                       l2_norm_radial, rate_function, sphere_area)
from viscowave import quadrature
from viscowave.experiments import ExperimentConfig, _norm_series, solution_norm
from viscowave.quadrature import adaptive_integral, adaptive_integrals, l2_norms_radial


def gaussian_norm_exact(amplitude, width, n, s):
    """Closed form of || |D|^s f || for spectrum amplitude*exp(-width r^2):
    omega_n a^2 Gamma(s + n/2) / (2 (2 width)^(s + n/2))."""
    return math.sqrt(sphere_area(n) * amplitude ** 2
                     * math.gamma(s + n / 2) / (2 * (2 * width) ** (s + n / 2)))


class TestDataSpectrum:
    def test_moments(self):
        assert DataSpectrum.gaussian(2.5, 1.0).moment == 2.5
        assert DataSpectrum.gaussian_diff(1.0, 1.0, 2.0).moment == 0.0
        assert DataSpectrum.linear_gaussian(3.0, 1.0).moment == 0.0
        assert DataSpectrum.zero().is_zero

    def test_physical_moment_conversion(self):
        sp = DataSpectrum.gaussian(1.0, 1.0)
        assert sp.physical_moment(3) == pytest.approx((2 * math.pi) ** 1.5)

    def test_tabulated_interpolation(self):
        sp = DataSpectrum.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
        assert sp(0.5) == pytest.approx(0.75)
        assert sp(3.0) == 0.0          # beyond the table
        assert sp.moment == 1.0
        assert sp.tail_radius() == 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DataSpectrum.gaussian(1.0, -1.0)
        with pytest.raises(InvalidParameterError):
            DataSpectrum.tabulated([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            DataSpectrum("mystery", (1.0,))

    @pytest.mark.parametrize("make", [
        lambda: DataSpectrum.gaussian(math.nan, 1.0),
        lambda: DataSpectrum.gaussian(1.0, math.inf),
        lambda: DataSpectrum.gaussian_diff(1.0, 1.0, math.nan),
        lambda: DataSpectrum.linear_gaussian(-math.inf, 1.0),
        lambda: DataSpectrum.tabulated([0.0, math.nan, 2.0], [1.0, 0.5, 0.0]),
        lambda: DataSpectrum.tabulated([0.0, 1.0, 2.0], [1.0, math.nan, 0.0]),
    ])
    def test_non_finite_parameter_rejected(self, make):
        # NaN passes a `width <= 0` check; left through, it makes a decay
        # run spin to the panel cap instead of failing at once
        with pytest.raises(InvalidParameterError):
            make()


class TestRadialNorm:
    def test_zero_spectrum(self):
        assert l2_norm_radial(DataSpectrum.zero(), n=3, s=0) == 0.0

    def test_gaussian_closed_form_examples(self):
        # n=3, s=0: norm^2 = 4 pi * sqrt(2 pi)/16 -> (pi/2)^(3/4)
        got = l2_norm_radial(DataSpectrum.gaussian(1.0, 1.0), n=3, s=0)
        assert got == pytest.approx((math.pi / 2) ** 0.75, rel=1e-9)
        # n=1, s=1: norm^2 = 2 * sqrt(2 pi)/16
        got = l2_norm_radial(DataSpectrum.gaussian(1.0, 1.0), n=1, s=1)
        assert got == pytest.approx(math.sqrt(math.sqrt(2 * math.pi) / 8), rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_gaussian_grid(self, n, s):
        for width in (0.6, 1.0, 2.3):
            got = l2_norm_radial(DataSpectrum.gaussian(1.3, width), n=n, s=s)
            assert got == pytest.approx(gaussian_norm_exact(1.3, width, n, s),
                                        rel=1e-9)

    def test_plancherel_against_physical_space(self):
        # exp(-|x|^2/2) has unitary transform exp(-|xi|^2/2) and L2 norm
        # pi^(n/4)
        for n in (1, 2, 3):
            got = l2_norm_radial(DataSpectrum.gaussian(1.0, 0.5), n=n, s=0)
            assert got == pytest.approx(math.pi ** (n / 4), rel=1e-9)

    def test_zone_partition_is_exact(self):
        # at width 1 the large zone is empty to rounding; at width 0.01
        # most of the mass lies past n_cut = 10, in the mapped variable
        for width in (1.0, 0.01):
            sp = DataSpectrum.gaussian(1.0, width)
            total = l2_norm_radial(sp, n=3, s=0, zone_filter="all")
            pieces = [l2_norm_radial(sp, n=3, s=0, zone_filter=z)
                      for z in ("small", "bounded", "large")]
            assert total ** 2 == pytest.approx(sum(x ** 2 for x in pieces),
                                               rel=1e-10)

    @pytest.mark.parametrize("width", [0.01, 0.05])
    def test_large_zone_closed_form(self, width):
        # int_a^inf r^2 e^(-b r^2) dr
        #   = a e^(-b a^2) / (2 b) + sqrt(pi) / (4 b^(3/2)) erfc(sqrt(b) a)
        # with b = 2 width for |f|^2 and a = n_cut
        a, b = quadrature.DEFAULT_N_CUT, 2.0 * width
        tail = (a * math.exp(-b * a * a) / (2 * b)
                + math.sqrt(math.pi) / (4 * b ** 1.5) * math.erfc(math.sqrt(b) * a))
        got = l2_norm_radial(DataSpectrum.gaussian(1.0, width), n=3, s=0,
                             zone_filter="large")
        assert got == pytest.approx(math.sqrt(4 * math.pi * tail), rel=1e-9)

    @pytest.mark.parametrize("zone", [None, "all", "small", "bounded", "large"])
    def test_one_adaptive_pass_per_norm(self, monkeypatch, zone):
        # the zone cuts are panel edges of one pass, not separate integrals
        inner = quadrature.adaptive_integral
        calls = []

        def counting(f, a, b, **kwargs):
            calls.append((a, b))
            return inner(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_integral", counting)
        sp = DataSpectrum.gaussian(1.0, 0.05)     # tail radius 20 > n_cut
        l2_norm_radial(sp, n=3, s=0, zone_filter=zone)
        assert len(calls) == 1

    def test_refinement_changes_less_than_reported_error(self):
        sp = DataSpectrum.gaussian(1.0, 1.0)
        loose, err = l2_norm_radial(sp, n=3, s=0, rel_tol=1e-6, full_output=True)
        tight = l2_norm_radial(sp, n=3, s=0, rel_tol=1e-12)
        assert abs(loose - tight) <= max(err, 1e-12 * tight)

    def test_argument_validation(self):
        sp = DataSpectrum.gaussian(1.0, 1.0)
        with pytest.raises(DomainError):
            l2_norm_radial(sp, n=0, s=0)
        with pytest.raises(DomainError):
            l2_norm_radial(sp, n=3, s=-1)
        with pytest.raises(DomainError):
            l2_norm_radial(sp, n=3, s=0, zone_filter="everything")
        # an empty small zone would read as a zero norm
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(DomainError, match="eps_cut"):
                l2_norm_radial(sp, n=3, s=0, zone_filter="small", eps_cut=eps)
        # the large-zone map r = n_cut / (n_cut + 1 - y) needs a finite
        # n_cut above eps_cut; nan and -1 read a silent 0 without the check
        for cut in (math.nan, -1.0, 0.05, math.inf):
            for zone in (None, "large"):
                with pytest.raises(DomainError, match="n_cut"):
                    l2_norm_radial(sp, n=3, s=0, zone_filter=zone, n_cut=cut)

    def test_truncation_reported(self):
        # a spectrum that does not decay raises, from the depth cap or
        # the panel budget
        with pytest.raises(TruncationError):
            l2_norm_radial(lambda r: np.ones_like(r), n=3, s=0)

    def test_bare_callable_needs_no_r_max(self):
        # the large zone is mapped onto a finite variable, so a bare
        # callable is integrated to infinity with no tail radius given
        got = l2_norm_radial(lambda r: np.exp(-r * r), n=3, s=0)
        assert got == pytest.approx((math.pi / 2) ** 0.75, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(amp=st.floats(0.1, 5.0), width=st.floats(0.3, 3.0))
    def test_scaling_property(self, amp, width):
        base = l2_norm_radial(DataSpectrum.gaussian(1.0, width), n=2, s=1)
        scaled = l2_norm_radial(DataSpectrum.gaussian(amp, width), n=2, s=1)
        assert scaled == pytest.approx(amp * base, rel=1e-9)


class TestAdaptiveIntegral:
    def test_known_integral(self):
        val, err = adaptive_integral(lambda r: np.sin(r) ** 2, 0.0, math.pi)
        assert val == pytest.approx(math.pi / 2, rel=1e-12)
        assert err < 1e-9

    def test_oscillation_cap_prevents_aliasing(self):
        # sin^2(k r) over many periods: an uncapped coarse panel may alias;
        # the cap guarantees resolution
        k = 500.0
        val, _ = adaptive_integral(lambda r: np.sin(k * r) ** 2, 0.0, 1.0,
                                   cap_segments=[(0.0, 1.0, math.pi / k)])
        assert val == pytest.approx(0.5 - math.sin(2 * k) / (4 * k), rel=1e-10)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            adaptive_integral(lambda r: r, 1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_bound_rejected(self, a, b):
        # an infinite bound passes `b > a`; left through, its nodes are NaN
        with pytest.raises(DomainError, match="finite"):
            adaptive_integral(lambda r: np.exp(-r * r), a, b)

    def test_nan_integrand_reported(self):
        # not a convergence failure: the panel cap must not be what stops it
        with pytest.raises(TruncationError, match="non-finite"):
            adaptive_integral(lambda r: np.full_like(r, math.nan), 0.0, 1.0)

    def test_infinite_node_value_reported(self):
        # the midpoint of [0, 1] is a node of the first round; an infinite
        # value there must not be dropped by refining around it
        with pytest.raises(TruncationError, match="non-finite"):
            adaptive_integral(lambda r: np.where(r == 0.5, math.inf, 1.0),
                              0.0, 1.0)

    def test_depth_capped_panels_reported(self):
        # a jump off the dyadic points never converges; at depth 4 the
        # panel holding it still carries an error far above rel_tol
        with pytest.raises(TruncationError, match="max_depth=4"):
            adaptive_integral(lambda r: (r > 1.0 / 3.0).astype(float), 0.0, 1.0,
                              max_depth=4)

    def test_panel_budget_enforced(self, monkeypatch):
        # the same jump at the default depth cap splits past a small budget
        monkeypatch.setattr(quadrature, "MAX_PANELS", 20)
        with pytest.raises(TruncationError, match="exceeded 20 panels"):
            adaptive_integral(lambda r: (r > 1.0 / 3.0).astype(float), 0.0, 1.0)


@pytest.fixture
def qk21():
    """The QUADPACK qk21 constants: 21 Kronrod nodes on [-1, 1], the K21
    weights and the G10 weights (zero on the Kronrod-only nodes)."""
    return quadrature._KR_X, quadrature._KR_W, quadrature._G10_W


class TestKronrodTable:
    def test_shapes_and_symmetry(self, qk21):
        x, wk, wg = qk21
        assert x.shape == wk.shape == wg.shape == (21,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(wk, wk[::-1])
        assert np.array_equal(wg, wg[::-1])

    def test_weights_sum_to_two(self, qk21):
        _, wk, wg = qk21
        assert wk.sum() == pytest.approx(2.0, abs=1e-15)
        assert wg.sum() == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("rule, degree", [(1, 31), (2, 19)], ids=["K21", "G10"])
    def test_polynomial_exactness(self, qk21, rule, degree):
        x, w = qk21[0], qk21[rule]
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert (w * x ** d).sum() == pytest.approx(exact, abs=1e-15)
        # and not one degree more (x^(degree + 1) is even)
        d = degree + 1
        assert abs((w * x ** d).sum() - 2.0 / (d + 1)) > 1e-13

    def test_gauss_nodes_are_the_odd_kronrod_nodes(self, qk21):
        x, _, wg = qk21
        assert np.all(wg[0::2] == 0.0)
        gx, gw = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(x[1::2], gx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(wg[1::2], gw, rtol=0, atol=1e-15)


class TestPanelRule:
    def test_one_panel_is_the_scaled_table(self, qk21):
        x, wk, wg = qk21
        r, k21, g10 = quadrature.panel_rule([1.0, 3.0])
        np.testing.assert_allclose(r, 2.0 + x, rtol=0, atol=1e-15)
        assert np.array_equal(k21, wk) and np.array_equal(g10, wg)

    def test_nodes_avoid_edges_and_integrate_polynomials(self):
        # uneven panels; K21 is exact to degree 31 and G10 to 19 on each
        edges = np.array([0.0, 0.5, 2.0, 5.0])
        r, k21, g10 = quadrature.panel_rule(edges)
        assert r.shape == k21.shape == g10.shape == (63,)
        assert np.all(np.diff(r) > 0) and 0.0 < r[0] and r[-1] < 5.0
        assert not np.isin(edges, r).any()
        for w, degree in ((k21, 31), (g10, 19)):
            exact = 5.0 ** (degree + 1) / (degree + 1)
            assert (w * r ** degree).sum() == pytest.approx(exact, rel=1e-13)
        # at degree 31 G10 is off and K21 is not: the gap is the estimate
        assert abs(((k21 - g10) * r ** 31).sum()) > 1e-10 * 5.0 ** 32 / 32


def _counted(f):
    """Wrap an integrand; the list holds the node count of each call."""
    nodes = []

    def wrapped(r):
        nodes.append(r.size)
        return f(r)
    return wrapped, nodes


class TestVectorIntegrand:
    def test_components_refined_together(self):
        # sin^2(r) settles on the first panel, sin^2(40 r) needs many more;
        # the stack shares the panels the harder component needs
        b = 3.0
        ks = (1.0, 40.0)
        stacked, n_stack = _counted(
            lambda r: np.stack([np.sin(k * r) ** 2 for k in ks]))
        val, err = adaptive_integral(stacked, 0.0, b)
        assert val.shape == err.shape == (2,)
        counts = []
        for i, k in enumerate(ks):
            scalar, n_scalar = _counted(lambda r, k=k: np.sin(k * r) ** 2)
            alone, _ = adaptive_integral(scalar, 0.0, b)
            assert isinstance(alone, float)
            counts.append(sum(n_scalar))
            exact = b / 2 - math.sin(2 * k * b) / (4 * k)
            assert val[i] == pytest.approx(alone, rel=1e-9)
            assert val[i] == pytest.approx(exact, rel=1e-9)
        assert counts[0] < counts[1]
        assert sum(n_stack) == counts[1]

    def test_one_depth_capped_component_reported(self):
        # the smooth component converges everywhere; the jump alone is
        # left capped at depth 4 and must still be reported
        def f(r):
            return np.stack([r * r, (r > 1.0 / 3.0).astype(float)])

        with pytest.raises(TruncationError, match="max_depth=4"):
            adaptive_integral(f, 0.0, 1.0, max_depth=4)
        val, _ = adaptive_integral(lambda r: f(r)[:1], 0.0, 1.0, max_depth=4)
        assert val[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_radial_norm_per_component(self):
        widths = (0.6, 2.3)

        def stack(r):
            return np.stack([np.exp(-w * r * r) for w in widths])

        got = l2_norm_radial(stack, n=3, s=1)
        assert got.shape == (2,)
        for g, w in zip(got, widths):
            assert g == pytest.approx(gaussian_norm_exact(1.0, w, 3, 1), rel=1e-9)
        norms, errs = l2_norm_radial(stack, n=3, s=1, full_output=True)
        assert np.array_equal(norms, got) and errs.shape == (2,)

    def test_radial_non_decaying_component_raises(self):
        # the first component converges; the second decays like r^-1.4,
        # whose squared norm at n = 3 diverges, so its mapped integrand
        # grows without bound towards y = n_cut + 1
        def stack(r):
            return np.stack([np.exp(-r * r), (1.0 + r * r) ** -0.7])

        with pytest.raises(TruncationError):
            l2_norm_radial(stack, n=3, s=0)


class TestNodeBudget:
    def test_decay_norms_use_one_kronrod_pass_per_panel(self, monkeypatch):
        # the bench decay config (C05, n = 3) at its five fit-window times,
        # whose norms share each round's field calls; one 21-node evaluation
        # per panel and round gives 7,182 nodes; a rule that evaluates
        # panels again (45 nodes a panel) fails
        inner = quadrature.adaptive_integrals
        sizes = []

        def counting(f, *args, **kwargs):
            def counted(ks, nodes):
                sizes.extend(x.size for x in nodes)
                return f(ks, nodes)
            return inner(counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_integrals", counting)
        cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                               t_grid=np.geomspace(100.0, 1e4, 5))
        norms = _norm_series(cfg)
        assert norms.shape == (2, 5) and np.all(norms > 0)
        assert sizes and all(k % 21 == 0 for k in sizes)
        assert sum(sizes) <= 9000


class TestLockstep:
    """adaptive_integrals: K problems sharing the integrand's calls."""

    BOUNDS = [(0.0, 1.0), (0.0, 2.0), (-1.0, 3.0), (0.5, 0.75), (0.0, math.pi)]
    CAPS = [None, [(0.0, 2.0, 0.1)], None, [(0.5, 0.6, 0.01)], [(1.0, 2.0, 0.5)]]
    FREQ = [1.0, 7.0, 40.0, 3.0, 0.5]

    @classmethod
    def _integrand(cls, k):
        # a (2, P) stack: each problem refines as far as its own needs
        return lambda x: np.stack([np.sin(cls.FREQ[k] * x) ** 2,
                                   np.exp(-cls.FREQ[k] * x * x)])

    @pytest.mark.parametrize("budget", [21, 200, 4096])
    def test_problems_equal_separate_calls(self, monkeypatch, budget):
        # whatever the packing, every problem sees the values a call of
        # its own would see, and no problem is split across calls
        monkeypatch.setattr(quadrature, "LOCKSTEP_NODES", budget)
        calls = []

        def f(ks, nodes):
            calls.append([x.size for x in nodes])
            return [self._integrand(k)(x) for k, x in zip(ks, nodes)]

        got = adaptive_integrals(f, self.BOUNDS, cap_segments=self.CAPS)
        for k, (a, b) in enumerate(self.BOUNDS):
            alone = adaptive_integral(self._integrand(k), a, b,
                                      cap_segments=self.CAPS[k])
            for x, y in zip(got[k], alone):
                assert np.array_equal(x, y)
        assert all(len(c) == 1 or sum(c) <= budget for c in calls)
        if budget == 4096:
            assert len(calls[0]) == len(self.BOUNDS)

    def test_truncation_names_its_problem(self):
        def f(ks, nodes):
            return [np.full_like(x, math.nan) if k == 1 else np.ones_like(x)
                    for k, x in zip(ks, nodes)]

        with pytest.raises(TruncationError, match="^t=2: integrand returned non-finite"):
            adaptive_integrals(f, [(0.0, 1.0)] * 3, names=["t=1", "t=2", "t=3"])

    def test_bad_bounds_raise(self):
        with pytest.raises(DomainError, match="empty"):
            adaptive_integrals(lambda ks, nodes: nodes, [(0.0, 1.0), (1.0, 1.0)])

    def test_radial_norms_equal_separate_norms(self):
        # l2_norms_radial equals l2_norm_radial of each spectrum, bit for bit
        widths = [1.0, 0.05, 3.0]
        caps = [None, [(0.0, 5.0, 0.2)], [(0.0, 0.1, 0.01)]]

        def field(ks, radii):
            return [DataSpectrum.gaussian(1.0, widths[k])(r) for k, r in zip(ks, radii)]

        got = l2_norms_radial(field, caps, 3, 0.5)
        for k, width in enumerate(widths):
            assert got[k] == l2_norm_radial(DataSpectrum.gaussian(1.0, width), 3, 0.5,
                                            cap_segments=caps[k])


class TestFarTail:
    @pytest.mark.parametrize("t", [0.3, 30.0])
    def test_norm_independent_of_far_tail(self, t):
        # u1 = exp(-w r^2) with w -> 0: the mode kernels decay on their own
        # at large r, so every tiny width gives the same norms, however far
        # past n_cut the data's tail radius (~4e150 at w = 1e-300) lies
        norms = []
        for width in (1e-300, 1e-40, 1e-20):
            cfg = ExperimentConfig(params=ModelParams(2.0), n=3,
                                   u1=DataSpectrum.gaussian(1.0, width))
            norms.append(solution_norm(cfg, t))
        for got in norms[1:]:
            np.testing.assert_allclose(got, norms[0], rtol=1e-8)


class TestKernelNorm:
    def test_argument_validation(self):
        p = ModelParams(2.0)
        with pytest.raises(DomainError):
            kernel_norm(1.0, 0.0, 3, "tan_part", p)
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                kernel_norm(t, 0.0, 3, "sin_part", p)
        with pytest.raises(DomainError):
            kernel_norm(1.0, -0.5, 3, "cos_part", p)
        with pytest.raises(DomainError):
            kernel_norm(1.0, 0.0, 0, "sin_part", p)
        # eps_cut = 0 divided by zero in the cap width before this check
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(DomainError, match="eps_cut"):
                kernel_norm(10.0, 0.0, 3, "cos_part", p, eps_cut=eps)

    def test_log_branch_computable(self):
        # 2s + n = 2 must be evaluable for t > 0 (sin^2 regularises r = 0)
        p = ModelParams(2.0)
        val = kernel_norm(100.0, 0.0, 2, "sin_part", p)
        assert np.isfinite(val) and val > 0

    def test_cos_norm_against_half_average(self):
        # once the oscillation has averaged out, the cos^2 weight halves
        # the plain Gaussian norm
        p = ModelParams(2.0)
        t = 1e5
        got = kernel_norm(t, 0.0, 3, "cos_part", p)
        plain = gaussian_norm_exact(1.0, p.parabolic_decay * t, 3, 0.0)
        assert got == pytest.approx(plain / math.sqrt(2.0), rel=1e-3)

    @pytest.mark.parametrize("t", [1.0, 100.0, 1e3])
    @pytest.mark.parametrize("s, n", [(0.0, 3), (0.0, 1), (0.75, 1)])
    @pytest.mark.parametrize("part", ["cos_part", "sin_part"])
    def test_against_mpmath_quadrature(self, part, s, n, t):
        # the same integral over the small zone [0, eps_cut] at 30 digits,
        # split at every oscillation period pi / (gamma_tilde t)
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(2.0)
        eps = 0.1
        with mpmath.workdps(30):
            phase = mpmath.sqrt(mpmath.mpf(1) / 2) * t       # gamma_tilde t
            decay = 2 * mpmath.mpf(5) / 8 * t                 # 2 c t, c = 5/8
            trig, power = ((mpmath.cos, 2 * s + n - 1) if part == "cos_part"
                           else (mpmath.sin, 2 * s + n - 3))

            def f(r):
                return trig(phase * r) ** 2 * mpmath.exp(-decay * r * r) \
                    * r ** power

            cuts = [mpmath.mpf(0)]
            while cuts[-1] + mpmath.pi / phase < eps:
                cuts.append(cuts[-1] + mpmath.pi / phase)
            cuts.append(mpmath.mpf(eps))
            area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            want = float(mpmath.sqrt(area * mpmath.quad(f, cuts)))
        assert kernel_norm(t, s, n, part, p) == pytest.approx(want, rel=1e-8)


class TestRateFunction:
    def test_known_values(self):
        assert rate_function("H", 100.0, n=1) == pytest.approx(10.0)
        assert rate_function("kappa", 7.0, n=3) == 1.0
        assert rate_function("kappa", 7.0, n=2) == pytest.approx(math.log(math.e + 7))
        assert rate_function("G", 5.0, s=0.5, n=1) == pytest.approx(
            math.sqrt(math.log(math.e + 5)))

    def test_case_selection(self):
        t = 50.0
        assert rate_function("G", t, s=0.0, n=1) == pytest.approx((1 + t) ** 0.5)
        assert rate_function("G", t, s=0.25, n=2) == pytest.approx(
            (1 + t) ** (1 - 5 * 0.25 / 6 - 5 * 2 / 12))
        assert rate_function("G", t, s=0.0, n=3) == pytest.approx((1 + t) ** -0.25)
        assert rate_function("H", t, n=5) == pytest.approx(t ** (0.5 - 1.25))

    def test_positivity_on_windows(self):
        t = np.geomspace(2.0, 1e6, 40)
        for kind, s in (("G", 0.0), ("G", 1.0), ("H", None), ("kappa", None)):
            for n in (1, 2, 3, 4):
                vals = rate_function(kind, t, s=s, n=n)
                assert np.all(vals > 0)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            rate_function("Q", 1.0, n=1)
        with pytest.raises(DomainError):
            rate_function("G", 1.0, n=1)        # missing s
        with pytest.raises(DomainError):
            rate_function("H", 0.0, n=1)

    def test_log_rate_domain(self):
        # H(t; 2) = sqrt(log t) has no real value for t < 1 and vanishes at 1
        for t in (0.5, 1.0, np.array([0.5, 2.0])):
            with pytest.raises(DomainError):
                rate_function("H", t, n=2)
        assert rate_function("H", math.e ** 4, n=2) == pytest.approx(2.0)


class TestRateCaseBoundaries:
    def test_bounded_jump_across_branches(self):
        # piecewise branches need not be continuous, but adjacent values
        # stay within a bounded factor on the fit windows
        t = 100.0
        d = 1e-9
        # 2s + n = 2 boundary (n=1, s=1/2)
        vals = [rate_function("G", t, s=0.5 + k * d, n=1) for k in (-1, 0, 1)]
        for a in vals:
            for b in vals:
                assert a / b < 10.0
        # 2s + n = 3 boundary (n=1, s=1)
        vals = [rate_function("G", t, s=1.0 + k * d, n=1) for k in (-1, 0, 1)]
        for a in vals:
            for b in vals:
                assert a / b < 10.0


class TestSinNormTwoSided:
    def test_ratio_to_sharp_rate_bounded_both_ways(self):
        # the (s=0, n=3) sin norm is two-sided comparable to t^(-1/4)
        p = ModelParams(2.0)
        ts = np.geomspace(1e4, 1e6, 7)
        vals = np.array([kernel_norm(t, 0.0, 3, "sin_part", p) for t in ts])
        ratio = vals / rate_function("H", ts, n=3)
        assert ratio.min() > 0.1
        assert ratio.max() < 10.0
        assert ratio.max() / ratio.min() < 1.5


class TestCosNormSlopeOnDecayWindow:
    def test_slope_within_tolerance_despite_zone_onset(self):
        # over t in [1e2, 1e4] the (s=0, n=3) cos norm is still entering
        # the zone-restricted asymptotic regime, but the slope already
        # sits within 0.05 of -3/4 (it is exact a decade later)
        p = ModelParams(2.0)
        ts = np.geomspace(1e2, 1e4, 9)
        vals = [kernel_norm(t, 0.0, 3, "cos_part", p) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope + 0.75) <= 0.05


class TestDenseGridCrossCheck:
    def test_adaptive_matches_dense_composite_rule(self):
        # adaptive result for an oscillatory damped integrand against a
        # dense fixed composite rule refined until stable
        p = ModelParams(2.0)
        t = 2000.0
        gt, c = p.gamma_tilde, p.parabolic_decay

        def f(r):
            return np.sin(gt * r * t) ** 2 * np.exp(-2 * c * r * r * t) * r ** 2

        cap = [(0.0, 0.1, np.pi / (gt * t))]
        val, _ = adaptive_integral(f, 0.0, 0.1, cap_segments=cap)
        x, w = np.polynomial.legendre.leggauss(10)
        ref_prev = None
        for panels in (2000, 4000):
            edges = np.linspace(0.0, 0.1, panels + 1)
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[:-1] + edges[1:])
            nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
            weights = (half[:, None] * w[None, :]).ravel()
            ref = float((weights * f(nodes)).sum())
            if ref_prev is not None:
                assert ref == pytest.approx(ref_prev, rel=1e-12)
            ref_prev = ref
        assert val == pytest.approx(ref_prev, rel=1e-9)

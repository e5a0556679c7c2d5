"""Closed-form kernel, mode-solution and leading-profile tests."""

import numpy as np
import pytest

from viscowave import (DomainError, ModelParams, NearDegenerateError,
                       integrate_mgt_mode, integrate_vdw_mode,
                       leading_profiles, mgt_mode_solution, vdw_kernels,
                       vdw_mode_solution)

from helpers import solved_mgt_tables


class TestKernelIdentities:
    def test_interpolation_at_zero(self):
        for g in (1.5, 2.0, 6.0):
            for r in (0.05, 0.5, 5.0, 40.0):
                pair = vdw_kernels(ModelParams(g), r, 0.0)
                assert abs(pair.k0 - 1.0) <= 1e-12
                assert abs(pair.k1) <= 1e-12
                assert abs(pair.dk0) <= 1e-12
                assert abs(pair.dk1 - 1.0) <= 1e-12

    def test_second_derivative_reproduces_data_closure(self):
        # u''(0) must equal -r^2 (u0 + u1)
        g, r = 2.0, 0.7
        u0, u1 = 1.3, -0.4
        state = vdw_mode_solution(ModelParams(g), r, 0.0, u0, u1)
        assert state.utt == pytest.approx(-r * r * (u0 + u1), abs=1e-12)

    def test_degenerate_frequency_rejected(self):
        with pytest.raises(NearDegenerateError):
            vdw_kernels(ModelParams(2.0), 1.0, 1.0)   # triple root
        with pytest.raises(NearDegenerateError):
            vdw_kernels(ModelParams(2.0), 0.0, 1.0)   # double root at origin

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            vdw_kernels(ModelParams(2.0), 0.5, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", [
        lambda t: vdw_mode_solution(ModelParams(2.0), 0.5, t, 1.0, 0.0),
        lambda t: vdw_kernels(ModelParams(2.0), 0.5, [1.0, t]),
        lambda t: mgt_mode_solution(ModelParams(2.0, 0.5), 0.5, t, 1.0, 0.0, 0.0),
        lambda t: leading_profiles(ModelParams(2.0), 0.05, t),
    ], ids=["vdw_mode_solution", "vdw_kernels", "mgt_mode_solution",
            "leading_profiles"])
    def test_non_finite_time_rejected(self, call, bad):
        # a NaN or infinite time is an error, not a NaN mode value
        with pytest.raises(DomainError, match="finite"):
            call(bad)


class TestOracleAgreement:
    def test_kernels_match_integrator(self):
        p = ModelParams(2.0)
        for t in (1.0, 5.0):
            pair = vdw_kernels(p, 0.5, t)
            k0 = integrate_vdw_mode(p, 0.5, t_eval=[t], u0hat=1, u1hat=0, step=0.002)
            k1 = integrate_vdw_mode(p, 0.5, t_eval=[t], u0hat=0, u1hat=1, step=0.002)
            assert abs(pair.k0 - k0.u[0]) <= 1e-6 * abs(k0.u[0])
            assert abs(pair.k1 - k1.u[0]) <= 1e-6 * abs(k1.u[0])
            assert abs(pair.dk0 - k0.ut[0]) <= 1e-6 * max(abs(k0.ut[0]), 1e-3)
            assert abs(pair.dk1 - k1.ut[0]) <= 1e-6 * abs(k1.ut[0])

    def test_mode_solution_memory_variable(self):
        p = ModelParams(2.0)
        state = vdw_mode_solution(p, 0.5, 5.0, 1.0, 0.0)
        ref = integrate_vdw_mode(p, 0.5, t_eval=[5.0], u0hat=1, u1hat=0, step=0.002)
        assert abs(state.z - ref.z[0]) <= 1e-6 * abs(ref.z[0])
        # memory variable vanishes at t = 0
        assert vdw_mode_solution(p, 0.5, 0.0, 1.0, 2.0).z == 0.0

    def test_memory_variable_near_resonant_branch(self):
        # at small r the third root sits within ~r^2 of -gamma, exercising
        # the cancellation-free path of the exponential quotient
        p = ModelParams(2.0)
        state = vdw_mode_solution(p, 1e-3, 3.0, 1.0, 1.0)
        ref = integrate_vdw_mode(p, 1e-3, t_eval=[3.0], u0hat=1, u1hat=1, step=0.005)
        assert abs(state.z - ref.z[0]) <= 1e-8 * abs(ref.z[0])

    def test_random_modes_agree(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 50:
            g = rng.uniform(1.001, 10.0)
            r = rng.uniform(0.01, 20.0)
            t = rng.uniform(0.0, 20.0)
            p = ModelParams(g)
            u0 = complex(rng.standard_normal(), rng.standard_normal())
            u1 = complex(rng.standard_normal(), rng.standard_normal())
            try:
                state = vdw_mode_solution(p, r, t, u0, u1)
            except NearDegenerateError:
                continue
            step = min(0.01, 0.2 / max(g, r * r))
            ref = integrate_vdw_mode(p, r, t_eval=[t], u0hat=u0, u1hat=u1, step=step)
            scale = max(abs(state.u), abs(ref.u[0]), 1e-12)
            assert abs(state.u - ref.u[0]) <= 1e-6 * scale
            checked += 1


class TestModeSolutionSpecials:
    def test_zero_frequency_closed_form(self):
        state = vdw_mode_solution(ModelParams(2.0), 0.0, 2.0, 1.0, 1.0)
        assert state.u == pytest.approx(3.0, abs=1e-14)
        assert state.ut == pytest.approx(1.0, abs=1e-14)
        # z satisfies z' = u - gamma z exactly for the linear-in-t mode
        g = 2.0
        t = 2.0
        z_exact = (1 - np.exp(-g * t)) / g + (t / g - (1 - np.exp(-g * t)) / g ** 2)
        assert state.z == pytest.approx(z_exact, rel=1e-13)

    def test_realness_for_real_data(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.uniform(1.1, 8.0)
            r = rng.uniform(0.02, 15.0)
            t = rng.uniform(0.0, 10.0)
            try:
                state = vdw_mode_solution(ModelParams(g), r, t,
                                          rng.standard_normal(),
                                          rng.standard_normal())
            except NearDegenerateError:
                continue
            scale = max(abs(state.u), 1.0)
            assert abs(np.imag(state.u)) <= 1e-12 * scale
            assert abs(np.imag(state.ut)) <= 1e-12 * scale

    def test_equation_identity_for_utt(self):
        # u_tt = -r^2 u - r^2 u_t + r^2 z along the kernel solution
        p = ModelParams(3.0)
        r, t = 0.8, 4.0
        s = vdw_mode_solution(p, r, t, 1.0, -0.5)
        assert s.utt == pytest.approx(-r * r * (s.u + s.ut) + r * r * s.z, rel=1e-10)

    def test_small_zone_envelope_spot(self):
        # |K0| against its oscillatory-plus-exponential envelope
        p = ModelParams(2.0)
        r, t = 0.01, 100.0
        pair = vdw_kernels(p, r, t)
        gt, c = p.gamma_tilde, p.parabolic_decay
        bound = ((abs(np.cos(gt * r * t)) + r * abs(np.sin(gt * r * t)))
                 * np.exp(-c * r * r * t) + r * r * np.exp(-p.gamma * t))
        assert abs(pair.k0) <= 10.0 * bound


class TestMgtModeSolution:
    def test_interpolation_at_zero(self):
        p = ModelParams(2.0, 0.1)
        state = mgt_mode_solution(p, 0.5, 0.0, 1.0, 0.5, -0.25)
        assert state.u == pytest.approx(1.0, abs=1e-11)
        assert state.ut == pytest.approx(0.5, abs=1e-11)
        assert state.utt == pytest.approx(-0.25, abs=1e-11)
        assert state.z == 0.0

    def test_matches_integrator(self):
        p = ModelParams(2.0, 0.1)
        state = mgt_mode_solution(p, 0.5, 3.0, 1.0, 0.0, 0.0)
        ref = integrate_mgt_mode(p, 0.5, t_eval=[3.0], u0hat=1, u1hat=0,
                                 v2hat=0, step=0.001)
        assert abs(state.u - ref.u[0]) <= 1e-6 * abs(ref.u[0])
        assert abs(state.utt - ref.utt[0]) <= 1e-6 * max(abs(ref.utt[0]), 1e-6)

    def test_relaxation_limit_is_first_order(self):
        # with consistent second datum the relaxed mode approaches the
        # memory-only mode at rate tau
        g, r = 2.0, 0.5
        u0, u1 = 1.0, 0.0
        base = vdw_mode_solution(ModelParams(g), r, 1.0, u0, u1).u
        gaps = []
        for tau in (1e-2, 1e-3, 1e-4):
            v = mgt_mode_solution(ModelParams(g, tau), r, 1.0, u0, u1,
                                  -r * r * (u0 + u1)).u
            gaps.append(abs(v - base))
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.2)

    def test_degenerate_rejected(self):
        with pytest.raises(NearDegenerateError):
            mgt_mode_solution(ModelParams(2.0, 0.1), 0.0, 1.0, 1.0, 0.0, 0.0)

    def test_tiny_tau_small_radius(self):
        # distinct roots spread over four decades: the Vandermonde matrix has
        # cond ~1.6e14, yet its closed-form inverse is accurate here
        p, r = ModelParams(6.0, 1e-4), 0.005
        t = np.array([0.0, 0.5, 2.0, 10.0, 50.0])
        u0, u1, v2 = 1.0 - 0.5j, 0.3 + 1.0j, -0.7
        state = mgt_mode_solution(p, r, t, u0, u1, v2)
        ref = integrate_mgt_mode(p, r, t_eval=t, u0hat=u0, u1hat=u1, v2hat=v2,
                                 step=2e-6)
        for name in ("u", "ut", "utt", "z"):
            want = getattr(ref, name)
            gap = np.abs(getattr(state, name) - want).max()
            assert gap <= 1e-8 * np.abs(want).max(), name
        tables = solved_mgt_tables(p, np.array([r]), t, np.array([u0]),
                                   np.array([u1]), np.array([v2]))
        for name, table in zip(("u", "ut", "utt"), tables):
            want = getattr(state, name)
            assert np.abs(table[:, 0] - want).max() <= 1e-12 * np.abs(want).max()


def profile_branch_terms(params: ModelParams, r: float, t: float):
    """The oscillatory branch truncations defining the leading profiles.

    Returns (j0_plus, j0_minus, j1_plus, j1_minus); j0 = j0_plus + j0_minus
    and likewise for j1.  Requires r > 0 (the second pair carries a 1/r
    factor that cancels only in the sum).
    """
    g = params.gamma
    gt = params.gamma_tilde
    a = np.sqrt(g * (g - 1.0))
    osc = np.exp(1j * gt * r * t - params.parabolic_decay * r * r * t)
    out = []
    for sign in (1.0, -1.0):
        e = osc if sign > 0 else np.conj(osc)
        num0 = sign * 1j * a + (g - 1.0) ** 2 / (2.0 * g) * r
        den0 = sign * 2j * a - 2.0 * (g - 1.0) / g * r
        out.append(num0 / den0 * e)
    for sign in (1.0, -1.0):
        e = osc if sign > 0 else np.conj(osc)
        num1 = g + sign * 1j * gt * r - params.parabolic_decay * r * r
        den1 = sign * 2j * a * r - 2.0 * (g - 1.0) / g * r * r
        out.append(num1 / den1 * e)
    return tuple(out)


class TestLeadingProfiles:
    def test_domain_restriction(self):
        with pytest.raises(DomainError):
            leading_profiles(ModelParams(2.0), 0.2, 1.0)

    def test_origin_limits(self):
        prof = leading_profiles(ModelParams(2.0), 1e-13, 0.0)
        assert prof.j0 == pytest.approx(1.0, abs=1e-12)
        assert abs(prof.j1) <= 1e-12

    def test_pair_sum_equals_closed_form(self):
        # the two oscillatory branch truncations sum to the real cos/sin
        # form identically
        for g in (1.5, 2.0, 6.0):
            p = ModelParams(g)
            for r in (0.003, 0.02, 0.09):
                for t in (0.0, 1.0, 17.3, 400.0):
                    closed = leading_profiles(p, r, t)
                    b = profile_branch_terms(p, r, t)
                    scale0 = max(abs(closed.j0), 1.0)
                    scale1 = max(abs(closed.j1), 1.0)
                    assert abs(closed.j0 - (b[0] + b[1])) <= 1e-12 * scale0
                    assert abs(closed.j1 - (b[2] + b[3])) <= 1e-12 * scale1

    def test_modulus_decay_rate(self):
        # |J| decays like exp(-((g^2+1)/(2g^2)) r^2 t) at fixed r
        p = ModelParams(2.0)
        r = 0.05
        t1, t2 = 1000.0, 2000.0
        j1a = leading_profiles(p, r, t1).j1
        j1b = leading_profiles(p, r, t2).j1
        # strip the oscillation by comparing at a common phase:
        # gamma_tilde * r * t differs by a multiple of 2 pi
        dt = 2 * np.pi / (p.gamma_tilde * r)
        k = round((t2 - t1) / dt)
        t2s = t1 + k * dt
        j1b = leading_profiles(p, r, t2s).j1
        expected = np.exp(-0.625 * r * r * (t2s - t1))
        assert abs(j1b / j1a) == pytest.approx(expected, rel=1e-9)


from hypothesis import given, settings, strategies as st


class TestKernelIdentityProperties:
    @settings(max_examples=60, deadline=None)
    @given(g=st.floats(1.01, 10.0), r=st.floats(0.01, 30.0))
    def test_interpolation_and_closure(self, g, r):
        p = ModelParams(g)
        try:
            pair = vdw_kernels(p, r, 0.0)
        except NearDegenerateError:
            return
        scale = 1.0
        assert abs(pair.k0 - 1.0) <= 1e-11 * scale
        assert abs(pair.k1) <= 1e-11 * scale
        assert abs(pair.dk0) <= 1e-11 * scale
        assert abs(pair.dk1 - 1.0) <= 1e-11 * scale
        state = vdw_mode_solution(p, r, 0.0, 0.7, -1.1)
        assert state.utt == pytest.approx(-r * r * (0.7 - 1.1),
                                          rel=1e-9, abs=1e-9)


class TestModeSums:
    """The per-root accumulation against the (T, B, deg) broadcast product."""

    @staticmethod
    def broadcast_sums(amp, roots, t):
        e = np.exp(np.multiply.outer(np.asarray(t, dtype=float), roots))
        terms = [amp * roots ** p * e for p in range(3)]
        return ([x.sum(axis=-1) for x in terms],
                [np.abs(x).sum(axis=-1) for x in terms])

    @pytest.mark.parametrize("deg", [3, 4])
    @pytest.mark.parametrize("t", [3.7, np.array([5.0]), np.linspace(0.0, 10.0, 201)])
    @pytest.mark.parametrize("batched", [True, False])
    def test_matches_broadcast_product(self, deg, t, batched):
        from viscowave.kernels import _mode_sums
        from viscowave.spectrum import (cubic_char_roots_batch,
                                        quartic_char_roots_batch)

        r = np.geomspace(1e-3, 20.0, 64)
        if deg == 3:
            roots = cubic_char_roots_batch(ModelParams(2.0), r)[0]
        else:
            roots = quartic_char_roots_batch(ModelParams(2.0, 1e-2), r)[0]
        rng = np.random.default_rng(deg)
        amp = rng.standard_normal(roots.shape) + 1j * rng.standard_normal(roots.shape)
        if not batched:
            roots, amp = roots[40], amp[40]
        got = _mode_sums(amp, roots, t)
        ref, scale = self.broadcast_sums(amp, roots, t)
        for g, f, s in zip(got, ref, scale):
            assert np.shape(g) == np.shape(f) == np.shape(t) + roots.shape[:-1]
            # relative to the sum of the term moduli, the scale of a sum's
            # rounding: a single cell may cancel far below its terms
            assert np.all(np.abs(g - f) <= 1e-15 * s)


class TestSteppedBasisData:
    """The basis methods that take a step refuse complex data: the stepped
    route keeps real parts only, and dropped the imaginary part silently."""

    r = [0.3, 2.5]
    t, step = np.linspace(0.0, 1.0, 5, retstep=True)

    def test_vdw_mode_tables(self):
        from viscowave.kernels import vdw_kernel_basis
        basis = vdw_kernel_basis(ModelParams(2.0), self.r)
        with pytest.raises(DomainError, match="real data"):
            basis.mode_tables(self.t, [1 + 1j] * 2, [0, 0], self.step)
        plain = basis.mode_tables(self.t, [1.0] * 2, [0, 0])
        stepped = basis.mode_tables(self.t, [1.0] * 2, [0, 0], self.step)
        for a, b in zip(plain, stepped):
            assert np.abs(a.real - b).max() <= 1e-14 * np.abs(a).max()

    def test_mgt_eval(self):
        from viscowave.kernels import mgt_mode_basis
        p = ModelParams(2.0, 0.1)
        basis = mgt_mode_basis(p, self.r, [1 + 1j] * 2, [0, 0], [0, 0])
        assert not basis.real
        with pytest.raises(DomainError, match="real data"):
            basis.eval(self.t, self.step)
        real = mgt_mode_basis(p, self.r, [1.0] * 2, [0, 0], [0, 0])
        assert real.real
        for a, b in zip(real.eval(self.t), real.eval(self.t, self.step)):
            assert np.abs(a.real - b).max() <= 1e-14 * np.abs(a).max()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="needs an extended-precision long double")
class TestBlockedModeSums:
    """The stepped route of _mode_sums against the real part of an
    extended-precision sum."""

    @pytest.mark.parametrize("deg", [3, 4])
    @pytest.mark.parametrize("count", [201, 2])
    def test_matches_long_double_reference(self, deg, count):
        from viscowave.kernels import BLOCK, _mode_sums
        from viscowave.spectrum import (cubic_char_roots_batch,
                                        quartic_char_roots_batch)

        r = np.geomspace(1e-3, 20.0, 64)
        if deg == 3:
            roots = cubic_char_roots_batch(ModelParams(2.0), r)[0]
        else:                                   # one root near -1/tau = -1e3
            roots = quartic_char_roots_batch(ModelParams(2.0, 1e-3), r)[0]
            assert roots.real.min() < -999.0
        rng = np.random.default_rng(deg)
        amp = rng.standard_normal(roots.shape) + 1j * rng.standard_normal(roots.shape)
        t, step = np.linspace(0.0, 10.0, count, retstep=True)
        assert count == 2 or count % BLOCK
        got = _mode_sums(amp, roots, t, step)
        # the grid k * step is exact in long double (a 53-bit step times k < 2^11)
        k = np.arange(count, dtype=np.longdouble)
        lam = roots.astype(np.clongdouble)
        terms = amp * np.exp(np.multiply.outer(k * np.longdouble(step), lam))
        assert np.any(np.abs(terms.astype(complex)) == 0.0)     # tables underflow
        for p, g in enumerate(got):
            assert g.shape == (count, r.size) and g.dtype == float
            assert g.flags.c_contiguous and g.flags.writeable
            # the stepped route returns the real part of the sum
            ref = (terms * lam ** p).sum(axis=-1).real
            scale = np.abs(terms * lam ** p).sum(axis=-1)
            # below the normal range a double holds no relative precision
            assert np.all(np.abs(g - ref) <= 4e-15 * scale + np.finfo(float).tiny)


class TestAmplitudesBatchSize:
    """A row's amplitudes do not depend on the batch it is solved in.

    Past 16,384 complex values numpy reuses a temporary operand of a
    product in place, swapping the operands, and a complex product rounds
    differently with its operands swapped; both batches here cross that
    size."""

    def test_cubic_basis_equals_its_splits(self):
        from viscowave.kernels import vdw_kernel_basis

        p, r = ModelParams(2.0), np.geomspace(1e-3, 30.0, 7056)
        whole = vdw_kernel_basis(p, r)
        for parts in (2, 5, 17):
            pieces = [vdw_kernel_basis(p, x) for x in np.array_split(r, parts)]
            for name in ("coef0", "coef1"):
                split = np.concatenate([getattr(b, name) for b in pieces])
                assert np.array_equal(getattr(whole, name), split), (parts, name)

    def test_quartic_amplitudes_batched_over_tau_equal_per_tau(self):
        from viscowave.kernels import _mgt_basis
        from viscowave.spectrum import quartic_coefficients, solve_polynomial_batch

        taus, r = np.geomspace(1e-1, 1e-3, 7), np.geomspace(1e-3, 20.0, 2688)
        roots, _, _, flags = solve_polynomial_batch(
            quartic_coefficients(2.0, taus[:, None], r))
        u0, u1, v2 = np.exp(-r * r), np.exp(-r * r), -r * r * 2.0 * np.exp(-r * r)
        batched = _mgt_basis(np.repeat(taus, r.size), np.tile(r, taus.size),
                             roots.reshape(-1, 4), flags.ravel(),
                             *(np.tile(d, taus.size) for d in (u0, u1, v2))).amp
        per_tau = np.concatenate([_mgt_basis(tau, r, roots[k], flags[k], u0, u1, v2).amp
                                  for k, tau in enumerate(taus)])
        assert batched.size == 7 * 2688 * 4
        assert np.array_equal(batched, per_tau)


class TestModeSumsBatchSize:
    """A node's mode sums do not depend on the batch they are summed in, on
    either route: random roots and amplitudes against their 7-way splits.

    The products are past 16,384 complex values at these sizes, where
    numpy would reuse a temporary operand in place with the operands
    swapped; both routes write every product through ``out=``."""

    @staticmethod
    def _splits_match(nodes, t, step=None):
        from viscowave.kernels import _mode_sums

        rng = np.random.default_rng(nodes + t.size)
        roots = -rng.uniform(0.0, 2.0, (nodes, 3)) + 1j * rng.standard_normal((nodes, 3))
        amp = rng.standard_normal((nodes, 3)) + 1j * rng.standard_normal((nodes, 3))
        whole = _mode_sums(amp, roots, t, step)
        end = 0
        for a, r in zip(np.array_split(amp, 7), np.array_split(roots, 7)):
            own = slice(end, end + r.shape[0])
            end = own.stop
            for table, part in zip(whole, _mode_sums(a, r, t, step)):
                assert table.shape == t.shape + (nodes,)
                assert table[..., own].tobytes() == part.tobytes()

    @pytest.mark.parametrize("nodes, times", [(20000, 1), (70000, 1), (20000, 3), (2000, 40)])
    def test_direct_route_equals_its_splits(self, nodes, times):
        self._splits_match(nodes, np.linspace(0.5, 30.0, times))

    def test_direct_route_at_one_time_equals_its_splits(self):
        # a 0-d t gives the amplitude row and the exponential table one
        # shape, so only a product written through out= keeps its operand
        # order past 16,384 complex values
        self._splits_match(70000, np.asarray(12.5))

    def test_one_node_at_one_time_gives_scalars(self):
        state = vdw_mode_solution(ModelParams(2.0), 0.5, 2.0, 1.0, 0.5)
        relaxed = mgt_mode_solution(ModelParams(2.0, 0.1), 0.5, 2.0, 1.0, 0.5, 0.0)
        for value in (state.u, state.ut, state.utt, relaxed.u, relaxed.ut, relaxed.utt):
            assert isinstance(value, np.complex128)

    @pytest.mark.parametrize("nodes, times", [(20000, 201), (40000, 2)])
    def test_stepped_route_equals_its_splits(self, nodes, times):
        self._splits_match(nodes, np.arange(times) * 0.05, step=0.05)

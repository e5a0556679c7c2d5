"""Characteristic-root solver, discriminant and branch-tracking tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave import (DomainError, InvalidParameterError,
                       MissingParameterError, ModelParams, RootSet,
                       asymptotic_roots, cubic_char_roots, cubic_discriminant,
                       cubic_discriminant_expanded, discriminant_zero_radii,
                       quartic_char_roots, track_branches)
from viscowave.spectrum import (RESIDUAL_RTOL, _cubic_seed, _disc_terms_cubic,
                                _min_separation_rel, _newton_polish, _polyval_many,
                                _quartic_seed, _sorted_rows, cubic_char_roots_batch,
                                cubic_coefficients, quartic_char_roots_batch,
                                quartic_coefficients, solve_polynomial_batch)


def sorted_real(roots):
    return np.sort(roots.real)


class TestModelParams:
    def test_gamma_tilde_identity(self):
        for g in (1.0001, 1.5, 2.0, 6.0, 9.99):
            p = ModelParams(g)
            assert p.gamma_tilde ** 2 * g == pytest.approx(g - 1.0, rel=4e-16)

    def test_invalid_gamma(self):
        for g in (1.0, 0.5, -2.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                ModelParams(g)

    def test_gamma_with_overflowing_constants(self):
        # (gamma^2 + 1)/(2 gamma^2) read 0 at 1.3e154 and NaN above
        for g in (1.3e154, 1e155, 1e200):
            with pytest.raises(InvalidParameterError, match="gamma"):
                ModelParams(g)
        assert ModelParams(1e153).parabolic_decay == 0.5

    def test_invalid_tau(self):
        for tau in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(InvalidParameterError):
                ModelParams(2.0, tau)

    def test_require_tau(self):
        with pytest.raises(MissingParameterError):
            ModelParams(2.0).require_tau()


class TestCubicRoots:
    def test_factored_form_at_zero_frequency(self):
        rs = cubic_char_roots(ModelParams(2.0), 0.0)
        assert sorted_real(rs.roots) == pytest.approx([-2.0, 0.0, 0.0], abs=1e-12)
        assert rs.multiplicity_flag  # double root at the origin

    def test_small_frequency_expansion_values(self):
        # real branch -gamma + r^2/gamma^2, oscillatory pair
        # +-i sqrt((g-1)/g) r - (g^2+1)/(2 g^2) r^2, remainders O(r^3)
        p = ModelParams(2.0)
        r = 0.01
        rs = cubic_char_roots(p, r)
        real_root = rs.roots[np.argmin(np.abs(rs.roots.imag))]
        assert real_root.real == pytest.approx(-1.999975, abs=1e-7)
        pair = rs.roots[np.abs(rs.roots.imag) > 0]
        assert len(pair) == 2
        assert np.abs(pair.imag) == pytest.approx(p.gamma_tilde * r, abs=1e-6)
        assert pair.real == pytest.approx(-0.625e-4, abs=1e-7)

    def test_residual_bound_spot(self):
        rs = cubic_char_roots(ModelParams(2.0), 0.5)
        # independent check against numpy's own solver
        ref = np.sort_complex(np.roots([1.0, 0.25 + 2.0, 3.0 * 0.25, 1.0 * 0.25]))
        assert np.allclose(np.sort_complex(rs.roots), ref, rtol=1e-8)
        assert np.all(rs.residuals < 1e-10)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            cubic_char_roots(ModelParams(2.0), -0.1)

    def test_nonfinite_frequency_rejected(self):
        with pytest.raises(InvalidParameterError):
            cubic_char_roots(ModelParams(2.0), float("inf"))

    @settings(max_examples=80, deadline=None)
    @given(g=st.floats(1.001, 10.0), r=st.floats(0.0, 100.0))
    def test_residual_and_conjugacy_property(self, g, r):
        roots, resid, scales, _ = cubic_char_roots_batch(ModelParams(g), np.array([r]))
        assert np.all(resid < RESIDUAL_RTOL * scales)
        gap = np.abs(np.sort_complex(roots[0]) - np.sort_complex(np.conj(roots[0])))
        assert gap.max() <= 1e-12

    def test_far_high_frequency(self):
        # R^2 of the closed form reaches r^12, out of range at r = 1e30
        # unless the cubic is rescaled; the slow roots tend to those of
        # l^2 + (1 + g) l + (g - 1)
        roots, resid, scales, flags = cubic_char_roots_batch(
            ModelParams(2.0), np.array([1e20, 1e30]))
        assert np.all(resid < RESIDUAL_RTOL * scales) and not flags.any()
        assert roots[:, 0].real == pytest.approx([-1e40, -1e60], rel=1e-15)
        slow = np.array([-3.0 - np.sqrt(5.0), -3.0 + np.sqrt(5.0)]) / 2.0
        assert roots[0, 1:].real == pytest.approx(slow, rel=1e-12)
        assert roots[1, 1:].real == pytest.approx(slow, rel=1e-12)

    def test_triple_root_is_flagged(self):
        # the cubic collapses to (lam+1)^3 at gamma=2, r=1
        rs = cubic_char_roots(ModelParams(2.0), 1.0)
        assert rs.multiplicity_flag
        assert np.allclose(rs.roots, -1.0, atol=1e-4)


class TestQuarticRoots:
    def test_factored_form_at_zero_frequency(self):
        rs = quartic_char_roots(ModelParams(2.0, 0.1), 0.0)
        assert sorted_real(rs.roots) == pytest.approx([-10.0, -2.0, 0.0, 0.0], abs=1e-9)
        assert rs.multiplicity_flag

    def test_small_frequency_structure(self):
        p = ModelParams(2.0, 0.1)
        r = 0.01
        rs = quartic_char_roots(p, r)
        reals = np.sort(rs.roots[np.abs(rs.roots.imag) < 1e-12].real)
        assert reals[0] == pytest.approx(-10.0, abs=1e-3)
        assert reals[1] == pytest.approx(-2.0, abs=1e-3)
        pair = rs.roots[np.abs(rs.roots.imag) > 1e-12]
        expected_re = -((1 - 0.1) * 4 + 0.1 * 2 + 1) / 8 * r * r
        assert pair.real == pytest.approx(expected_re, rel=1e-2)
        assert np.abs(pair.imag) == pytest.approx(p.gamma_tilde * r, rel=1e-3)

    def test_large_frequency_structure(self):
        p = ModelParams(2.0, 0.1)
        r = 50.0
        rs = quartic_char_roots(p, r)
        pair = rs.roots[np.abs(rs.roots.imag) > 1.0]
        assert np.abs(pair.imag) == pytest.approx(r / np.sqrt(0.1), rel=1e-3)
        assert pair.real == pytest.approx(-(1 - 0.1) / (2 * 0.1), rel=1e-2)
        slow = rs.roots[np.abs(rs.roots.imag) < 1.0]
        disc = np.sqrt(9.0 - 4.0)
        assert sorted_real(slow) == pytest.approx(
            [-(3 + disc) / 2, -(3 - disc) / 2], rel=1e-2)

    def test_missing_tau(self):
        with pytest.raises(MissingParameterError):
            quartic_char_roots(ModelParams(2.0), 1.0)

    @pytest.mark.parametrize("r", (1e15, 1e30, 1e32, 1e50, 1e76))
    def test_slow_pair_at_far_frequency(self, r):
        # the fast pair grows like r / sqrt(tau) while the slow pair tends
        # to the roots of mu^2 + 3 mu + 1; every root stays within 16 eps
        # of a 60-digit reference
        mpmath = pytest.importorskip("mpmath")
        rs = quartic_char_roots(ModelParams(2.0, 0.1), r)
        slow = rs.roots[np.abs(rs.roots) < 10.0]
        assert np.all(slow.imag == 0.0)
        assert np.sort(slow.real) == pytest.approx(
            [-(3.0 + np.sqrt(5.0)) / 2.0, -(3.0 - np.sqrt(5.0)) / 2.0], rel=1e-15, abs=0.0)
        with mpmath.workdps(60):
            x = mpmath.mpf(r) ** 2
            tau = mpmath.mpf(0.1)
            ref = mpmath.polyroots([tau, 1 + 2 * tau, x + 2, 3 * x, x],
                                   maxsteps=400, extraprec=800)
            for z in rs.roots:
                gap = min(abs(mpmath.mpc(z) - w) for w in ref)
                assert float(gap) <= 16 * np.finfo(float).eps * max(1.0, abs(z))

    @settings(max_examples=60, deadline=None)
    @given(g=st.floats(1.001, 10.0), tau=st.floats(0.01, 0.99),
           r=st.floats(0.0, 100.0))
    def test_residual_property(self, g, tau, r):
        roots, resid, scales, _ = quartic_char_roots_batch(
            ModelParams(g, tau), np.array([r]))
        assert np.all(resid < RESIDUAL_RTOL * scales)


class TestExactPairing:
    """Both seeds take their pairs from the real quadratic formula, which
    writes a complex pair as re +- i im, so pairs are exactly conjugate and
    real roots exactly real; the Newton polish must not break either."""

    GAMMAS = (1.05, 1.5, 2.0, 3.7, 6.0, 9.5)

    @staticmethod
    def _batches(g):
        r = np.concatenate([np.geomspace(1e-6, 1e3, 2000),
                            np.linspace(0.0, 10.0, 2001)])
        yield cubic_char_roots_batch(ModelParams(g), r)[0]
        for tau in (0.1, 0.5, 0.9):
            yield quartic_char_roots_batch(ModelParams(g, tau), r)[0]

    @pytest.mark.parametrize("g", GAMMAS)
    def test_conjugation_gap_is_zero(self, g):
        for roots in self._batches(g):
            gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
            assert gap.max() == 0.0

    @pytest.mark.parametrize("g", GAMMAS)
    def test_real_roots_have_zero_imaginary_part(self, g):
        # a negative discriminant means one real root and one pair, a
        # positive one three distinct real roots
        p = ModelParams(g)
        r = np.linspace(0.01, 10.0, 4001)
        roots = cubic_char_roots_batch(p, r)[0]
        disc = cubic_discriminant(p, r)
        n_real = (roots.imag == 0.0).sum(axis=1)
        assert np.all(n_real[disc < 0] == 1)
        assert np.all(n_real[disc > 0] == 3)

    @pytest.mark.parametrize("g", (1.5, 3.0, 6.0, 9.0))
    def test_all_real_batch_returns_complex(self, g):
        # between the first two discriminant zeros all three roots are real,
        # and the solve must still return a complex array
        lo, hi = discriminant_zero_radii(ModelParams(g))[:2]
        r = np.linspace(lo, hi, 12)[1:-1]
        coeffs = cubic_coefficients(g, r)
        roots, residuals, scales, _ = solve_polynomial_batch(coeffs)
        assert roots.dtype == np.complex128
        assert np.all(roots.imag == 0.0)
        assert np.all(residuals < RESIDUAL_RTOL * scales)

    @pytest.mark.parametrize("g", (1.05, 1.3, 1.97, 2.18, 3.7, 6.0, 9.5))
    def test_discriminant_zero_radii_stay_flagged(self, g):
        p = ModelParams(g)
        radii = discriminant_zero_radii(p)
        assert radii.size
        assert cubic_char_roots_batch(p, radii)[3].all()
        for r in radii:
            assert cubic_char_roots(p, float(r)).multiplicity_flag


def _companion_reference(coeffs):
    """Monic cubic rows solved as LAPACK companion eigenvalues plus one
    Newton step, sorted by (Re, Im)."""
    comp = np.zeros(coeffs.shape[:-1] + (3, 3))
    comp[..., 0, :] = -coeffs[..., 1:]
    comp[..., 1, 0] = comp[..., 2, 1] = 1.0
    z = np.linalg.eigvals(comp).astype(complex)
    a, b, c = (coeffs[..., k, None] for k in (1, 2, 3))
    p = ((z + a) * z + b) * z + c
    dp = (3.0 * z + 2.0 * a) * z + b
    z = z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
    return np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)


class TestCubicSweep:
    """The closed-form cubic seed over the whole frequency range, r = 0,
    r <= 1e-6 and r >= 500 included: there the real root dominates the
    pair, which a division from the wrong end of the cubic loses."""

    def test_sweep_matches_companion_reference(self):
        rng = np.random.default_rng(20261019)
        count = 100_000
        g = rng.uniform(1.001, 10.0, count)
        r = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), count))
        r[:50] = 0.0
        r[50:2050] = rng.uniform(500.0, 1e3, 2000)
        r[2050:4050] = np.exp(rng.uniform(np.log(1e-10), np.log(1e-6), 2000))
        coeffs = cubic_coefficients(g, r)
        roots, resid, scales, flags = solve_polynomial_batch(coeffs)
        assert np.all(resid < RESIDUAL_RTOL * scales)
        gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
        assert gap.max() == 0.0
        ref = _companion_reference(coeffs)
        err = np.abs(roots - ref) / np.maximum(1.0, np.abs(ref))
        assert flags[:50].all() and not flags.all()
        assert err[~flags].max() <= 1e-13

    def test_general_real_cubics(self):
        # roots of either sign over twelve decades, half of the rows with a
        # complex pair, and leading coefficients other than 1: every row
        # stays inside the residual bound with exact pairing
        rng = np.random.default_rng(77)
        count = 50_000

        def draw():
            return (np.exp(rng.uniform(np.log(1e-6), np.log(1e6), count))
                    * rng.choice([-1.0, 1.0], count))

        x1, x2, x3, im = draw(), draw(), draw(), np.abs(draw())
        pair = rng.random(count) < 0.5
        z = np.stack([x1 + 0j, np.where(pair, x2 + 1j * im, x2),
                      np.where(pair, x2 - 1j * im, x3)], axis=-1)
        coeffs = np.stack([np.ones(count), -z.sum(axis=-1),
                           z[:, 0] * z[:, 1] + z[:, 0] * z[:, 2] + z[:, 1] * z[:, 2],
                           -z.prod(axis=-1)], axis=-1).real
        coeffs *= np.exp(rng.uniform(-5.0, 5.0, count))[:, None]
        roots, resid, scales, _ = solve_polynomial_batch(coeffs)
        assert np.all(resid < RESIDUAL_RTOL * scales)
        gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
        assert gap.max() == 0.0

    #: pinned from a measured worst case of 44 eps (gamma = 2 at
    #: r = 1.001, next to the triple root at r = 1)
    MP_EPS_MULTIPLE = 64

    @pytest.mark.parametrize("g", (1.001, 2.0, 6.0, 9.5))
    def test_against_mpmath_roots(self, g):
        mpmath = pytest.importorskip("mpmath")
        radii = discriminant_zero_radii(ModelParams(g))
        r = np.concatenate([[0.0, 1e-6, 0.3, 1.0, 30.0, 1e3],
                            radii * (1.0 - 1e-3), radii * (1.0 + 1e-3)])
        roots, _, _, flags = solve_polynomial_batch(cubic_coefficients(g, r))
        # r = 0 (a double root), and r = 1 at gamma = 2 (a triple root)
        assert flags.sum() <= 2
        with mpmath.workdps(40):
            gm = mpmath.mpf(g)
            for row, ri in zip(roots[~flags], r[~flags]):
                x = mpmath.mpf(ri) ** 2
                ref = mpmath.polyroots([1, x + gm, (1 + gm) * x, (gm - 1) * x],
                                       maxsteps=200, extraprec=200)
                for z in row:
                    gap = min(abs(mpmath.mpc(z) - w) for w in ref)
                    assert float(gap) <= (self.MP_EPS_MULTIPLE * np.finfo(float).eps
                                          * max(1.0, abs(z)))


class TestQuarticSweep:
    """The closed-form quartic seed: general real quartics, where two large
    roots of opposite sign around a small cluster defeat a plain Ferrari
    split, and the mode quartic against a high-precision reference."""

    def test_general_real_quartics(self):
        # roots of either sign over twelve decades, 0, 1 or 2 complex
        # pairs, and leading coefficients other than 1: every row stays
        # inside the residual bound with exact pairing
        rng = np.random.default_rng(78)
        count = 50_000

        def draw():
            return (np.exp(rng.uniform(np.log(1e-6), np.log(1e6), count))
                    * rng.choice([-1.0, 1.0], count))

        x1, x2, x3, x4, im1, im2 = (draw() for _ in range(6))
        pairs = rng.integers(0, 3, count)
        z = np.stack([np.where(pairs == 2, x1 + 1j * im1, x1),
                      np.where(pairs == 2, x1 - 1j * im1, x2),
                      np.where(pairs >= 1, x3 + 1j * im2, x3),
                      np.where(pairs >= 1, x3 - 1j * im2, x4)], axis=-1)
        # the elementary symmetric functions of the roots
        elem = [np.ones(count, dtype=complex)]
        for k in range(4):
            elem = ([elem[0]] + [elem[j] + z[:, k] * elem[j - 1] for j in range(1, k + 1)]
                    + [z[:, k] * elem[k]])
        coeffs = np.stack([(-1) ** j * e for j, e in enumerate(elem)], axis=-1).real
        coeffs *= np.exp(rng.uniform(-5.0, 5.0, count))[:, None]
        roots, resid, scales, _ = solve_polynomial_batch(coeffs)
        assert np.count_nonzero(~(resid < RESIDUAL_RTOL * scales)) == 0
        gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
        assert gap.max() == 0.0

    def test_biquadratic_quartics(self):
        # x^4 + b x^2 + d splits as (x^2 + l3)^2 - (l3^2 - d), with d2 = 0,
        # and a linear term far below the rounding of the products that
        # form it must not pull the split away from that form
        rng = np.random.default_rng(31)
        count = 5000

        def draw(lo, hi):
            return np.exp(rng.uniform(np.log(lo), np.log(hi), count))

        def sign():
            return rng.choice([-1.0, 1.0], count)

        zero, one = np.zeros(count), np.ones(count)
        for coeffs in (np.stack([one, zero, sign() * draw(1e-4, 1e4), zero,
                                 sign() * draw(1e-8, 1e8)], axis=-1),
                       np.stack([one, zero, -draw(0.1, 10.0), sign() * draw(1e-30, 1e-15),
                                 draw(1e-3, 1e-1)], axis=-1)):
            roots, resid, scales, _ = solve_polynomial_batch(coeffs)
            assert np.count_nonzero(~(resid < RESIDUAL_RTOL * scales)) == 0
            gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots)))
            assert gap.max() == 0.0

    #: pinned from a measured worst case of 160 eps (gamma = 2, tau = 1e-4
    #: at r = 1, in the near-triple cluster, where the shared Newton polish
    #: moves a root the seed had within 0.5 eps)
    MP_EPS_MULTIPLE = 256

    @pytest.mark.parametrize("g", (1.001, 2.0, 6.0, 9.5))
    def test_against_mpmath_roots(self, g):
        mpmath = pytest.importorskip("mpmath")
        radii = discriminant_zero_radii(ModelParams(g))
        r = np.concatenate([[0.0, 1e-6, 0.3, 1.0, 30.0, 1e3],
                            radii * (1.0 - 1e-3), radii * (1.0 + 1e-3)])
        for tau in (1e-4, 1e-2, 0.1, 0.5, 0.99):
            roots, _, _, flags = solve_polynomial_batch(quartic_coefficients(g, tau, r))
            # r = 0 (a double root at 0), and one radius next to a coalescence
            assert flags[0] and flags.sum() <= 2
            with mpmath.workdps(40):
                gm, tm = mpmath.mpf(g), mpmath.mpf(tau)
                for row, ri in zip(roots[~flags], r[~flags]):
                    x = mpmath.mpf(ri) ** 2
                    ref = mpmath.polyroots([tm, 1 + tm * gm, x + gm, (1 + gm) * x,
                                            (gm - 1) * x], maxsteps=200, extraprec=200)
                    for z in row:
                        gap = min(abs(mpmath.mpc(z) - w) for w in ref)
                        assert float(gap) <= (self.MP_EPS_MULTIPLE * np.finfo(float).eps
                                              * max(1.0, abs(z)))


class TestPerRowSolve:
    """The coefficient builders take per-row (gamma, tau); one batched solve
    must equal stacked single-row solves exactly, flags included."""

    def test_batched_rows_equal_single_row_calls(self):
        rng = np.random.default_rng(2024)
        count = 60
        g = rng.uniform(1.01, 10.0, count)
        tau = rng.uniform(0.01, 0.99, count)
        r = rng.uniform(0.0, 30.0, count)
        # coalescence radii of each row's own gamma flag the cubic, and
        # r = 0 (a double root at 0) flags both models
        r[::5] = [rng.choice(discriminant_zero_radii(ModelParams(x)))
                  for x in g[::5]]
        r[3::17] = 0.0
        batched = (solve_polynomial_batch(cubic_coefficients(g, r)),
                   solve_polynomial_batch(quartic_coefficients(g, tau, r)))
        single = ([cubic_char_roots_batch(ModelParams(a), [c]) for a, c in zip(g, r)],
                  [quartic_char_roots_batch(ModelParams(a, b), [c])
                   for a, b, c in zip(g, tau, r)])
        for out, rows in zip(batched, single):
            flags = out[3]
            assert flags.shape == (count,) and flags.any() and not flags.all()
            for got, parts in zip(out, zip(*rows)):
                assert np.array_equal(got, np.concatenate(parts))
        assert batched[0][3][::5].all() and batched[1][3][3::17].all()

    def test_parameters_broadcast_against_radii(self):
        g = np.array([[1.5], [4.0]])
        r = np.linspace(0.1, 3.0, 5)
        assert cubic_coefficients(g, r).shape == (2, 5, 4)
        assert quartic_coefficients(g, 0.2, r).shape == (2, 5, 5)
        assert cubic_coefficients(2.0, 1.0).shape == (4,)
        np.testing.assert_array_equal(cubic_coefficients(g, r)[1],
                                      cubic_coefficients(4.0, r))


class TestSolveTrims:
    """The lean passes of solve_polynomial_batch equal the reference
    formulas they replace, bit for bit."""

    @staticmethod
    def _unsorted_cubic_roots():
        # the seeded and polished roots before sorting, at gamma = 2: the
        # r = 0 double root, the triple root at r = 1, conjugate pairs
        # below and real triples above
        coeffs = cubic_coefficients(2.0, np.concatenate([[0.0, 1.0], np.geomspace(1e-3, 1e3, 60)]))
        return _newton_polish(coeffs, _cubic_seed(coeffs))

    @staticmethod
    def _bits(x):
        # bit patterns, so that -0.0 and +0.0 differ
        return np.ascontiguousarray(x).view(np.int64)

    def _check_network(self, roots, values):
        got_roots, got_values = _sorted_rows(roots, values)
        order = np.lexsort((roots.imag, roots.real), axis=-1)
        assert np.array_equal(self._bits(got_roots),
                              self._bits(np.take_along_axis(roots, order, axis=-1)))
        assert np.array_equal(self._bits(got_values),
                              self._bits(np.take_along_axis(values, order, axis=-1)))

    @staticmethod
    def _permuted(bases):
        # every order of each base row, with distinct values that show
        # where each root went, ties included
        rows = np.array([p for base in bases for p in itertools.permutations(base)],
                        dtype=complex)
        return rows, np.arange(rows.size).reshape(rows.shape) + 0j

    def test_network_sorts_cubic_rows_as_lexsort(self):
        tied, tied_values = self._permuted((
            [1.0, 1.0, 1.0], [0.0, -0.0, 0.0], [-1 + 2j, -1 - 2j, -3.0],
            [-1 + 2j, -1 - 2j, -1.0], [2.0, 2.0, -5.0], [-1 + 2j, -1 + 2j, -1 - 2j]))
        roots, values = self._unsorted_cubic_roots()
        assert roots[0, 1] == roots[0, 2] == 0.0                  # r = 0
        assert np.allclose(roots[1], -1.0, atol=1e-4)            # r = 1
        assert (roots.imag != 0.0).any()
        self._check_network(np.concatenate([tied, roots]),
                            np.concatenate([tied_values, values]))

    def test_network_sorts_quartic_rows_as_lexsort(self):
        tied, tied_values = self._permuted((
            [1.0, 1.0, 1.0, 1.0], [0.0, -0.0, 0.0, -2.0], [-1 + 2j, -1 - 2j, -3.0, -3.0],
            [-1 + 2j, -1 - 2j, -1.0, -1 + 1j]))
        coeffs = quartic_coefficients(2.0, 0.1, np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60)]))
        roots, values = _newton_polish(coeffs, _quartic_seed(coeffs))
        assert (roots[0] == 0.0).sum() == 2                       # r = 0
        self._check_network(np.concatenate([tied, roots]),
                            np.concatenate([tied_values, values]))

    def test_min_separation_over_pairs(self):
        cubic = solve_polynomial_batch(cubic_coefficients(2.0, np.geomspace(1e-4, 1e4, 301)))[0]
        quartic = solve_polynomial_batch(quartic_coefficients(
            2.0, np.array([[0.1], [1e-3]]), np.geomspace(1e-4, 1e4, 301)))[0]
        tied = np.array([[1.0, 1.0, -2.0], [0.0, 0.0, 0.0], [-1 + 1j, -1 - 1j, 3.0]])
        for roots in (cubic, quartic, tied, self._unsorted_cubic_roots()[0]):
            mags = np.abs(roots)
            diff = np.abs(roots[..., :, None] - roots[..., None, :])
            rel = diff / np.maximum(1.0, np.maximum(mags[..., :, None], mags[..., None, :]))
            upper = np.triu_indices(roots.shape[-1], k=1)
            want = rel[..., upper[0], upper[1]].min(axis=-1)
            assert np.array_equal(_min_separation_rel(roots, mags), want)

    def test_horner_in_place(self):
        # the accumulator starts at c0 z, where Horner from 0 starts at
        # 0 z + c0 and multiplies that by z
        roots, _ = self._unsorted_cubic_roots()
        coeffs = cubic_coefficients(2.0, np.concatenate([[0.0, 1.0], np.geomspace(1e-3, 1e3, 60)]))
        for c, z in ((coeffs, roots), (np.abs(coeffs), np.abs(roots)),
                     (coeffs[:, :-1] * [3.0, 2.0, 1.0], roots)):
            want = np.zeros_like(z)
            for k in range(c.shape[-1]):
                want = want * z + c[..., k, None]
            assert np.array_equal(self._bits(_polyval_many(c, z)), self._bits(want))

    def test_cubic_discriminant_terms_as_stacked_sum(self):
        rng = np.random.default_rng(5)
        for coeffs in (cubic_coefficients(2.0, np.geomspace(1e-4, 1e4, 301)),
                       cubic_coefficients(rng.uniform(1.0, 10.0, 1000), rng.uniform(0.0, 20.0, 1000)),
                       rng.standard_normal((1000, 4)) * 10.0 ** rng.integers(-6, 6, (1000, 4))):
            a, b, c, d = (coeffs[..., k] for k in range(4))
            terms = np.stack([18.0 * a * b * c * d, -4.0 * b ** 3 * d, b ** 2 * c ** 2,
                              -4.0 * a * c ** 3, -27.0 * a ** 2 * d ** 2], axis=-1)
            disc, size = _disc_terms_cubic(coeffs)
            assert np.array_equal(disc, terms.sum(axis=-1))
            assert np.array_equal(size, np.abs(terms).sum(axis=-1))


class TestDiscriminant:
    def test_sign_small_and_large(self):
        p = ModelParams(2.0)
        assert cubic_discriminant(p, 0.01) < 0
        assert cubic_discriminant(p, 100.0) > 0

    def test_closed_forms_agree(self):
        # resultant-based formula vs polynomial-in-r^2 expansion
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = rng.uniform(1.01, 10.0)
            r = rng.uniform(0.0, 50.0)
            a = cubic_discriminant(ModelParams(g), r)
            b = cubic_discriminant_expanded(ModelParams(g), r)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-6)

    def test_flag_with_terms_beyond_double_range(self):
        # the discriminant terms are products of 4 (cubic) or 6 (quartic)
        # coefficients, so at these rows they overflow unless the row is
        # rescaled; the pytest settings turn an overflow warning into an error
        s = 2.0 ** 266
        double_root = np.array([[1.0, -s, -s * s, s ** 3]])   # (x - s)^2 (x + s)
        for coeffs, flagged in ((cubic_coefficients(2.0, [1e50]), False),
                                (quartic_coefficients(2.0, 0.1, [1e30]), False),
                                (double_root, True)):
            _, resid, scales, flags = solve_polynomial_batch(coeffs)
            assert np.all(resid < RESIDUAL_RTOL * scales)
            assert flags.tolist() == [flagged]

    def test_zero_radii_match_sign_changes(self):
        # at gamma=2 the discriminant factors as r^2 (r^2-1)^2 (5 r^2-32);
        # the double zero at r=1 is resolved to ~sqrt(eps) only
        p = ModelParams(2.0)
        radii = discriminant_zero_radii(p)
        assert radii == pytest.approx([1.0, 1.0, np.sqrt(32.0 / 5.0)], abs=1e-7)
        for r in radii:
            assert abs(cubic_discriminant_expanded(p, r)) < 1e-6


class TestAsymptoticRoots:
    def test_zone_mismatch_rejected(self):
        p = ModelParams(2.0)
        with pytest.raises(DomainError):
            asymptotic_roots(p, 0.5, "small", "vdw")
        with pytest.raises(DomainError):
            asymptotic_roots(p, 2.0, "large", "vdw")
        with pytest.raises(DomainError):
            asymptotic_roots(p, 0.01, "middle", "vdw")

    def test_small_zone_at_origin_equals_exact(self):
        p = ModelParams(2.0)
        approx = asymptotic_roots(p, 0.0, "small", "vdw")
        exact = cubic_char_roots(p, 0.0)
        assert np.allclose(np.sort_complex(approx.roots),
                           np.sort_complex(exact.roots), atol=1e-12)
        assert approx.approximate

    @staticmethod
    def _max_gap(params, r, zone, equation, eps_cut=0.1):
        approx = asymptotic_roots(params, r, zone, equation, eps_cut=eps_cut)
        if equation == "vdw":
            exact = cubic_char_roots(params, r)
        else:
            exact = quartic_char_roots(params, r)
        gaps = np.abs(exact.roots[:, None] - approx.roots[None, :])
        # nearest-neighbour matching of expansion to exact branches
        order = np.argmin(gaps, axis=1)
        return float(np.abs(exact.roots - approx.roots[order]).max())

    def test_small_zone_remainder_bounded(self):
        # remainder / r^3 must not grow as r -> 0 (a widened cut admits the
        # r = 0.1 endpoint of the geometric sequence)
        for g in (1.5, 2.0, 6.0):
            p = ModelParams(g)
            q = [self._max_gap(p, r, "small", "vdw", eps_cut=0.11) / r ** 3
                 for r in (1e-1, 1e-2, 1e-3, 1e-4)]
            for a, b in zip(q, q[1:]):
                assert b < 3.0 * a

    def test_large_zone_remainder_bounded(self):
        for g in (1.5, 2.0, 6.0):
            p = ModelParams(g)
            q = [self._max_gap(p, r, "large", "vdw") * r
                 for r in (1e2, 1e3)]
            assert q[1] < 3.0 * q[0]

    def test_mgt_small_zone_pair_order(self):
        p = ModelParams(2.0, 0.2)
        gaps = []
        for r in (1e-2, 1e-3):
            approx = asymptotic_roots(p, r, "small", "mgt")
            exact = quartic_char_roots(p, r)
            pair_a = approx.roots[np.abs(approx.roots.imag) > 0]
            pair_e = exact.roots[np.abs(exact.roots.imag) > 0]
            gaps.append(np.abs(np.sort_complex(pair_a)
                               - np.sort_complex(pair_e)).max() / r ** 3)
        assert gaps[1] < 3.0 * gaps[0]


class TestSpectralLimit:
    def test_quartic_roots_converge_to_cubic(self):
        # three branches approach the cubic roots like tau, the fourth
        # diverges like -1/tau
        g, r = 2.0, 0.5
        cubic = np.sort_complex(cubic_char_roots(ModelParams(g), r).roots)
        prev_gap = None
        for tau in (1e-2, 1e-3, 1e-4):
            quart = quartic_char_roots(ModelParams(g, tau), r).roots
            fast = quart[np.argmin(quart.real)]
            assert fast.real * tau == pytest.approx(-1.0, rel=1e-2)
            slow = np.sort_complex(quart[quart != fast])
            gap = np.abs(slow - cubic).max()
            assert gap < 10.0 * tau
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


class TestBoundedZoneStability:
    @pytest.mark.parametrize("gamma", [1.1, 2.0, 6.0])
    def test_spectral_abscissa_negative(self, gamma):
        nodes = np.linspace(0.1, 10.0, 1000)
        roots, _, _, _ = cubic_char_roots_batch(ModelParams(gamma), nodes)
        assert roots.real.max() < 0.0


class TestTrackBranches:
    def test_identity_on_constant_sweep(self):
        p = ModelParams(2.0)
        base = cubic_char_roots(p, 0.0)
        sets = [RootSet(0.0, base.roots.copy(), base.residuals.copy(),
                        base.multiplicity_flag) for _ in range(5)]
        tracked = track_branches(sets)
        for t in tracked:
            assert np.array_equal(t.roots, base.roots)
        # the repeated double root ties the matching; nodes are flagged and
        # resolved by the canonical (Re, Im) order
        assert all(t.ambiguous_match for t in tracked[1:])

    def test_sweep_continuity(self):
        p = ModelParams(2.0)
        grid = np.geomspace(1e-3, 10.0, 200)
        roots, resid, _, flags = cubic_char_roots_batch(p, grid)
        sets = [RootSet(float(grid[i]), roots[i], resid[i], bool(flags[i]))
                for i in range(len(grid))]
        tracked = track_branches(sets)
        arr = np.stack([t.roots for t in tracked])
        jumps = np.abs(np.diff(arr, axis=0))
        rel = jumps / (1.0 + np.abs(arr[:-1]))
        assert rel.max() < 0.3
        # below the first coalescence radius (triple root at r = 1) branch
        # identities are unambiguous: the oscillatory pair never swaps with
        # the real branch
        seg = grid < 0.95
        pair_cols = [j for j in range(3) if np.abs(arr[0, j].imag) > 0]
        assert len(pair_cols) == 2
        a, b = pair_cols
        real_col = ({0, 1, 2} - set(pair_cols)).pop()
        assert np.allclose(arr[seg, a], np.conj(arr[seg, b]), rtol=1e-10, atol=1e-12)
        assert np.all(np.abs(arr[seg, real_col].imag) == 0.0)
        # past the pinch every node still carries a conjugate-consistent set
        assert np.allclose(np.sort_complex(arr), np.sort_complex(np.conj(arr)),
                           rtol=1e-12, atol=1e-12)

    def test_multiplicity_flag_near_sign_change(self):
        # bisect the discriminant sign change and expect a flagged node there
        p = ModelParams(6.0)
        lo, hi = 2.0, 2.5   # brackets sqrt(5), a coalescence radius
        flo = cubic_discriminant_expanded(p, lo)
        assert flo * cubic_discriminant_expanded(p, hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fmid = cubic_discriminant_expanded(p, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        sweep = np.unique(np.concatenate([
            np.geomspace(1.0, 4.0, 40), [lo, hi]]))
        roots, resid, _, flags = cubic_char_roots_batch(p, sweep)
        sets = [RootSet(float(sweep[i]), roots[i], resid[i], bool(flags[i]))
                for i in range(len(sweep))]
        tracked = track_branches(sets)
        assert any(t.multiplicity_flag for t in tracked)

    def test_unsorted_input_rejected(self):
        p = ModelParams(2.0)
        a = cubic_char_roots(p, 1.5)
        b = cubic_char_roots(p, 0.5)
        with pytest.raises(DomainError):
            track_branches([a, b])

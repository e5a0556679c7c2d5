"""Time-domain integrator tests: exactness, order, stability, identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave import (DataSpectrum, DomainError, ExperimentConfig,
                       InvalidParameterError, ModelParams, StabilityError,
                       integrate_mgt_mode, integrate_vdw_mode, mgt_mode_solution,
                       vdw_kernels, vdw_mode_solution)
from viscowave import oracle
from viscowave.experiments import _mode_field, _vdw_tables
from viscowave.oracle import default_step, integrate_mgt_many, integrate_vdw_many
from viscowave.spectrum import (cubic_char_roots_batch, discriminant_zero_radii,
                                quartic_char_roots_batch)

from helpers import quartic_coalescence_radii, solved_mgt_tables


def test_zero_frequency_is_linear_in_time():
    traj = integrate_vdw_mode(ModelParams(2.0), 0.0, np.linspace(0.0, 3.0, 65),
                              u0hat=1.0, u1hat=2.0)
    assert traj.u[-1] == pytest.approx(7.0, abs=1e-10)
    assert traj.ut[-1] == pytest.approx(2.0, abs=1e-10)


def test_fourth_order_convergence():
    p = ModelParams(2.0)
    r, t = 0.5, 5.0
    exact = vdw_kernels(p, r, t).k0
    errs = []
    for h in (0.2, 0.1, 0.05):
        traj = integrate_vdw_mode(p, r, t_eval=[t], u0hat=1, u1hat=0, step=h)
        errs.append(abs(traj.u[0] - exact))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.4)


def test_step_stability_guard():
    p = ModelParams(2.0)
    with pytest.raises(StabilityError):
        integrate_vdw_mode(p, 10.0, [1.0], step=0.1)  # h * r^2 = 10
    with pytest.raises(StabilityError):
        integrate_mgt_mode(ModelParams(2.0, 0.01), 1.0, [1.0], step=0.1)
    with pytest.raises(StabilityError):
        integrate_vdw_mode(p, 1.0, [1.0], step=-0.1)
    with pytest.raises(StabilityError):
        integrate_vdw_mode(p, 1.0, [1.0], step=float("nan"))


@pytest.mark.parametrize("name", ["gamma", "r", "tau"])
def test_non_finite_parameters_rejected(name):
    # a NaN stiffness passed the step bound (step * nan > limit is False)
    # and the batch came back all NaN
    values = {"gamma": np.array([2.0, 3.0]), "r": np.array([0.5, 1.5]),
              "tau": np.array([0.5, 0.3])}
    t = np.linspace(0.0, 1.0, 3)
    for bad in (np.nan, np.inf):
        args = dict(values)
        args[name] = np.array([values[name][0], bad])
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            integrate_mgt_many(args["gamma"], args["tau"], args["r"], t,
                               1.0, 0.0, 0.0, step=0.01)
        if name != "tau":
            with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
                integrate_vdw_many(args["gamma"], args["r"], t, 1.0, 0.0, step=0.01)
    with pytest.raises(InvalidParameterError, match="^r must be finite"):
        integrate_vdw_mode(ModelParams(2.0), float("nan"), t)


def test_non_finite_stiffness_rejected():
    # step * nan > limit is False, so a NaN scale needs its own refusal
    with pytest.raises(StabilityError, match="finite"):
        oracle._check_step(0.01, float("nan"))


def test_default_step_respects_stiffness():
    assert default_step(ModelParams(2.0), 0.5) == pytest.approx(0.1)
    assert default_step(ModelParams(2.0), 10.0) == pytest.approx(0.002)
    assert default_step(ModelParams(2.0, 0.001), 0.5) == pytest.approx(2e-4)


def test_memory_identity_residual():
    # z' = u - gamma z along the trajectory, checked by central differences
    p = ModelParams(2.0)
    t_eval = np.linspace(0.0, 5.0, 401)
    traj = integrate_vdw_mode(p, 0.7, t_eval=t_eval, u0hat=1.0, u1hat=0.5,
                              step=0.002)
    h = t_eval[1] - t_eval[0]
    zdot = (traj.z[2:] - traj.z[:-2]) / (2 * h)
    rhs = traj.u[1:-1] - p.gamma * traj.z[1:-1]
    assert np.abs(zdot - rhs).max() <= 5.0 * h ** 2


def test_equation_identity_along_trajectory():
    p = ModelParams(3.0)
    r = 0.9
    traj = integrate_vdw_mode(p, r, np.linspace(0.0, 4.0, 65), u0hat=1.0, u1hat=-1.0)
    recon = -r * r * (traj.u + traj.ut) + r * r * traj.z
    assert np.allclose(traj.utt, recon, rtol=0, atol=1e-12)


def test_bounded_zone_exponential_damping():
    # horizon scaled to the spectral abscissa: several damping times later
    # the mode magnitude must have dropped by the predicted exponential
    p = ModelParams(2.0)
    for r in (0.2, 0.7, 4.0):
        roots, _, _, _ = cubic_char_roots_batch(p, np.array([r]))
        rate = -float(roots.real.max())
        assert rate > 0
        horizon = 14.0 / rate
        traj = integrate_vdw_mode(p, r, t_eval=[0.0, horizon],
                                  u0hat=1.0, u1hat=1.0)
        assert abs(traj.u[1]) < 1e-3 * max(abs(traj.u[0]), 1.0)


def test_sampling_hits_exact_times():
    p = ModelParams(2.0)
    t_eval = np.array([0.0, 0.31, 0.31, 1.7])   # repeated time allowed
    traj = integrate_vdw_mode(p, 0.5, t_eval=t_eval, u0hat=1.0, u1hat=0.0)
    assert np.array_equal(traj.t, t_eval)
    assert traj.u[1] == traj.u[2]
    assert traj.u[0] == 1.0


def test_mgt_initial_state():
    p = ModelParams(2.0, 0.1)
    traj = integrate_mgt_mode(p, 0.5, t_eval=[0.0], u0hat=1.0, u1hat=2.0,
                              v2hat=-3.0)
    assert traj.u[0] == 1.0
    assert traj.ut[0] == 2.0
    assert traj.utt[0] == -3.0
    assert traj.z[0] == 0.0


def test_mgt_relaxation_gap_first_order():
    # consistent second datum: trajectory gap to the memory-only model ~ tau
    g, r = 2.0, 0.5
    base = integrate_vdw_mode(ModelParams(g), r, t_eval=[1.0], u0hat=1.0,
                              u1hat=0.0, step=0.002)
    gaps = []
    for tau in (1e-2, 1e-3):
        p = ModelParams(g, tau)
        tr = integrate_mgt_mode(p, r, t_eval=[1.0], u0hat=1.0, u1hat=0.0,
                                v2hat=-r * r, step=min(0.002, 0.2 * tau))
        gaps.append(abs(tr.u[0] - base.u[0]))
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.25)


def test_invalid_times_rejected():
    for t_eval in ([1.0, 0.5],                     # unsorted
                   [-1.0, 0.5],                    # negative
                   [],
                   [0.0, float("nan"), 2.0],
                   [0.0, float("inf")],
                   [[0.0, 1.0]]):                  # not 1-d
        with pytest.raises(InvalidParameterError):
            integrate_vdw_mode(ModelParams(2.0), 0.5, t_eval=t_eval)
        with pytest.raises(InvalidParameterError):
            integrate_mgt_many(np.array([2.0]), np.array([0.1]), np.array([0.5]),
                               t_eval, 1.0, 0.0, 0.0, step=0.01)


@pytest.mark.parametrize("kind", ["vdw", "mgt"])
def test_batch_matches_scalar(kind):
    g = np.array([2.0, 4.0])
    tau = np.array([0.5, 0.3])
    r = np.array([0.3, 1.2])
    u0, u1, v2 = np.array([1.0, 0.5]), np.array([0.0, 1.0]), np.array([-1.0, 2.0])
    t_eval = np.linspace(0.0, 3.0, 7)
    if kind == "vdw":
        batch = integrate_vdw_many(g, r, t_eval, u0, u1, step=0.01)
    else:
        batch = integrate_mgt_many(g, tau, r, t_eval, u0, u1, v2, step=0.01)
    for i in range(2):
        if kind == "vdw":
            single = integrate_vdw_mode(ModelParams(g[i]), float(r[i]),
                                        t_eval=t_eval, u0hat=u0[i],
                                        u1hat=u1[i], step=0.01)
        else:
            single = integrate_mgt_mode(ModelParams(g[i], tau[i]), float(r[i]),
                                        t_eval=t_eval, u0hat=u0[i], u1hat=u1[i],
                                        v2hat=v2[i], step=0.01)
        for name in ("u", "ut", "utt", "z"):
            assert np.allclose(getattr(batch, name)[:, i], getattr(single, name),
                               rtol=0, atol=1e-12)


def _stepped_rk4(rhs, y0, t_eval, step):
    """Reference: the textbook RK4 step loop, same sub-step rule."""
    y, t, out = np.array(y0, dtype=complex), 0.0, []
    for t_next in t_eval:
        if t_next > t:
            n_sub = max(1, int(np.ceil((t_next - t) / step - 1e-12)))
            h = (t_next - t) / n_sub
            for _ in range(n_sub):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t_next
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("kind", ["vdw", "mgt"])
def test_matches_stepped_rk4(kind):
    g, tau, r, step = 3.0, 0.2, 1.3, 0.01
    r2 = r * r
    # a repeated time, a short interval and one of 1,320 sub-steps; then a
    # uniform grid, whose intervals after the first reuse one propagator
    for t_eval in (np.array([0.0, 0.37, 0.37, 0.4, 13.6]), np.linspace(0.0, 2.0, 11)):
        if kind == "vdw":
            traj = integrate_vdw_mode(ModelParams(g), r, t_eval=t_eval,
                                      u0hat=1.0 + 0.5j, u1hat=-0.2, step=step)
            ref = _stepped_rk4(lambda y: np.array([
                y[1], -r2 * y[0] - r2 * y[1] + r2 * y[2], y[0] - g * y[2]]),
                [1.0 + 0.5j, -0.2, 0.0], t_eval, step)
            got = np.stack([traj.u, traj.ut, traj.z], axis=-1)
        else:
            traj = integrate_mgt_mode(ModelParams(g, tau), r, t_eval=t_eval,
                                      u0hat=1.0 + 0.5j, u1hat=-0.2, v2hat=0.7j,
                                      step=step)
            ref = _stepped_rk4(lambda y: np.array([
                y[1], y[2], (-y[2] - r2 * y[0] - r2 * y[1] + r2 * y[3]) / tau,
                y[0] - g * y[3]]),
                [1.0 + 0.5j, -0.2, 0.7j, 0.0], t_eval, step)
            got = np.stack([traj.u, traj.ut, traj.utt, traj.z], axis=-1)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _seeded_batch(kind, t_eval, step=0.02):
    """Six seeded modes on the grid ``t_eval`` at one shared step."""
    rng = np.random.default_rng(5)
    g, tau = rng.uniform(1.1, 8.0, 6), rng.uniform(0.2, 1.0, 6)
    r = rng.uniform(0.0, 2.0, 6)
    u0, u1, v2 = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3))
    if kind == "vdw":
        return integrate_vdw_many(g, r, t_eval, u0, u1, step=step)
    return integrate_mgt_many(g, tau, r, t_eval, u0, u1, v2, step=step)


# the singular-limit sweep grid at the default probe_time and history_points
_TAU_GRID = np.linspace(0.0, 10.0, 201)
# the bench batch grid: 40 intervals of 25 steps of a non-dyadic step, whose
# six lengths differ in the last bits only
_BENCH_STEP = 0.02 / 3
_BENCH_GRID = np.linspace(0.0, 1000 * _BENCH_STEP, 41)
# one grid per case: (times, step)
_GRIDS = {
    "uniform": (np.linspace(0.0, 20.0, 41), 0.02),
    "tau-grid": (_TAU_GRID, 0.02),
    "bench": (_BENCH_GRID, _BENCH_STEP),
    "repeated": (np.array([0.0, 0.3, 0.3, 0.75, 1.2, 1.2, 1.2, 2.0]), 0.02),
    "late-start": (np.array([0.5, 0.9, 1.3, 1.33, 2.0]), 0.02),
}


@pytest.mark.parametrize("kind", ["vdw", "mgt"])
def test_path_equals_chained_intervals(kind, monkeypatch):
    # on every grid, a path whose propagators are stacked by substep count
    # is bit for bit the chain of one-interval calls, each started where the
    # last stopped (a zero-length interval, the first one included, keeps
    # the state)
    rk4_path, seen = oracle._rk4_path, []

    def capture(a, y0, t_eval, step):
        seen.append((a, y0, step))
        return rk4_path(a, y0, t_eval, step)

    monkeypatch.setattr(oracle, "_rk4_path", capture)
    for grid, (t, step) in _GRIDS.items():
        seen.clear()
        traj = _seeded_batch(kind, t, step)
        (a, y, step), = seen
        chained = []
        for dt in np.diff(t, prepend=0.0):
            y = rk4_path(a, y, np.array([dt]), step)[0]
            chained.append(y)
        chained = np.array(chained)
        got = np.stack([traj.u, traj.ut, traj.z], axis=-1)
        assert np.array_equal(got, chained[..., [0, 1, -1]]), grid


@pytest.mark.parametrize("t_eval, step, lengths", [
    (*_GRIDS["uniform"], [1]),
    (*_GRIDS["tau-grid"], [9]),
    (*_GRIDS["bench"], [6]),
    # a repeated start time, then 30 intervals of distinct substep counts
    (np.concatenate([[0.0, 0.0], np.geomspace(1.0, 1e4, 30)]), 0.02, [1] * 30),
], ids=["uniform", "tau-grid", "bench", "geometric"])
def test_one_power_per_substep_count(t_eval, step, lengths, monkeypatch):
    # one matrix_power per distinct substep count, stacked on a leading
    # axis over that count's distinct interval lengths
    calls = []
    matrix_power = np.linalg.matrix_power

    def counted(m, n):
        calls.append((n, m.shape))
        return matrix_power(m, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    _seeded_batch("vdw", t_eval, step)
    counts = [n for n, _ in calls]
    assert len(set(counts)) == len(counts)
    assert [shape[0] for _, shape in calls] == lengths
    assert all(shape[1:] == (6, 3, 3) for _, shape in calls)


_MODELS = {"vdw": (cubic_char_roots_batch, vdw_mode_solution),
           "mgt": (quartic_char_roots_batch, mgt_mode_solution)}


def _unflagged_offset(solve, params, r):
    """Least offset r * 10^k with neither r - dr nor r + dr flagged."""
    for exp in range(-12, 0):
        dr = r * 10.0 ** exp
        if not solve(params, np.array([r - dr, r + dr]))[3].any():
            return dr
    raise AssertionError(f"no unflagged radii around r={r}")


def _closed_form_mean(model, p, r, t, data, name):
    """Mean of the closed forms at r -+ dr for a radius r the solver flags.

    ``model`` is "vdw" (data u0, u1) or "mgt" (data u0, u1, v2).  At a
    root-coalescence radius the kernel path has no closed form; the
    solution is analytic in r, so this mean is off by O(dr^2) only.
    """
    solve, solution = _MODELS[model]
    dr = _unflagged_offset(solve, p, r)
    refs = [solution(p, r + sign * dr, t, *data) for sign in (-1.0, 1.0)]
    return 0.5 * (getattr(refs[0], name) + getattr(refs[1], name))


@settings(max_examples=40, deadline=None)
@given(g=st.floats(1.01, 10.0, exclude_min=True))
def test_coalescence_radius_matches_closed_form(g):
    p = ModelParams(g)
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e4)])
    u0, u1 = 1.0 - 0.5j, 0.3 + 1.0j
    for r in discriminant_zero_radii(p):
        r = float(r)
        traj = integrate_vdw_mode(p, r, t_eval=t, u0hat=u0, u1hat=u1,
                                  step=0.25 * default_step(p, r))
        for name in ("u", "ut"):
            ref = _closed_form_mean("vdw", p, r, t, (u0, u1), name)
            gap = np.abs(getattr(traj, name) - ref).max() / np.abs(ref).max()
            assert gap <= 1e-6, (name, r, gap)


# at 1.97 and 2.18 a fallback at the full default step misses 1e-6 (up to
# 2.2e-6 over t <= 1e4)
@pytest.mark.parametrize("g", [1.3, 1.97, 2.18, 4.5, 9.0])
def test_fallback_route_matches_closed_form(g):
    # flagged nodes reach the oracle through the mode tables and through
    # the lockstep field that adaptive quadrature samples
    p = ModelParams(g)
    radii = discriminant_zero_radii(p)
    assert cubic_char_roots_batch(p, radii)[3].all()
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e4)])
    u0, u1 = 1.0 - 0.5j, 0.3 + 1.0j
    tables = dict(zip(("u", "ut"), _vdw_tables(
        p, radii, t, np.full(radii.shape, u0), np.full(radii.shape, u1))))
    config = ExperimentConfig(p, u0=DataSpectrum.gaussian(1.0, 1.0),
                              u1=DataSpectrum.gaussian(0.5, 2.0))
    # one lockstep field call at every time, with one root solve for all
    t_field = t[::10]
    field = _mode_field(config, t_field, lambda tk, r, u, ut: np.concatenate((u, ut)))
    rows = np.array(field(range(t_field.size), [radii] * t_field.size))
    for j, name in enumerate(("u", "ut")):
        field = rows[:, j]
        for k, r in enumerate(radii):
            r = float(r)
            d0, d1 = config.u0(np.array([r]))[0], config.u1(np.array([r]))[0]
            for got, ts, a, b in ((tables[name][:, k], t, u0, u1),
                                  (field[:, k], t_field, d0, d1)):
                ref = _closed_form_mean("vdw", p, r, ts, (a, b), name)
                gap = np.abs(got - ref).max() / np.abs(ref).max()
                assert gap <= 1e-6, (name, r, gap)


@pytest.mark.parametrize("g, tau", [(1.3, 0.05), (1.3, 0.3), (2.0, 0.05),
                                    (4.5, 0.05), (9.0, 0.05)])
def test_relaxed_fallback_route_matches_closed_form(g, tau):
    # flagged relaxed-model nodes reach the oracle through _mgt_tables
    p = ModelParams(g, tau)
    radii = quartic_coalescence_radii(p)
    assert radii.size and quartic_char_roots_batch(p, radii)[3].all()
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e3, 7)])
    data = (1.0 - 0.5j, 0.3 + 1.0j, -0.7 + 0.2j)
    tables = solved_mgt_tables(p, radii, t, *(np.full(radii.shape, d) for d in data))
    for name, table in zip(("u", "ut", "utt"), tables):
        for k, r in enumerate(radii):
            ref = _closed_form_mean("mgt", p, float(r), t, data, name)
            gap = np.abs(table[:, k] - ref).max() / np.abs(ref).max()
            assert gap <= 1e-6, (name, r, gap)


def test_stepped_tables_keep_the_fallback_columns():
    # the stepped table route hands the fallback writable real tables, and
    # the oracle columns it writes do not depend on the route
    p = ModelParams(2.0, 0.05)
    flagged = quartic_coalescence_radii(p)
    r = np.concatenate([[0.3, 2.5], flagged])
    flags = quartic_char_roots_batch(p, r)[3]
    assert flags[2:].all() and not flags[:2].any()
    t, step = np.linspace(0.0, 10.0, 41, retstep=True)
    data = [np.full(r.shape, d) for d in (1.0, 0.3, -0.7)]
    plain = solved_mgt_tables(p, r, t, *data)
    stepped = solved_mgt_tables(p, r, t, *data, step=step)
    for a, b in zip(plain, stepped):
        assert b.dtype == float
        assert b.flags.c_contiguous and b.flags.writeable
        assert np.array_equal(a.real[:, flags], b[:, flags])
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()


@pytest.mark.parametrize("tables, params, count", [
    (_vdw_tables, ModelParams(2.0), 2),
    (solved_mgt_tables, ModelParams(2.0, 0.05), 3)],
    ids=["vdw", "mgt"])
def test_stepped_tables_reject_complex_data(tables, params, count):
    # the stepped route keeps real parts only, so complex data would lose
    # their imaginary part silently; it raises instead
    r = np.array([0.3, 2.5])
    t, step = np.linspace(0.0, 1.0, 5, retstep=True)
    for k in range(count):
        data = [np.ones(r.shape)] * count
        data[k] = data[k] + 0.5j
        with pytest.raises(DomainError, match="real data"):
            tables(params, r, t, *data, step=step)


def test_fallback_integrators_resolved_at_call_time(monkeypatch):
    # the table routes reach the oracle through the experiments module's
    # integrator names, looked up per call, so a wrapper installed there
    # sees every flagged node (the benchmark tracer counts fallbacks so)
    import viscowave.experiments as ex

    calls = []
    for name in ("integrate_vdw_mode", "integrate_mgt_mode"):
        original = getattr(ex, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ex, name, counted)
    t = np.array([0.0, 1.0, 5.0])
    p = ModelParams(2.18)
    radii = discriminant_zero_radii(p)
    ex._vdw_tables(p, radii, t, np.ones(radii.shape), np.zeros(radii.shape))
    q = ModelParams(2.0, 0.05)
    qradii = quartic_coalescence_radii(q)
    ones = np.ones(qradii.shape)
    roots, _, _, flags = quartic_char_roots_batch(q, qradii)
    ex._mgt_tables(q, qradii, roots, flags, t, ones, ones, ones)
    ex.kernel_tables(p, ex.vdw_kernel_basis(p, radii), t)
    assert calls == (["integrate_vdw_mode"] * radii.size
                     + ["integrate_mgt_mode"] * qradii.size
                     + ["integrate_vdw_mode"] * (2 * radii.size))

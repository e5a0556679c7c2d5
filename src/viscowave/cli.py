"""Config-driven command line: parse, dispatch, serialise, summarise.

Usage::

    viscowave <command> --config FILE [--out FILE.csv]

with commands roots | kernels | decay | profile | optimality | envelope |
singular-limit-energy | singular-limit-solution | oracle-check.

Configs are flat ``key = value`` text files; an optional ``[command]``
section overrides top-level keys for that command only.  Results are
written as CSV (full 17-digit precision, LF endings) preceded by
``# key=value`` metadata lines echoing the configuration; one PASS/FAIL
line per built-in assertion goes to stdout.  Exit code: 0 all pass,
1 any fail, 2 configuration or usage error.

Worker threads are capped by the VISCOWAVE_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, ViscowaveError
from .experiments import (DECAY_FIT_WINDOW, ExperimentConfig, decay_experiment,
                          envelope_check, optimality_check,
                          profile_error_experiment, singular_limit_energy,
                          singular_limit_solution)
from .kernels import vdw_kernel_basis
from .params import ModelParams
from .quadrature import DataSpectrum
from .spectrum import (DEFAULT_EPS_CUT, DEFAULT_N_CUT, FrequencyGrid,
                       cubic_char_roots_batch, quartic_char_roots_batch,
                       RESIDUAL_RTOL)

COMMANDS = ("roots", "kernels", "decay", "profile", "optimality", "envelope",
            "singular-limit-energy", "singular-limit-solution", "oracle-check")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


@dataclass
class ResultTable:
    headers: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)

    def add(self, *row):
        if len(row) != len(self.headers):
            raise ValueError("row width does not match headers")
        self.rows.append(list(row))

    def write(self, fh):
        for key in sorted(self.metadata):
            fh.write(f"# {key}={self.metadata[key]}\n")
        fh.write(",".join(self.headers) + "\n")
        for row in self.rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    """Flat key=value sections; '#' comments; '[name]' section headers."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        sections[current][key] = value.strip()
    return sections


def merged_options(sections: dict, command: str) -> dict[str, str]:
    opts = dict(sections.get("", {}))
    opts.update(sections.get(command, {}))
    return opts


def parse_spectrum(text: str, key: str):
    text = text.strip()
    if text in ("zero", "0", "none"):
        return DataSpectrum.zero()
    if text == "consistent":
        if key != "data.v2":
            raise ConfigError(f"{key}: 'consistent' is only valid for data.v2")
        return "consistent"
    kind, _, rest = text.partition(":")
    args = [a for a in rest.split(",") if a.strip()] if rest else []
    try:
        if kind == "gaussian":
            vals = [float(a) for a in args] or [1.0, 1.0]
            return DataSpectrum.gaussian(*vals)
        if kind == "gaussian_diff":
            vals = [float(a) for a in args] or [1.0, 1.0, 2.0]
            return DataSpectrum.gaussian_diff(*vals)
        if kind == "linear_gaussian":
            vals = [float(a) for a in args] or [1.0, 1.0]
            return DataSpectrum.linear_gaussian(*vals)
        if kind == "tabulated":
            pairs = [p.split(":") for p in rest.split(";") if p.strip()]
            return DataSpectrum.tabulated([float(p[0]) for p in pairs],
                                          [float(p[1]) for p in pairs])
    except (ValueError, IndexError, TypeError, ViscowaveError) as exc:
        raise ConfigError(f"{key}: cannot parse spectrum {text!r}: {exc}") from exc
    raise ConfigError(f"{key}: unknown spectrum kind {kind!r}")


def _number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _get_float(opts, key, default):
    return _number(key, opts[key]) if key in opts else default


def _get_int(opts, key, default, least=1):
    """Integer key of at least ``least`` (counts need 1, the seed 0)."""
    value = _get_float(opts, key, default)
    if value != int(value) or value < least:
        raise ConfigError(f"{key}: expected an integer >= {least}, got {value!r}")
    return int(value)


def build_config(opts: dict[str, str], command: str) -> ExperimentConfig:
    try:
        gamma = _get_float(opts, "gamma", 2.0)
        params = ModelParams(gamma, _get_float(opts, "tau", None))
    except ViscowaveError as exc:
        raise ConfigError(str(exc)) from exc
    n = _get_int(opts, "n", 3)
    s = _get_float(opts, "s", 0.0)
    u0 = parse_spectrum(opts.get("data.u0", "zero"), "data.u0")
    u1 = parse_spectrum(opts.get("data.u1", "gaussian:1.0,1.0"), "data.u1")
    v2 = parse_spectrum(opts["data.v2"], "data.v2") if "data.v2" in opts else None
    t_hi_default = 1.2e5 if command == "profile" else 1.2e4
    t_lo = _get_float(opts, "t.min", 50.0)
    t_hi = _get_float(opts, "t.max", t_hi_default)
    t_pts = _get_int(opts, "t.points", 30 if command == "profile" else 28)
    fit = (_get_float(opts, "fit.min", DECAY_FIT_WINDOW[0]),
           _get_float(opts, "fit.max", DECAY_FIT_WINDOW[1]))
    eps_cut = _get_float(opts, "r.eps", DEFAULT_EPS_CUT)
    n_cut = _get_float(opts, "r.cut", DEFAULT_N_CUT)
    tau_list = None
    if "tau.list" in opts:
        tau_list = np.array([_number("tau.list", x)
                             for x in opts["tau.list"].split(",")])
    elif command.startswith("singular-limit"):
        tau_list = np.geomspace(_get_float(opts, "tau.max", 1e-1),
                                _get_float(opts, "tau.min", 1e-3),
                                _get_int(opts, "tau.points", 7))
    spectra = [sp for sp in (u0, u1, v2) if isinstance(sp, DataSpectrum)]
    r_max = _get_float(opts, "r.max", max(sp.tail_radius() for sp in spectra))
    grid = FrequencyGrid.composite_gauss(
        0.0, r_max, panels=_get_int(opts, "r.panels", 48),
        order=_get_int(opts, "r.order", 8), eps_cut=eps_cut, n_cut=n_cut)
    try:
        return ExperimentConfig(
            params=params, n=n, s=s, u0=u0, u1=u1, v2=v2,
            t_grid=np.geomspace(t_lo, t_hi, t_pts), r_grid=grid,
            tau_list=tau_list, fit_window=fit,
            error_fit_window=(_get_float(opts, "errfit.min", 1e3),
                              _get_float(opts, "errfit.max", 1e5)),
            probe_time=_get_float(opts, "probe.time", 10.0),
            history_points=_get_int(opts, "history.points", 200),
            solver=opts.get("solver", "kernel"))
    except ViscowaveError as exc:
        raise ConfigError(str(exc)) from exc


def _metadata(opts: dict[str, str], command: str) -> dict[str, str]:
    meta = {f"config.{k}": v for k, v in opts.items()}
    meta["command"] = command
    meta["version"] = __version__
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return meta


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _handle_roots(opts, config):
    equation = opts.get("equation", "mgt" if config.params.tau else "vdw")
    sweep = np.geomspace(_get_float(opts, "sweep.rmin", 1e-3),
                         _get_float(opts, "sweep.rmax", 2 * config.r_grid.n_cut),
                         _get_int(opts, "sweep.points", 200))
    if equation == "vdw":
        roots, resid, scales, flags = cubic_char_roots_batch(
            config.params.without_tau(), sweep)
    elif equation == "mgt":
        roots, resid, scales, flags = quartic_char_roots_batch(config.params, sweep)
    else:
        raise ConfigError(f"equation must be vdw or mgt, got {equation!r}")
    deg = roots.shape[1]
    headers = ["r"]
    for j in range(deg):
        headers += [f"re_l{j + 1}", f"im_l{j + 1}"]
    headers += ["residual_max", "mult_flag"]
    table = ResultTable(headers, [])
    for i, r in enumerate(sweep):
        row = [r]
        for j in range(deg):
            row += [roots[i, j].real, roots[i, j].imag]
        row += [float(resid[i].max()), bool(flags[i])]
        table.add(*row)
    checks = []
    bound = RESIDUAL_RTOL * scales
    checks.append(Check(
        "roots.residual", bool(np.all(resid < bound)),
        f"max residual/bound = {float((resid / bound).max()):.3e} (< 1)"))
    conj_gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots))).max()
    checks.append(Check("roots.conjugate_symmetry", bool(conj_gap <= 1e-12),
                        f"max conjugation gap = {conj_gap:.3e} (<= 1e-12)"))
    zone = (sweep >= config.r_grid.eps_cut) & (sweep <= config.r_grid.n_cut)
    if zone.any():
        worst = float(roots.real[zone].max())
        checks.append(Check("roots.bounded_zone_stability", worst < 0,
                            f"max Re over bounded zone = {worst:.6e} (< 0)"))
    return table, checks


def _handle_kernels(opts, config):
    r_vals = np.geomspace(_get_float(opts, "sweep.rmin", 0.01),
                          _get_float(opts, "sweep.rmax", 5.0),
                          _get_int(opts, "sweep.points", 12))
    t_vals = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    basis = vdw_kernel_basis(config.params.without_tau(), r_vals)
    keep = ~basis.flags
    table = ResultTable(["r", "t", "k0_re", "k0_im", "k1_re", "k1_im",
                         "dk0_re", "dk0_im", "dk1_re", "dk1_im"], [])
    worst = 0.0
    for t in t_vals:
        pair = basis.eval(float(t))
        for i in np.where(keep)[0]:
            table.add(r_vals[i], t, pair.k0[i].real, pair.k0[i].imag,
                      pair.k1[i].real, pair.k1[i].imag, pair.dk0[i].real,
                      pair.dk0[i].imag, pair.dk1[i].real, pair.dk1[i].imag)
        if t == 0.0:
            worst = max(float(np.abs(pair.k0[keep] - 1).max()),
                        float(np.abs(pair.k1[keep]).max()),
                        float(np.abs(pair.dk0[keep]).max()),
                        float(np.abs(pair.dk1[keep] - 1).max()))
    checks = [Check("kernels.interpolation_at_0", worst <= 1e-12,
                    f"max |identity defect| = {worst:.3e} (<= 1e-12)")]
    return table, checks


def _handle_decay(opts, config):
    res = decay_experiment(config)
    table = ResultTable(["t", "norm_u", "norm_ut"], [])
    for t, a, b in zip(res.t, res.u_norms, res.ut_norms):
        table.add(t, a, b)
    table.metadata["fit.u.slope"] = _fmt(res.fit_u.slope)
    table.metadata["fit.ut.slope"] = _fmt(res.fit_ut.slope)
    checks = []
    if res.predicted_u.log_half:
        checks.append(Check(
            "decay.u_log_ratio",
            res.log_ratio_spread < 20.0,
            f"norm/(ln(e+t))^0.5 spread = {res.log_ratio_spread:.3f} (< 20)"))
    else:
        checks.append(_slope_check("decay.u_slope", res.fit_u.slope,
                                   res.predicted_u, 0.05))
    checks.append(_slope_check("decay.ut_slope", res.fit_ut.slope,
                               res.predicted_ut, 0.07))
    return table, checks


def _slope_check(name, slope, prediction, tol):
    """Two-sided check for saturating data, upper-bound check otherwise."""
    pred = prediction.exponent
    if prediction.sharp:
        return Check(name, abs(slope - pred) <= tol,
                     f"slope={slope:.4f} expected={pred:.4f} tol={tol}")
    return Check(name, slope <= pred + tol,
                 f"slope={slope:.4f} <= bound {pred:.4f}+{tol} "
                 "(non-saturating data)")


def _handle_profile(opts, config):
    res = profile_error_experiment(config)
    table = ResultTable(["t", "norm_solution", "norm_error", "ratio"], [])
    for t, a, b, q in zip(res.t, res.solution_norms, res.error_norms, res.ratios):
        table.add(t, a, b, q)
    table.metadata["fit.solution.slope"] = _fmt(res.fit_solution.slope)
    table.metadata["fit.error.slope"] = _fmt(res.fit_error.slope)
    checks = []
    if config.u0.moment == 0.0 and config.u1.moment == 0.0:
        checks.append(Check(
            "profile.rate_gain", True,
            "no moments to subtract (the refinement presumes moment-carrying "
            "data); error equals the zone-restricted norm"))
    else:
        checks.append(Check(
            "profile.rate_gain", res.rate_gain >= 0.3,
            f"error vs solution slope gain = {res.rate_gain:.3f} (>= 0.3)"))
        if config.t_grid[-1] >= 2e3:
            checks.append(Check(
                "profile.ratio_monotone", res.ratio_monotone_beyond(1e3),
                "error/solution decreasing beyond t=1e3"))
    return table, checks


def _handle_optimality(opts, config):
    res = optimality_check(config)
    table = ResultTable(["t", "norm_u", "rate_h", "ratio"], [])
    for t, a, h in zip(res.t, res.norms, res.rate_values):
        table.add(t, a, h, a / h)
    checks = [Check("optimality.two_sided", res.spread < 20.0,
                    f"ratio in [{res.ratio_min:.4f}, {res.ratio_max:.4f}], "
                    f"spread {res.spread:.3f} (< 20)")]
    return table, checks


def _handle_envelope(opts, config):
    rep = envelope_check(config)
    table = ResultTable(["zone", "c_fit", "constant_u", "constant_ut"], [])
    for z in (rep.small, rep.bounded, rep.large):
        table.add(z.zone, z.c_fit, z.constant_u, z.constant_ut)
    checks = [
        Check("envelope.finite", rep.all_finite(),
              f"C_small={rep.small.constant_u:.3f} C_bdd={rep.bounded.constant_u:.3f} "
              f"C_large={rep.large.constant_u:.3f}"),
        Check("envelope.bounded_rate", rep.bounded.c_fit > 0,
              f"fitted c = {rep.bounded.c_fit:.5f} (> 0)"),
    ]
    return table, checks


def _handle_sl_energy(opts, config):
    res = singular_limit_energy(config)
    table = ResultTable(["tau", "t", "e_wtt", "e_grad_wt", "e_grad_w", "e_wt",
                         "e_memory", "e_total", "w_l2_sq"], [])
    for s in res.series:
        for i, t in enumerate(s.t):
            table.add(s.tau, t, s.e_wtt[i], s.e_grad_wt[i], s.e_grad_w[i],
                      s.e_wt[i], s.e_memory[i], s.total[i], s.w_l2_sq[i])
    table.metadata["fit.sup.slope"] = _fmt(res.fit_sup.slope)
    predicted = 2.0 if config.v2 == "consistent" else 1.0
    es0_pred = np.asarray(config.tau_list) * res.w2_norm_sq
    if res.w2_norm_sq > 0:
        rel = float(np.max(np.abs(res.es0_values - es0_pred) / es0_pred))
    else:
        rel = float(np.max(np.abs(res.es0_values)))
    checks = [
        Check("sl_energy.slope", abs(res.fit_sup.slope - predicted) <= 0.1,
              f"sup-energy slope={res.fit_sup.slope:.4f} expected={predicted} tol=0.1"),
        Check("sl_energy.initial_value", rel <= 1e-8,
              f"E(0) vs tau*||w2||^2 rel err = {rel:.3e} (<= 1e-8)"),
    ]
    return table, checks


def _handle_sl_solution(opts, config):
    res = singular_limit_solution(
        config, allow_outside=opts.get("allow_outside", "") == "true")
    table = ResultTable(["tau", "w_l2_sq"], [])
    for tau, v in zip(res.tau, res.w_l2_sq):
        table.add(tau, v)
    table.metadata["fit.slope"] = _fmt(res.fit.slope)
    checks = [Check(
        "sl_solution.slope", res.meets_prediction,
        f"slope={res.fit.slope:.4f} (>= {res.predicted_exponent - 0.1:.1f}, "
        "upper-bound estimate: larger is fine)")]
    return table, checks


def _handle_oracle_check(opts, config):
    count = _get_int(opts, "modes.count", 50)
    seed = _get_int(opts, "seed", 20240808, least=0)
    from .experiments import oracle_mode_comparison
    res = oracle_mode_comparison(count=count, seed=seed)
    table = ResultTable(["kind", "gamma", "tau", "r", "t", "rel_u", "rel_ut"],
                        [list(row) for row in res.rows])
    checks = [Check("oracle.agreement", res.worst <= 1e-6,
                    f"max relative gap = {res.worst:.3e} (<= 1e-6)")]
    return table, checks


_HANDLERS = {
    "roots": _handle_roots,
    "kernels": _handle_kernels,
    "decay": _handle_decay,
    "profile": _handle_profile,
    "optimality": _handle_optimality,
    "envelope": _handle_envelope,
    "singular-limit-energy": _handle_sl_energy,
    "singular-limit-solution": _handle_sl_solution,
    "oracle-check": _handle_oracle_check,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="mode-space experiments for memory-damped waves")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        sections = parse_config_file(args.config)
        opts = merged_options(sections, args.command)
        config = build_config(opts, args.command)
        table, checks = _HANDLERS[args.command](opts, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ViscowaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table.metadata.update(_metadata(opts, args.command))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            table.write(fh)
    else:
        table.write(sys.stdout)
    failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {check.detail} {status}")
        failed = failed or not check.passed
    return 1 if failed else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Config-driven command line: parse, dispatch, serialise, summarise.

Usage::

    viscowave <command> --config FILE [--out FILE.csv]

with commands roots | kernels | decay | profile | optimality | envelope |
singular-limit-energy | singular-limit-solution | oracle-check.

Configs are flat ``key = value`` text files; an optional ``[command]``
section overrides top-level keys for that command only.  ``COMMAND_KEYS``
lists the keys each command reads, and a command sees only those.  A
top-level key that no command reads, a section key that its command does
not read, or a section that names no command is a configuration error.
Each handler returns its result as named columns (arrays of one dtype
each), and one writer streams them as CSV (full 17-digit precision, LF
endings) preceded by ``# key=value`` metadata lines echoing the
configuration; one PASS/FAIL line per built-in assertion goes to stdout.
Exit code: 0 all pass, 1 any fail, 2 configuration or usage error.
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
from .experiments import (DECAY_FIT_WINDOW, PROFILE_ERROR_FIT_WINDOW,
                          ExperimentConfig, decay_experiment, envelope_check,
                          kernel_tables, optimality_check,
                          profile_error_experiment, singular_limit_energy,
                          singular_limit_solution)
from .kernels import vdw_kernel_basis
from .params import ModelParams
from .quadrature import DataSpectrum
from .spectrum import (DEFAULT_EPS_CUT, DEFAULT_N_CUT, cubic_char_roots_batch,
                       quartic_char_roots_batch, RESIDUAL_RTOL)

_DECAY = "gamma n s data.u0 data.u1 t.min t.max t.points fit.min fit.max r.eps r.cut"
_LIMIT = ("gamma n data.u0 data.u1 data.v2 tau.list tau.min tau.max tau.points "
          "probe.time")

#: the config keys each command reads, in the order of the command list
COMMAND_KEYS = {command: frozenset(keys.split()) for command, keys in (
    ("roots", "gamma tau equation sweep.rmin sweep.rmax sweep.points r.eps r.cut"),
    ("kernels", "gamma sweep.rmin sweep.rmax sweep.points"),
    ("decay", _DECAY),
    ("profile", _DECAY + " errfit.min errfit.max"),
    ("optimality", _DECAY),
    ("envelope", "gamma r.eps r.cut"),
    ("singular-limit-energy", _LIMIT + " history.points"),
    ("singular-limit-solution", _LIMIT + " allow_outside"),
    ("oracle-check", "modes.count seed"))}


def _fmt(x) -> str:
    """A fitted slope at full precision, for the metadata lines."""
    return f"{float(x):.17g}"


#: cell format by numpy dtype kind; bools are written as 1/0
_CELL = {"f": "{:.17g}", "b": "{:d}", "i": "{:d}", "u": "{:d}"}


@dataclass
class ResultTable:
    """A CSV result: named columns of equal length, plus metadata.

    Each column is converted once to an array, and its dtype picks the
    format of all its cells: floats ``{:.17g}``, bools 1/0, integers
    ``{:d}``, anything else ``{}``.
    """

    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = {k: np.asarray(v) for k, v in self.columns.items()}
        if len({len(c) for c in self.columns.values()}) > 1:
            raise ValueError("columns differ in length")

    def write(self, fh):
        for key in sorted(self.metadata):
            fh.write(f"# {key}={self.metadata[key]}\n")
        fh.write(",".join(self.columns) + "\n")
        cols = self.columns.values()
        line = ",".join(_CELL.get(c.dtype.kind, "{}") for c in cols) + "\n"
        fh.writelines(line.format(*row) for row in zip(*(c.tolist() for c in cols)))


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
    """The keys ``command`` reads: top-level keys, overridden by the
    ``[command]`` section.

    Raises ConfigError naming every section that is not a command, every
    key of a command's section that this command does not read, and every
    other key that no command reads.  So one file can serve every command,
    each reading only its own keys of the top level.
    """
    read_by_any = frozenset().union(*COMMAND_KEYS.values())
    unread = [f"section [{name}]" for name in sections
              if name and name not in COMMAND_KEYS]
    for name, keys in sections.items():
        where = f" in [{name}]" if name in COMMAND_KEYS else ""
        unread += [f"key {key!r}{where}" for key in sorted(keys)
                   if key not in COMMAND_KEYS.get(name, read_by_any)]
    if unread:
        raise ConfigError("nothing reads " + ", ".join(unread))
    opts = dict(sections.get("", {}))
    opts.update(sections.get(command, {}))
    return {key: value for key, value in opts.items() if key in COMMAND_KEYS[command]}


def parse_spectrum(text: str, key: str):
    text = text.strip()
    if text in ("zero", "0", "none"):
        return DataSpectrum.zero()
    if text == "consistent":
        if key != "data.v2":
            raise ConfigError(f"{key}: 'consistent' is only valid for data.v2")
        return "consistent"
    kind, _, rest = text.partition(":")
    try:
        if kind in ("gaussian", "gaussian_diff", "linear_gaussian"):
            # missing trailing arguments take the factory's defaults
            return getattr(DataSpectrum, kind)(
                *(float(a) for a in rest.split(",") if a.strip()))
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


def _get_positive(opts, key, default):
    """A key that must be above zero: geometric-grid endpoints and the
    probe time."""
    value = _get_float(opts, key, default)
    if value <= 0:
        raise ConfigError(f"{key}: expected a number > 0, got {value!r}")
    return value


def _get_int(opts, key, default, least=1):
    """Integer key of at least ``least`` (counts need 1, the seed 0, the
    history grid 2 intervals)."""
    value = _get_float(opts, key, default)
    if value != int(value) or value < least:
        raise ConfigError(f"{key}: expected an integer >= {least}, got {value!r}")
    return int(value)


def build_config(opts: dict[str, str], command: str) -> ExperimentConfig:
    """The ExperimentConfig of ``command``.  ``opts`` holds only the keys
    the command reads (see :func:`merged_options`), so every other field
    keeps its default; only the singular-limit runs, which read the tau
    keys, get a tau list."""
    t_max, t_points = (1.2e5, 30) if command == "profile" else (1.2e4, 28)
    try:
        kw = dict(
            params=ModelParams(_get_float(opts, "gamma", 2.0),
                               _get_float(opts, "tau", None)),
            n=_get_int(opts, "n", 3), s=_get_float(opts, "s", 0.0),
            u0=parse_spectrum(opts.get("data.u0", "zero"), "data.u0"),
            u1=parse_spectrum(opts.get("data.u1", "gaussian:1.0,1.0"), "data.u1"),
            t_grid=np.geomspace(_get_positive(opts, "t.min", 50.0),
                                _get_positive(opts, "t.max", t_max),
                                _get_int(opts, "t.points", t_points)),
            fit_window=(_get_float(opts, "fit.min", DECAY_FIT_WINDOW[0]),
                        _get_float(opts, "fit.max", DECAY_FIT_WINDOW[1])),
            error_fit_window=(
                _get_float(opts, "errfit.min", PROFILE_ERROR_FIT_WINDOW[0]),
                _get_float(opts, "errfit.max", PROFILE_ERROR_FIT_WINDOW[1])),
            eps_cut=_get_float(opts, "r.eps", DEFAULT_EPS_CUT),
            n_cut=_get_float(opts, "r.cut", DEFAULT_N_CUT),
            probe_time=_get_positive(opts, "probe.time", 10.0),
            history_points=_get_int(opts, "history.points", 200, least=2))
        if not 0 < kw["eps_cut"] < kw["n_cut"]:
            raise ConfigError("r.eps, r.cut: need 0 < r.eps < r.cut, got "
                              f"{kw['eps_cut']!r} and {kw['n_cut']!r}")
        if "tau.list" in COMMAND_KEYS[command]:
            v2 = parse_spectrum(opts["data.v2"], "data.v2") if "data.v2" in opts else None
            if "tau.list" in opts:
                tau_list = np.array([_number("tau.list", x)
                                     for x in opts["tau.list"].split(",")])
                clash = sorted({"tau.min", "tau.max", "tau.points"} & opts.keys())
                if clash:
                    raise ConfigError(f"tau.list: give either the list or "
                                      f"{', '.join(clash)}, not both")
            else:
                tau_list = np.geomspace(_get_positive(opts, "tau.max", 1e-1),
                                        _get_positive(opts, "tau.min", 1e-3),
                                        _get_int(opts, "tau.points", 7))
            kw.update(v2=v2, tau_list=tau_list)
        return ExperimentConfig(**kw)
    except ViscowaveError as exc:
        raise ConfigError(str(exc)) from exc


def _metadata(opts: dict[str, str], command: str) -> dict[str, str]:
    return {**{f"config.{k}": v for k, v in opts.items()}, "command": command,
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _handle_roots(opts, config):
    equation = opts.get("equation", "mgt" if config.params.tau else "vdw")
    sweep = np.geomspace(_get_positive(opts, "sweep.rmin", 1e-3),
                         _get_positive(opts, "sweep.rmax", 2 * config.n_cut),
                         _get_int(opts, "sweep.points", 200))
    if equation == "vdw":
        roots, resid, scales, flags = cubic_char_roots_batch(
            config.params.without_tau(), sweep)
    elif equation == "mgt":
        roots, resid, scales, flags = quartic_char_roots_batch(config.params, sweep)
    else:
        raise ConfigError(f"equation must be vdw or mgt, got {equation!r}")
    columns = {"r": sweep}
    for j in range(roots.shape[1]):
        columns[f"re_l{j + 1}"] = roots[:, j].real
        columns[f"im_l{j + 1}"] = roots[:, j].imag
    columns["residual_max"] = resid.max(axis=1)
    columns["mult_flag"] = flags
    table = ResultTable(columns)
    bound = RESIDUAL_RTOL * scales
    # past the double range a bound is inf, and every residual would pass it
    unbounded = ~np.isfinite(bound).all(axis=1)
    if unbounded.any():
        residual = Check("roots.residual", False,
                         f"{int(unbounded.sum())} rows from r = "
                         f"{sweep[unbounded][0]:.3e} have no finite bound")
    else:
        residual = Check("roots.residual", bool(np.all(resid < bound)),
                         f"max residual/bound = {float((resid / bound).max()):.3e} (< 1)")
    conj_gap = np.abs(np.sort_complex(roots) - np.sort_complex(np.conj(roots))).max()
    checks = [residual,
              Check("roots.conjugate_symmetry", bool(conj_gap <= 1e-12),
                    f"max conjugation gap = {conj_gap:.3e} (<= 1e-12)")]
    zone = (sweep >= config.eps_cut) & (sweep <= config.n_cut)
    if zone.any():
        worst = float(roots.real[zone].max())
        checks.append(Check("roots.bounded_zone_stability", worst < 0,
                            f"max Re over bounded zone = {worst:.6e} (< 0)"))
    return table, checks


def _handle_kernels(opts, config):
    r_vals = np.geomspace(_get_positive(opts, "sweep.rmin", 0.01),
                          _get_positive(opts, "sweep.rmax", 5.0),
                          _get_int(opts, "sweep.points", 12))
    t_vals = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    params = config.params.without_tau()
    # (T, B) tables, t_vals[0] = 0; flagged radii come from the oracle
    k0, dk0, k1, dk1 = kernel_tables(params, vdw_kernel_basis(params, r_vals), t_vals)
    columns = {"r": np.tile(r_vals, len(t_vals)), "t": np.repeat(t_vals, len(r_vals))}
    for name, k in (("k0", k0), ("k1", k1), ("dk0", dk0), ("dk1", dk1)):
        columns[f"{name}_re"] = k.real.ravel()
        columns[f"{name}_im"] = k.imag.ravel()
    table = ResultTable(columns)
    worst = max(float(np.abs(k0[0] - 1).max()), float(np.abs(k1[0]).max()),
                float(np.abs(dk0[0]).max()), float(np.abs(dk1[0] - 1).max()))
    checks = [Check("kernels.interpolation_at_0", worst <= 1e-12,
                    f"max |identity defect| = {worst:.3e} (<= 1e-12)")]
    return table, checks


def _handle_decay(opts, config):
    res = decay_experiment(config)
    table = ResultTable({"t": res.t, "norm_u": res.u_norms, "norm_ut": res.ut_norms},
                        {"fit.u.slope": _fmt(res.fit_u.slope),
                         "fit.ut.slope": _fmt(res.fit_ut.slope)})
    if res.predicted_u.log_half:
        u_check = Check("decay.u_log_ratio", res.log_ratio_spread < 20.0,
                        f"norm/(ln(e+t))^0.5 spread = {res.log_ratio_spread:.3f} (< 20)")
    else:
        u_check = _slope_check("decay.u_slope", res.fit_u.slope, res.predicted_u, 0.05)
    return table, [u_check, _slope_check("decay.ut_slope", res.fit_ut.slope,
                                         res.predicted_ut, 0.07)]


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
    table = ResultTable({"t": res.t, "norm_solution": res.solution_norms,
                         "norm_error": res.error_norms, "ratio": res.ratios},
                        {"fit.solution.slope": _fmt(res.fit_solution.slope),
                         "fit.error.slope": _fmt(res.fit_error.slope)})
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
    table = ResultTable({"t": res.t, "norm_u": res.norms, "rate_h": res.rate_values,
                         "ratio": res.norms / res.rate_values})
    checks = [Check("optimality.two_sided", res.spread < 20.0,
                    f"ratio in [{res.ratio_min:.4f}, {res.ratio_max:.4f}], "
                    f"spread {res.spread:.3f} (< 20)")]
    return table, checks


def _handle_envelope(opts, config):
    rep = envelope_check(config)
    zones = (rep.small, rep.bounded, rep.large)
    table = ResultTable({name: [getattr(z, name) for z in zones]
                         for name in ("zone", "c_fit", "constant_u", "constant_ut")})
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
    series = res.series

    def stacked(name):
        return np.concatenate([getattr(s, name) for s in series])

    table = ResultTable(
        {"tau": np.repeat([s.tau for s in series], [s.t.size for s in series]),
         "t": stacked("t"), "e_wtt": stacked("e_wtt"),
         "e_grad_wt": stacked("e_grad_wt"), "e_grad_w": stacked("e_grad_w"),
         "e_wt": stacked("e_wt"), "e_memory": stacked("e_memory"),
         "e_total": stacked("total"), "w_l2_sq": stacked("w_l2_sq")},
        {"fit.sup.slope": _fmt(res.fit_sup.slope)})
    predicted = res.predicted_exponent
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
    allow = opts.get("allow_outside", "false")
    if allow not in ("true", "false"):
        raise ConfigError(f"allow_outside: expected true or false, got {allow!r}")
    res = singular_limit_solution(config, allow_outside=allow == "true")
    table = ResultTable({"tau": res.tau, "w_l2_sq": res.w_l2_sq},
                        {"fit.slope": _fmt(res.fit.slope)})
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
    headers = ("kind", "gamma", "tau", "r", "t", "rel_u", "rel_ut")
    table = ResultTable(dict(zip(headers, zip(*res.rows))))
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
    parser.add_argument("command", choices=COMMAND_KEYS)
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
    for check in checks:
        print(f"{check.name}: {check.detail} {'PASS' if check.passed else 'FAIL'}")
    return 0 if all(check.passed for check in checks) else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

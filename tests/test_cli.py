"""Command-line front end: parsing, dispatch, CSV format, exit codes."""

import io
import re
from pathlib import Path

import numpy as np
import pytest

from viscowave import DataSpectrum, cli
from viscowave.cli import (COMMAND_KEYS, Check, ResultTable, _HANDLERS,
                           build_config, merged_options, parse_config_file,
                           parse_spectrum, run_command)
from viscowave.errors import ConfigError


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _csv_rows(path):
    """The numeric rows of a CSV result, past its metadata and header."""
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.loadtxt(body[1:], delimiter=",", ndmin=2)


class TestConfigParsing:
    def test_sections_and_comments(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", """
# top-level
gamma = 2.0
[decay]
n = 2
""")
        sections = parse_config_file(path)
        assert sections[""]["gamma"] == "2.0"
        assert sections["decay"]["n"] == "2"

    def test_malformed_line_reports_position(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", "gamma = 2.0\nnonsense line\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "nope.cfg"))

    def test_spectrum_grammar(self):
        assert parse_spectrum("gaussian:2.0,0.5", "data.u1").params == (2.0, 0.5)
        assert parse_spectrum("zero", "data.u0").is_zero
        assert parse_spectrum("consistent", "data.v2") == "consistent"
        tab = parse_spectrum("tabulated:0:1;1:0.5;2:0", "data.u1")
        assert tab(0.5) == pytest.approx(0.75)
        with pytest.raises(ConfigError):
            parse_spectrum("consistent", "data.u1")
        with pytest.raises(ConfigError):
            parse_spectrum("mystery:1", "data.u1")
        with pytest.raises(ConfigError):
            parse_spectrum("gaussian:a,b", "data.u1")
        with pytest.raises(ConfigError):
            parse_spectrum("gaussian:1,1,1", "data.u1")
        # missing arguments take the factory's own defaults
        for kind in ("gaussian", "gaussian_diff", "linear_gaussian"):
            assert parse_spectrum(kind, "data.u1") == getattr(DataSpectrum, kind)()
        assert parse_spectrum("gaussian_diff:3", "data.u1").params == (3.0, 1.0, 2.0)


def _reference_cell(x) -> str:
    """The per-cell formatting rules, one type test per value."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


class TestResultTable:
    def test_full_precision_and_line_endings(self, tmp_path):
        table = ResultTable({"a": [1 / 3], "b": [True]}, metadata={"k": "v"})
        out = tmp_path / "t.csv"
        with open(out, "w", newline="\n") as fh:
            table.write(fh)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"0.33333333333333331" in raw
        assert raw.startswith(b"# k=v\na,b\n")

    def test_column_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            ResultTable({"a": [1.0, 2.0], "b": [1.0]})

    def test_mixed_dtypes_match_per_cell_rules(self):
        rows = [("vdw", True, np.int64(7), 1 / 3, float("nan")),
                ("mgt", False, np.int64(-2), -0.0, 1e-300),
                ("x", np.bool_(True), np.int64(0), np.float64(2.5), -1e300)]
        headers = ("kind", "flag", "count", "a", "b")
        fh = io.StringIO()
        ResultTable(dict(zip(headers, zip(*rows)))).write(fh)
        expected = ["kind,flag,count,a,b"] + [
            ",".join(_reference_cell(x) for x in row) for row in rows]
        assert fh.getvalue() == "\n".join(expected) + "\n"
        assert "nan" in expected[1] and "-0" in expected[2]


class TestRunCommand:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_command(["fly", "--config", "x"]) == 2

    def test_missing_config_file(self, tmp_path):
        rc = run_command(["decay", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_roots_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "r.cfg",
                        "gamma = 2.0\nsweep.points = 60\nsweep.rmax = 15\n")
        out = tmp_path / "roots.csv"
        rc = run_command(["roots", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",")[:3] == ["r", "re_l1", "im_l1"]
        printed = capsys.readouterr().out
        assert "roots.residual" in printed and "PASS" in printed

    def test_roots_mgt_variant(self, tmp_path):
        cfg = write_cfg(tmp_path, "rm.cfg",
                        "gamma = 2.0\ntau = 0.1\nsweep.points = 40\n")
        out = tmp_path / "roots_mgt.csv"
        assert run_command(["roots", "--config", cfg, "--out", str(out)]) == 0
        header = [ln for ln in out.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert "re_l4" in header

    # the fast root is about -r^2, so the cubic's scale |root|^3 passes the
    # double range from r ~ 2.4e51 (28 of the 200 sweep radii) and the
    # polish warns of the overflow; rows with no finite bound are not checked
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_roots_past_double_range_fail(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "big.cfg", "gamma = 2.0\nsweep.rmax = 1e60\n")
        out = tmp_path / "big.csv"
        assert run_command(["roots", "--config", cfg, "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert ("roots.residual: 28 rows from r = 2.833e+51 have no finite "
                "bound FAIL") in printed
        assert _csv_rows(out).shape[0] == 200

    def test_kernels_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.cfg", "gamma = 2.0\n")
        rc = run_command(["kernels", "--config", cfg,
                          "--out", str(tmp_path / "k.csv")])
        assert rc == 0
        assert "kernels.interpolation_at_0" in capsys.readouterr().out

    def test_flagged_radius_takes_the_oracle(self, tmp_path, capsys):
        # at gamma = 2 the cubic is (lambda + 1)^3 at r = 1: that radius is
        # flagged, so its kernels come from the oracle, and must match the
        # triple-root closed forms
        cfg = write_cfg(tmp_path, "kf.cfg", "gamma = 2.0\nsweep.rmin = 0.01\n"
                        "sweep.rmax = 100\nsweep.points = 5\n")
        out = tmp_path / "kf.csv"
        assert run_command(["kernels", "--config", cfg, "--out", str(out)]) == 0
        assert "kernels.interpolation_at_0" in capsys.readouterr().out
        rows = _csv_rows(out)
        assert rows.shape == (5 * 6, 10)
        np.testing.assert_allclose(np.unique(rows[:, 0]), np.geomspace(0.01, 100, 5))
        at_one = rows[rows[:, 0] == 1.0]
        t, e = at_one[:, 1], np.exp(-at_one[:, 1])
        closed = {2: (1 + t) * e, 4: (t + t * t / 2) * e,        # K0, K1
                  6: -t * e, 8: (1 - t * t / 2) * e}             # dK0, dK1
        assert len(t) == 6
        for col, value in closed.items():
            np.testing.assert_allclose(at_one[:, col], value, rtol=0, atol=1e-6)
            np.testing.assert_allclose(at_one[:, col + 1], 0.0, rtol=0, atol=1e-6)

    def test_single_flagged_radius_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, "k1.cfg", "gamma = 2.0\nsweep.rmin = 1\n"
                        "sweep.rmax = 1\nsweep.points = 1\n")
        out = tmp_path / "k1.csv"
        assert run_command(["kernels", "--config", cfg, "--out", str(out)]) == 0
        assert _csv_rows(out).shape == (6, 10)

    def test_failing_check_maps_to_exit_one(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "f.cfg", "gamma = 2.0\n")

        def broken(opts, config):
            return ResultTable({"x": [1.0]}), [Check("fake", False, "nope")]

        monkeypatch.setitem(_HANDLERS, "kernels", broken)
        rc = run_command(["kernels", "--config", cfg,
                          "--out", str(tmp_path / "f.csv")])
        assert rc == 1

    def test_oracle_check_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.cfg", "gamma = 2.0\nmodes.count = 12\n")
        rc = run_command(["oracle-check", "--config", cfg,
                          "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert "oracle.agreement" in capsys.readouterr().out

    def test_metadata_echoes_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "m.cfg",
                        "gamma = 2.0\nsweep.points = 30\n")
        out = tmp_path / "m.csv"
        run_command(["roots", "--config", cfg, "--out", str(out)])
        text = out.read_text()
        assert "# config.gamma=2.0" in text
        assert "# config.sweep.points=30" in text
        assert "# version=" in text
        assert "# timestamp=" in text

    def test_gamma_validation_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "g.cfg", "gamma = 0.5\n")
        assert run_command(["roots", "--config", cfg]) == 2


_BASE_CFG = "gamma = 2.0\nn = 3\ndata.v2 = consistent\ntau.points = 5\n"


class TestUnknownOptions:
    def test_unknown_keys_and_sections_are_config_errors(self, tmp_path, capsys):
        # a misspelt or retired key must not run silently on its default
        cfg = write_cfg(tmp_path, "typo.cfg", "gamma = 2.0\nt.point = 10\n"
                        "solver = kernel\n"
                        "[histroy]\npoints = 5\n[decay]\nhistroy.points = 5\n")
        rc = run_command(["decay", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error:")
        for name in ("'t.point'", "'solver'", "[histroy]", "'histroy.points'",
                     "'points'"):
            assert name in captured.err
        assert captured.out == ""

    def test_keys_cover_every_key_read(self):
        # a key read but in no command's set would fail every config setting
        # it; a key in a set but read nowhere would run silently
        src = Path(cli.__file__).read_text(encoding="utf-8")
        read = set(re.findall(r'opts(?:\.get\(|, |\[)"([\w.]+)"', src))
        read |= set(re.findall(r'"([\w.]+)" in opts', src))
        assert read == set().union(*COMMAND_KEYS.values())

    def test_readme_names_every_key(self):
        # the README key table lists each command's keys as `prefix.a|b|c`
        # spans, the pipes escaped; expand that shorthand row by row
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| Command | Keys read |") + 2
        listed = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            commands, keys = re.split(r"(?<!\\)\|", line)[1:3]
            named = set()
            for span in re.findall(r"`([^`]+)`", keys):
                first, *rest = span.split("\\|")
                prefix = first.rpartition(".")[0]
                named.add(first)
                named.update(f"{prefix}.{x}" if prefix else x for x in rest)
            for command in re.findall(r"`([^`]+)`", commands):
                listed[command] = named
        assert listed == COMMAND_KEYS

    def test_unread_keys_top_level_and_in_section(self, tmp_path, capsys):
        # keys that decay does not read: at top level decay skips them (one
        # file serves every command), in [decay] they are an error
        unread = {"tau.list": "0.1,0.01", "data.v2": "consistent",
                  "allow_outside": "true", "probe.time": "3", "history.points": "7", "tau.points": "9",
                  "modes.count": "4", "equation": "mgt"}
        base = "gamma = 2.0\nt.min = 100\nt.max = 1e4\nt.points = 5\n"
        extra = "".join(f"{k} = {v}\n" for k, v in unread.items())
        bodies = []
        for name, text in (("plain", base), ("top", base + extra)):
            out = tmp_path / f"{name}.csv"
            assert run_command(["decay", "--config", write_cfg(tmp_path, name, text),
                                "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            bodies.append([ln for ln in lines if not ln.startswith("#")])
            meta = [ln for ln in lines if ln.startswith("# config.")]
            assert not any(f"# config.{k}=" in ln for k in unread for ln in meta)
        assert bodies[0] == bodies[1]
        capsys.readouterr()
        out = tmp_path / "section.csv"
        cfg = write_cfg(tmp_path, "section", base + "[decay]\n" + extra)
        assert run_command(["decay", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        for key in unread:
            assert f"{key!r} in [decay]" in err
        assert not out.exists()

    def test_each_command_sees_only_its_keys(self):
        sections = {"": {"gamma": "6.0", "seed": "3", "data.v2": "consistent"},
                    "roots": {"sweep.points": "30"},
                    "oracle-check": {"modes.count": "2"}}
        assert merged_options(sections, "roots") == {"gamma": "6.0",
                                                     "sweep.points": "30"}
        assert merged_options(sections, "oracle-check") == {"seed": "3",
                                                            "modes.count": "2"}
        assert merged_options(sections, "kernels") == {"gamma": "6.0"}

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_grid_only_where_a_command_sums_on_one(self, command):
        # only the singular-limit runs get a tau list; their radii are
        # derived in the run, so no config carries a frequency grid
        config = build_config({}, command)
        assert (config.tau_list is not None) == command.startswith("singular-limit")

    @pytest.mark.parametrize("command", ["singular-limit-energy",
                                         "singular-limit-solution"])
    def test_retired_grid_keys_are_unread(self, tmp_path, capsys, command):
        # r.max, r.panels and r.order set the fixed grid the singular-limit
        # sums no longer use: a config that sets one exits 2 and names it
        for key in ("r.max", "r.panels", "r.order"):
            for text, where in ((f"{key} = 48\n", ""),
                                (f"[{command}]\n{key} = 48\n", f" in [{command}]")):
                cfg = write_cfg(tmp_path, "grid.cfg", "gamma = 6.0\n" + text)
                assert run_command([command, "--config", cfg]) == 2
                assert f"nothing reads key {key!r}{where}" in capsys.readouterr().err


class TestBadNumbers:
    """Malformed numbers exit 2 with a config error naming the key, never a
    traceback or a CSV of NaN cells."""

    @staticmethod
    def _run(tmp_path, command, text):
        cfg = write_cfg(tmp_path, "bad.cfg", text)
        return run_command([command, "--config", cfg,
                            "--out", str(tmp_path / "bad.csv")])

    @pytest.mark.parametrize("command, line", [
        ("decay", "t.points = nan"),
        ("decay", "n = inf"),
        ("decay", "gamma = inf"),
        # 2 gamma^2 overflows: the run took 20 s and printed a wrong slope
        ("decay", "gamma = 1e200"),
        ("singular-limit-energy", "tau.points = 1e400"),
        ("singular-limit-energy", "probe.time = nan"),
        # a probe time <= 0 wrote rows at t <= 0 (overflowing ones before it)
        ("singular-limit-energy", "probe.time = 0"),
        ("singular-limit-energy", "probe.time = -5"),
        # the solution run needs gamma > 5; the later key wins
        ("singular-limit-solution", "probe.time = 0\ngamma = 6.0"),
        ("singular-limit-solution", "probe.time = -5\ngamma = 6.0"),
        ("singular-limit-energy", "tau.list = 0.1,abc,0.01"),
        ("singular-limit-energy", "tau.list = 0.1,nan,0.01,0.001,0.05"),
        # counts below 1 and a negative seed
        ("roots", "sweep.points = 0"),
        # a retired grid key is unread, whatever its value
        ("singular-limit-energy", "r.order = 0"),
        ("singular-limit-energy", "history.points = -3"),
        # one history interval made the memory check compare a number with
        # itself, so a far too coarse trapezoid passed
        ("singular-limit-energy", "history.points = 1"),
        ("oracle-check", "seed = -1"),
        ("oracle-check", "modes.count = 0"),
        # geometric-grid endpoints: 0 made np.geomspace raise, a negative
        # value a NaN grid
        ("decay", "t.min = 0"),
        ("decay", "t.max = -5"),
        ("singular-limit-energy", "tau.max = -0.1"),
        ("singular-limit-solution", "tau.min = 0"),
        ("roots", "sweep.rmin = 0"),
        ("kernels", "sweep.rmax = -1"),
        # a NaN spectrum parameter
        ("decay", "data.u1 = gaussian:nan,1.0"),
        # zone cuts out of order, and a retired grid key
        ("decay", "r.eps = 20"),
        ("envelope", "r.cut = 0.05"),
        ("singular-limit-energy", "r.max = -1"),
        # only true or false; "True" used to mean false
        ("singular-limit-solution", "allow_outside = True\ngamma = 6.0"),
        ("singular-limit-solution", "allow_outside = 1\ngamma = 6.0"),
    ])
    def test_config_error_names_key(self, tmp_path, capsys, command, line):
        rc = self._run(tmp_path, command, _BASE_CFG + line + "\n")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")
        assert line.split(" = ")[0] in err
        assert not (tmp_path / "bad.csv").exists()

    def test_seed_zero_is_accepted(self, tmp_path):
        assert self._run(tmp_path, "oracle-check",
                         "modes.count = 2\nseed = 0\n") == 0


def strip_timestamp(raw: bytes) -> bytes:
    return b"\n".join(ln for ln in raw.split(b"\n")
                      if not ln.startswith(b"# timestamp="))


#: one small config per command family: times of a decay run, times of
#: both profile norms, a tau sweep sharing the limit tables
DETERMINISM_CONFIGS = {
    "decay": "gamma = 2.0\nn = 3\nt.points = 10\nt.min = 60\nt.max = 1.5e4\n"
             "data.u1 = gaussian:1.0,1.0\n",
    "profile": "gamma = 2.0\nn = 3\ndata.u1 = gaussian:1.0,1.0\nt.points = 14\n",
    "singular-limit-energy": "gamma = 2.0\nn = 3\ndata.u0 = gaussian:1.0,1.0\n"
                             "data.u1 = gaussian:1.0,1.0\ndata.v2 = consistent\n"
                             "tau.points = 5\n",
}


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(DETERMINISM_CONFIGS))
    def test_byte_identical_across_reruns(self, tmp_path, command):
        cfg = write_cfg(tmp_path, "d.cfg", DETERMINISM_CONFIGS[command])
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"d{run}.csv"
            rc = run_command([command, "--config", cfg, "--out", str(out)])
            assert rc == 0
            outputs.append(strip_timestamp(out.read_bytes()))
        assert outputs[0] == outputs[1]


class TestRemainingHandlers:
    def test_optimality_envelope_and_solution_limit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "multi.cfg", """
gamma = 2.0
n = 3
data.u1 = gaussian:1.0,1.0
t.points = 12

[singular-limit-solution]
gamma = 6.0
data.u0 = gaussian:1.0,1.0
data.v2 = consistent
""")
        for command, marker in (("optimality", "optimality.two_sided"),
                                ("envelope", "envelope.finite"),
                                ("singular-limit-solution", "sl_solution.slope")):
            out = tmp_path / f"{command}.csv"
            rc = run_command([command, "--config", cfg, "--out", str(out)])
            printed = capsys.readouterr().out
            assert rc == 0, printed
            assert marker in printed
            assert out.exists()

    def test_solution_limit_outside_hypotheses_is_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "low.cfg",
                        "gamma = 2.0\nn = 3\ndata.v2 = consistent\n")
        rc = run_command(["singular-limit-solution", "--config", cfg])
        assert rc == 2
        # the message names the config form of the override
        assert "allow_outside = true" in capsys.readouterr().err
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("tau.points = 5\nallow_outside = true\n")
        rc = run_command(["singular-limit-solution", "--config", cfg,
                          "--out", str(tmp_path / "low.csv")])
        assert rc == 0

    def test_optimality_log_rate_domain_is_error(self, tmp_path, capsys):
        # at n = 2 the rate sqrt(log t) is undefined for t <= 1
        cfg = write_cfg(tmp_path, "n2.cfg", "gamma = 2.0\nn = 2\n"
                        "data.u1 = gaussian:1.0,1.0\nt.min = 0.5\n")
        rc = run_command(["optimality", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "t > 1" in captured.err
        assert "nan" not in captured.out.lower()

    def test_singular_limit_energy_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "sle.cfg", """
gamma = 2.0
n = 3
data.u0 = gaussian:1.0,1.0
data.u1 = gaussian:1.0,1.0
data.v2 = consistent
tau.points = 5
""")
        out = tmp_path / "sle.csv"
        rc = run_command(["singular-limit-energy", "--config", cfg,
                          "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0, printed
        assert "sl_energy.slope" in printed
        assert "sl_energy.initial_value" in printed
        header = [ln for ln in out.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header.split(",")[:4] == ["tau", "t", "e_wtt", "e_grad_wt"]

    @pytest.mark.parametrize("command",
                             ["singular-limit-energy", "singular-limit-solution"])
    def test_short_tau_list_is_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, "short.cfg", "gamma = 6.0\nn = 3\n"
                        "data.v2 = consistent\ntau.points = 3\n")
        rc = run_command([command, "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "tau_list" in err

    @pytest.mark.parametrize("command",
                             ["singular-limit-energy", "singular-limit-solution"])
    def test_tau_list_with_grid_keys_is_error(self, tmp_path, capsys, command):
        # the list used to win silently, and the metadata echoed the
        # grid keys as if they had been used
        cfg = write_cfg(tmp_path, "both.cfg", "gamma = 6.0\nn = 3\n"
                        "data.v2 = consistent\ntau.list = 0.1,0.03,0.01,0.003,0.001\n"
                        "tau.points = 9\ntau.min = 0.5\n")
        out = tmp_path / "both.csv"
        rc = run_command([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: tau.list")
        assert "tau.min" in err and "tau.points" in err and "tau.max" not in err
        assert not out.exists()

    def test_profile_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "prof.cfg",
                        "gamma = 2.0\nn = 3\ndata.u1 = gaussian:1.0,1.0\n"
                        "t.points = 14\n")
        out = tmp_path / "prof.csv"
        rc = run_command(["profile", "--config", cfg, "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0, printed
        assert "profile.rate_gain" in printed

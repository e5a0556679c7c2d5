"""Command-line front end: parsing, dispatch, CSV format, exit codes."""

import pytest

from viscowave.cli import (Check, ResultTable, _HANDLERS, parse_config_file,
                           parse_spectrum, run_command)
from viscowave.errors import ConfigError


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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


class TestResultTable:
    def test_full_precision_and_line_endings(self, tmp_path):
        table = ResultTable(["a", "b"], [], metadata={"k": "v"})
        table.add(1 / 3, True)
        out = tmp_path / "t.csv"
        with open(out, "w", newline="\n") as fh:
            table.write(fh)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"0.33333333333333331" in raw
        assert raw.startswith(b"# k=v\na,b\n")

    def test_row_width_checked(self):
        table = ResultTable(["a"], [])
        with pytest.raises(ValueError):
            table.add(1.0, 2.0)


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

    def test_kernels_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.cfg", "gamma = 2.0\n")
        rc = run_command(["kernels", "--config", cfg,
                          "--out", str(tmp_path / "k.csv")])
        assert rc == 0
        assert "kernels.interpolation_at_0" in capsys.readouterr().out

    def test_failing_check_maps_to_exit_one(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "f.cfg", "gamma = 2.0\n")

        def broken(opts, config):
            return ResultTable(["x"], [[1.0]]), [Check("fake", False, "nope")]

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

    def test_non_integer_thread_count_is_config_error(self, tmp_path,
                                                      monkeypatch, capsys):
        cfg = write_cfg(tmp_path, "w.cfg", "gamma = 2.0\nn = 3\n")
        monkeypatch.setenv("VISCOWAVE_THREADS", "two")
        assert run_command(["decay", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "VISCOWAVE_THREADS" in err


_BASE_CFG = "gamma = 2.0\nn = 3\ndata.v2 = consistent\ntau.points = 5\n"


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
        ("singular-limit-energy", "tau.points = 1e400"),
        ("singular-limit-energy", "probe.time = nan"),
        ("singular-limit-energy", "tau.list = 0.1,abc,0.01"),
        ("singular-limit-energy", "tau.list = 0.1,nan,0.01,0.001,0.05"),
        # counts below 1 and a negative seed
        ("roots", "sweep.points = 0"),
        ("decay", "r.order = 0"),
        ("singular-limit-energy", "history.points = -3"),
        ("oracle-check", "seed = -1"),
        ("oracle-check", "modes.count = 0"),
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


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "d.cfg", """
gamma = 2.0
n = 3
t.points = 10
t.min = 60
t.max = 1.5e4
data.u1 = gaussian:1.0,1.0
""")
        outputs = []
        for workers in ("1", "8"):
            monkeypatch.setenv("VISCOWAVE_THREADS", workers)
            out = tmp_path / f"d{workers}.csv"
            rc = run_command(["decay", "--config", cfg, "--out", str(out)])
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

    def test_solution_limit_outside_hypotheses_is_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "low.cfg",
                        "gamma = 2.0\nn = 3\ndata.v2 = consistent\n")
        rc = run_command(["singular-limit-solution", "--config", cfg])
        assert rc == 2

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

    def test_profile_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "prof.cfg",
                        "gamma = 2.0\nn = 3\ndata.u1 = gaussian:1.0,1.0\n"
                        "t.points = 14\n")
        out = tmp_path / "prof.csv"
        rc = run_command(["profile", "--config", cfg, "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0, printed
        assert "profile.rate_gain" in printed

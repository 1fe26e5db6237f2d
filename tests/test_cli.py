import numpy as np
import pytest

from orliczfrac import ConfigError, GridFunction, InvalidParameterError
from orliczfrac import cli, fractional, solver
from orliczfrac.cli import (
    ExperimentConfig,
    main,
    parse_config,
    parse_growth,
    run,
)


class TestGrowthGrammar:
    def test_power(self):
        G = parse_growth("power(2.0)")
        assert G.kind == "power"
        assert G(3.0) == pytest.approx(9.0)

    def test_nested_max(self):
        G = parse_growth("max(power(2.0), power(3.0))")
        assert G.kind == "pointwise_max"
        assert G(0.5) == pytest.approx(0.25)

    def test_weighted_sum(self):
        G = parse_growth("sum(0.5*power(2), 2*power(3))")
        assert G(1.0) == pytest.approx(2.5)

    def test_composition(self):
        G = parse_growth("compose(power(2), power(1.5))")
        assert G(2.0) == pytest.approx(8.0)

    def test_each_spec_is_built_once(self):
        spec = "max(power(2), power(3))"
        assert parse_growth(spec) is parse_growth(spec)

    def test_rejects_unknown_head(self):
        with pytest.raises(InvalidParameterError):
            parse_growth("warp(2)")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_growth("power(2) power(3)")

    @pytest.mark.parametrize("spec", [
        "power(2)", "power_log(3)", "power_abslog(2.5)",
        "max(power(2), power(3))", "sum(0.5*power(2), 2*power_abslog(3))",
        "compose(power(2), power_log(3))",
        "sum(0.5*max(power(2), power(3)), 2*compose(power(2), power_log(3)))",
        "max(compose(power(1.5), power(+2)), sum(1e-3*power_log(2.25)))",
    ])
    def test_label_round_trips(self, spec):
        # G.label is written in the grammar, so it parses back to itself
        label = parse_growth(spec).label
        assert parse_growth(label).label == label

    @pytest.mark.parametrize("spec", [
        "power(x)", "power(p=2)", "os.system(1)", '__import__("os")',
        "power(2)(3)", "1 + power(2)", "sum(power(2))", "power(2",
        "power(1e999)", "max(power(2), *[power(3)])",
    ])
    def test_rejects_what_the_grammar_does_not_hold(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_growth(spec)
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = bbm\nG = {spec}\n")
        assert [line for line, _ in err.value.errors] == [2]

    @pytest.mark.parametrize("spec", ["constant(inf)", "constant(x)",
                                      "constant(1, 2)", "cos", "sin(1)"])
    def test_rejects_bad_rhs(self, spec):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(command="solve", rhs_spec=spec).rhs()
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = solve\nrhs = {spec}\n")
        assert [line for line, _ in err.value.errors] == [2]

    @pytest.mark.parametrize("spec, value", [
        ("zero", 0.0), ("constant(-2.5)", -2.5), ("constant(3)", 3.0)])
    def test_rhs_constants(self, spec, value):
        rhs = ExperimentConfig(command="solve", rhs_spec=spec).rhs()
        assert type(rhs) is float and rhs == value


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(
            "command = bbm\nG = power(2)\nnodes = 1025\n"
            "s_list = 0.9,0.95,0.99\ndomain = -1,1\n")
        assert cfg.command == "bbm"
        assert cfg.nodes == 1025
        assert cfg.s_list == (0.9, 0.95, 0.99)
        assert cfg.domain == (-1.0, 1.0)
        assert cfg.out == "bbm"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# experiment\n\ncommand = tilde  # inline\n")
        assert cfg.command == "tilde"

    def test_unknown_command_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = warp\n")
        assert err.value.errors[0][0] == 1

    def test_bad_growth_surfaces_constructor_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = bbm\nG = power(0.5)\n")
        lines = [ln for ln, _ in err.value.errors]
        assert 2 in lines

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse_config("G = power(2)\n")

    def test_missing_command_beside_an_error_that_names_one(self):
        # "command" in another line's message does not stand for the key
        with pytest.raises(ConfigError) as err:
            parse_config("G = command(2)\n")
        assert (0, "missing required key 'command'") in err.value.errors
        assert any("unknown growth function 'command'" in msg
                   for _, msg in err.value.errors)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = bbm\nwibble = 3\n")
        assert any("wibble" in msg for _, msg in err.value.errors)

    @pytest.mark.parametrize("command,key", [
        ("tilde", "a_list"), ("bbm", "s_list"), ("poincare", "s_list"),
        ("gamma", "s_list")])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_rejected(self, command, key, value):
        # an empty list is an error on its line, not the default list or
        # a header-only file
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = {command}\n{key} ={value}\n")
        assert err.value.errors == [
            (2, "need at least one comma-separated value")]

    @pytest.mark.parametrize("text,key,first", [
        ("command = bbm\nnodes = 9\nnodes = 17\n", "nodes", 2),
        # keys are case-insensitive
        ("command = bbm\nG = power(2)\ng = power(3)\n", "g", 2),
        ("command = bbm\ns_list = 0.5\n# twice\n  S_LIST = 0.6\n",
         "s_list", 2),
        ("command = bbm\ncommand = solve\n", "command", 1)],
        ids=["nodes", "G and g", "S_LIST after a comment", "command"])
    def test_repeated_key_rejected(self, text, key, first):
        # a repeat is an error on its own line, not a silent override
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        last = len(text.splitlines())
        assert err.value.errors == [
            (last, f"key {key!r} given twice (first on line {first})")]

    def test_line_without_equals_sign(self):
        # the line is reported, and the key it failed to give is missing
        with pytest.raises(ConfigError) as err:
            parse_config("command\n")
        assert err.value.errors == [
            (1, "expected key = value, got 'command'"),
            (0, "missing required key 'command'")]

    @pytest.mark.parametrize("value,message", [
        ("1", "need exactly 2 comma-separated values"),
        ("1, -1", "domain must satisfy left < right")])
    def test_bad_domain_rejected(self, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = bbm\ndomain = {value}\n")
        assert err.value.errors == [(2, message)]


    @pytest.mark.parametrize("command", ["poincare", "check"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_rejected(self, command, count):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = {command}\nG = power(2)\nnodes = 33\n"
                         f"count = {count}\n")
        assert err.value.errors == [(4, f"count must be >= 1, got {count}")]

    # GridFunction needs 2 nodes, and numpy's generator a seed >= 0
    @pytest.mark.parametrize("command,key,value,low", [
        ("bbm", "nodes", "-5", 2), ("check", "nodes", "1", 2),
        ("poincare", "seed", "-1", 0), ("check", "seed", "-1", 0),
    ])
    def test_nodes_and_seed_below_minimum_rejected(self, command, key, value,
                                                   low):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command = {command}\nG = power(2)\n"
                         f"{key} = {value}\n")
        assert err.value.errors == [
            (3, f"{key} must be >= {low}, got {value}")]


class TestRunners:
    def test_tilde_csv(self, tmp_path):
        cfg = parse_config(
            "command = tilde\nG = power(2)\nn = 1\na_list = 0.5,1,2\n")
        (path,) = run(cfg, tmp_path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,tilde_quadrature,tilde_closed_form,rel_diff"
        assert len(lines) == 4
        for ln in lines[1:]:
            rel = float(ln.split(",")[3])
            assert rel <= 1e-6

    def test_config_and_run_build_growth_once(self, tmp_path, monkeypatch):
        built = []
        growth = cli._growth

        def counted(node):
            built.append(node)
            return growth(node)

        monkeypatch.setattr(cli, "_growth", counted)
        parse_growth.cache_clear()
        cfg = parse_config("command = tilde\nG = power(2.71)\nn = 1\n"
                           "a_list = 0.5\n")
        run(cfg, tmp_path)
        assert len(built) == 1

    def test_tilde_without_closed_form_leaves_blank(self, tmp_path):
        cfg = parse_config(
            "command = tilde\nG = power_log(2)\nn = 1\na_list = 1\n")
        (path,) = run(cfg, tmp_path)
        row = path.read_text().strip().splitlines()[1]
        assert row.endswith(",,")

    def test_bbm_final_row(self, tmp_path):
        cfg = parse_config(
            "command = bbm\nG = power(2)\nnodes = 129\n"
            "s_list = 0.8,0.9\n")
        (path,) = run(cfg, tmp_path)
        last = path.read_text().strip().splitlines()[-1]
        assert last.startswith("EXTRAPOLATED,")

    def test_solve_zero_rhs_writes_zero_minimizer(self, tmp_path):
        cfg = parse_config(
            "command = solve\nG = power(2)\ns = 0.5\nnodes = 33\n"
            "domain = 0,1\nrhs = zero\n")
        paths = run(cfg, tmp_path)
        u = GridFunction.from_csv(paths[0].read_text())
        assert not np.any(u.values)
        summary = paths[1].read_text()
        assert "energy=0" in summary
        assert "weak_residual=" in summary

    def test_gamma_csv(self, tmp_path):
        cfg = parse_config(
            "command = gamma\nG = power(2)\nnodes = 65\ndomain = 0,1\n"
            "s_list = 0.6,0.9\nrhs = constant(1)\n")
        (path,) = run(cfg, tmp_path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,lux_gap,energy_gap,midpoint"
        assert lines[-1].startswith("LOCAL,")

    def test_poincare_csv(self, tmp_path):
        cfg = parse_config(
            "command = poincare\nG = power(2)\nnodes = 65\n"
            "s_list = 0.5\ncount = 5\n")
        (path,) = run(cfg, tmp_path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "s,max_ratio,budget,ok"
        assert rows[1].endswith(",1")

    def test_check_reports(self, tmp_path, capsys):
        cfg = parse_config(
            "command = check\nG = power(2)\nnodes = 65\ncount = 8\n")
        (path,) = run(cfg, tmp_path)
        text = path.read_text()
        assert "PASS screening H1" in text
        assert "FAIL" not in text

    @pytest.mark.parametrize("text", [
        "command = gamma\nG = power_log(3)\nnodes = 17\n"
        "s_list = 0.6, 0.9\nrhs = constant(1)\n",
        "command = solve\nG = power(2)\ns = 0.5\nnodes = 129\n"
        "rhs = constant(1)\n"], ids=["gamma", "solve"])
    def test_cached_pair_tables_leave_outputs_unchanged(self, tmp_path,
                                                         text):
        # a cold run builds the pair pass's tables, a warm one only reads
        # them
        tables = fractional._band_tables
        tables.cache_clear()
        cold = run(parse_config(text), tmp_path / "cold")
        before = tables.cache_info()
        warm = run(parse_config(text), tmp_path / "warm")
        after = tables.cache_info()
        assert after.misses == before.misses > 0
        assert after.hits > before.hits
        assert [p.name for p in cold] == [p.name for p in warm]
        assert [p.read_bytes() for p in cold] == \
            [p.read_bytes() for p in warm]

    def test_determinism(self, tmp_path):
        text = ("command = bbm\nG = power(2)\nnodes = 65\n"
                "s_list = 0.7,0.9\n")
        a = run(parse_config(text), tmp_path / "a")
        b = run(parse_config(text), tmp_path / "b")
        assert a[0].read_bytes() == b[0].read_bytes()


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "command = tilde\nG = power(2)\na_list = 1\n")
        assert main(["tilde", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_validation_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "command = warp\n")
        assert main(["bbm", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_solve_without_s_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "command = solve\nnodes = 17\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: solve needs the key 's'\n"
        assert not list(tmp_path.glob("solve*"))

    def test_command_mismatch_exit_one(self, tmp_path, capsys):
        # the error cites the line of the config's command key
        cfg = self._write(tmp_path, "nodes = 33\ncommand = bbm\n")
        assert main(["solve", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: config command 'bbm' does not match CLI command "
            "'solve'\n")

    @pytest.mark.parametrize("line", ["rel_tol = 1e-6", "n_mesh = 33"])
    def test_removed_keys_rejected(self, tmp_path, capsys, line):
        text = f"command = bbm\n{line}\n"
        key = line.split()[0]
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [(2, f"unknown key {key!r}")]
        assert main(["bbm", "--config", self._write(tmp_path, text)]) == 1
        assert f"line 2: unknown key {key!r}" in capsys.readouterr().err

    def test_deeply_nested_spec_is_a_config_error(self, tmp_path, capsys):
        depth = 1200
        spec = "compose(power(2), " * depth + "power(2)" + ")" * depth
        cfg = self._write(tmp_path, f"command = bbm\nG = {spec}\n")
        assert main(["bbm", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_singular_power_solve_converges(self, tmp_path):
        # G''(t) = 0.75 t^(-1/2) is infinite at the symmetric minimizer's
        # equal pairs; the decrement stop still ends it at TOLERANCE
        cfg = self._write(
            tmp_path, "command = solve\nG = power(1.5)\ns = 0.7\nnodes = 33\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "converged=1" in (tmp_path / "solve_summary.txt").read_text()

    def test_unconverged_solve_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        cfg = self._write(
            tmp_path, "command = solve\nG = power(3)\ns = 0.7\nnodes = 33\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "iteration budget" in capsys.readouterr().err
        assert "converged=0" in (tmp_path / "solve_summary.txt").read_text()

    def test_overflowing_power_is_a_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "command = bbm\nG = power(1024)\n")
        assert main(["bbm", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,text", [
        ("bbm", "domain = 0, 1e-300\nnodes = 17\n"),
        ("tilde", "n = 2\na_list = 1e300\n")], ids=["bbm", "tilde"])
    def test_non_finite_result_exit_two(self, tmp_path, capsys, command,
                                        text):
        # the tiny domain gives nan modulars and an inf target, a = 1e300
        # an inf tilde_G: no file is written
        cfg = self._write(tmp_path,
                          f"command = {command}\nG = power(2)\n{text}")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "numeric failure: non-finite result ")
        assert list(out.iterdir()) == []

    def test_numeric_failure_exit_two(self, tmp_path, capsys):
        # the log-weight family without the +1 shift fails the monotonicity
        # screening, so `check` must exit with the numeric-failure status
        cfg = self._write(
            tmp_path,
            "command = check\nG = power_abslog(2)\nnodes = 33\ncount = 4\n")
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err

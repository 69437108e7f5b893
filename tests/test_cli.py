import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarqb import (
    ModelParams,
    charge_trajectory,
    gibbs_numeric,
    partial_trace,
    quantum_discord,
    von_neumann_entropy,
)
from dipolarqb.cli import (
    MAX_POINTS,
    MAX_SAMPLES,
    PARAM_KEYS,
    SCENARIOS,
    AxisSpec,
    RUN_KEYS,
    ConfigError,
    ScenarioConfig,
    build_parser,
    emit_plot_script,
    main,
    parse_axis,
    parse_config,
    run_scenario,
    serialize_config,
    validate_config,
    write_csv,
)
from dipolarqb.cli import _config_from_args
from dipolarqb.oracles import nelder_mead_search

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def read_table(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, body


class TestAxisSpec:
    def test_linear_values(self):
        ax = AxisSpec("delta", 0.0, 2.0, 5)
        assert np.allclose(ax.values(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_log_values(self):
        ax = AxisSpec("temperature", 0.1, 10.0, 3, log=True)
        assert np.allclose(ax.values(), [0.1, 1.0, 10.0])

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            AxisSpec("coupling", 0.0, 1.0, 5)
        with pytest.raises(ConfigError, match="at least 2"):
            AxisSpec("delta", 0.0, 1.0, 1)
        with pytest.raises(ConfigError, match="min < max"):
            AxisSpec("delta", 1.0, 1.0, 5)
        with pytest.raises(ConfigError, match="min > 0"):
            AxisSpec("delta", 0.0, 1.0, 5, log=True)

    @pytest.mark.parametrize("spec", ["field:0:inf:2", "field:-inf:1:2", "field:nan:1:2",
                                      "temperature:0.1:inf:3:log"])
    def test_non_finite_bound_is_exit_1_without_warning(self, spec, tmp_path, capsys):
        bound = "min" if spec.split(":")[1] in ("-inf", "nan") else "max"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["charge", "--sweep", spec, "--out", str(tmp_path / "c.csv")]) == 1
        assert f"config error: sweep {bound} must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_parse_round_trip(self):
        for spec in ("field:0.0:2.0:9", "temperature:0.05:5.0:200:log"):
            ax = parse_axis(spec)
            assert parse_axis(ax.spec_string()) == ax

    def test_numpy_bounds_round_trip(self):
        ax = AxisSpec("field", np.float64(0.1), np.float64(2.5), np.int64(9), log=True)
        assert ax.spec_string() == "field:0.1:2.5:9:log"
        assert parse_axis(ax.spec_string()) == ax

    def test_parse_rejects_malformed(self):
        for bad in ("delta:0:1", "delta:a:1:5", "delta:0:1:5:exp", "delta"):
            with pytest.raises(ConfigError, match="sweep"):
                parse_axis(bad)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("scenario = dephasing\n")
        assert cfg.scenario == "dephasing"
        assert cfg.params == ModelParams()
        assert cfg.resolved_outputs() == SCENARIOS["dephasing"].defaults
        assert cfg.resolved_out() == "dephasing.csv"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nscenario = gibbs\n  # trailing\n")
        assert cfg.scenario == "gibbs"

    def test_serialize_round_trip(self):
        cfg = ScenarioConfig(
            scenario="charge",
            params=ModelParams(delta=1.0, epsilon=0.1, dm=0.0, ksea=0.0,
                               field=0.5, temperature=0.5, omega=2.0, gamma=0.0),
            sweep=AxisSpec("field", 0.0, 2.0, 5),
            outputs=("ergotropy", "coherence"),
            t1=1.5707963267948966,
            samples=11,
            out_path="runs/demo.csv",
            with_discord=True,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_numpy_scalar_run_keys_round_trip(self):
        cfg = ScenarioConfig(
            scenario="charge", t0=np.float32(0.25), t1=np.float64(1.5),
            samples=np.int64(11), with_discord=np.bool_(True),
            sweep=AxisSpec("temperature", np.float64(0.5), np.float64(4.0), 3),
        )
        text = serialize_config(cfg)
        assert "np." not in text
        assert parse_config(text) == cfg

    def test_round_trip_preserves_float_precision(self):
        cfg = ScenarioConfig(scenario="charge", params=ModelParams(delta=1 / 3))
        again = parse_config(serialize_config(cfg))
        assert again.params.delta == cfg.params.delta

    def test_errors(self):
        with pytest.raises(ConfigError, match="must set scenario"):
            parse_config("delta = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("scenario = charge\ncoupling = 2\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scenario = charge\njust words\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("scenario = charge\ndelta = 1\ndelta = 2\n")
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("scenario = charge\nwith_discord = maybe\n")
        with pytest.raises(ConfigError, match="bad value for delta"):
            parse_config("scenario = charge\ndelta = one\n")
        with pytest.raises(ConfigError, match="temperature"):
            parse_config("scenario = charge\ntemperature = -1\n")


class TestValidateConfig:
    def test_diagnostics_reject_sweeps_and_outputs(self):
        for scen in ("spectrum", "gibbs"):
            with pytest.raises(ConfigError, match="does not take sweep"):
                validate_config(ScenarioConfig(scenario=scen, sweep=AxisSpec("delta", 0, 1, 3)))
            with pytest.raises(ConfigError, match="does not take outputs"):
                validate_config(ScenarioConfig(scenario=scen, outputs=("abs_deviation",)))

    def test_grid2d_rules(self):
        ax = AxisSpec("delta", 0.0, 1.0, 3)
        ay = AxisSpec("epsilon", 0.0, 1.0, 3)
        with pytest.raises(ConfigError, match="both sweep and sweep2"):
            validate_config(ScenarioConfig(scenario="grid2d", sweep=ax))
        with pytest.raises(ConfigError, match="different parameters"):
            validate_config(ScenarioConfig(scenario="grid2d", sweep=ax,
                                           second_axis=AxisSpec("delta", 1.0, 2.0, 3)))
        with pytest.raises(ConfigError, match="does not take outputs"):
            validate_config(ScenarioConfig(scenario="grid2d", sweep=ax, second_axis=ay,
                                           outputs=("capacity",)))
        validate_config(ScenarioConfig(scenario="grid2d", sweep=ax, second_axis=ay))

    def test_sweep2_needs_grid2d(self):
        with pytest.raises(ConfigError, match="sweep2"):
            validate_config(ScenarioConfig(scenario="dephasing",
                                           second_axis=AxisSpec("delta", 0, 1, 3)))

    def test_thermal_sweep_axis_must_be_temperature(self):
        with pytest.raises(ConfigError, match="temperature"):
            validate_config(ScenarioConfig(scenario="thermal-sweep",
                                           sweep=AxisSpec("delta", 0, 1, 3)))

    def test_unknown_outputs_listed(self):
        with pytest.raises(ConfigError, match="unknown outputs for charge: purity"):
            validate_config(ScenarioConfig(scenario="charge", outputs=("purity",)))
        with pytest.raises(ConfigError, match="outputs names coherence more than once"):
            validate_config(ScenarioConfig(scenario="charge", outputs=("coherence", "coherence")))
        with pytest.raises(ConfigError, match="outputs names no column"):
            validate_config(ScenarioConfig(scenario="charge", outputs=()))

    def test_samples_floor(self):
        with pytest.raises(ConfigError, match="at least 2"):
            validate_config(ScenarioConfig(scenario="dephasing", samples=1))

    @pytest.mark.parametrize("scenario", ["dephasing", "charge"])
    def test_samples_cap(self, scenario):
        # only the rejection runs: a run at the cap would allocate its stacks
        validate_config(ScenarioConfig(scenario=scenario, t1=1.0, samples=3))
        with pytest.raises(ConfigError, match=f"samples must be .* at most {MAX_SAMPLES}"):
            validate_config(ScenarioConfig(scenario=scenario, samples=MAX_SAMPLES + 1))

    def test_points_cap(self, monkeypatch):
        # only the rejection runs, and before any axis is expanded
        monkeypatch.setattr(AxisSpec, "values", lambda self: pytest.fail("axis expanded"))
        grid = ScenarioConfig(scenario="grid2d", sweep=AxisSpec("delta", 0.0, 1.0, 1000),
                              second_axis=AxisSpec("epsilon", 0.0, 1.0, MAX_POINTS // 1000 + 1))
        for cfg in (grid, ScenarioConfig(scenario="charge",
                                         sweep=AxisSpec("field", 0.0, 1.0, 10**9))):
            with pytest.raises(ConfigError, match=f"points; at most {MAX_POINTS}"):
                validate_config(cfg)

    def test_bad_grid_becomes_config_error(self):
        with pytest.raises(ConfigError):
            validate_config(ScenarioConfig(scenario="dephasing", dt=-0.1))
        with pytest.raises(ConfigError):
            validate_config(ScenarioConfig(scenario="charge", t1=0.0))


class TestWriteCsv:
    def test_format_and_endings(self, tmp_path):
        path = tmp_path / "sub" / "t.csv"
        write_csv(str(path), ["a", "b"], [[1.0 / 3.0, 2]])
        raw = path.read_bytes()
        assert raw == b"a,b\n0.33333333333333331,2\n"

    def test_seventeen_digits_survive_round_trip(self, tmp_path):
        vals = np.random.default_rng(3).uniform(-1, 1, 20)
        path = tmp_path / "t.csv"
        write_csv(str(path), ["v"], [[v] for v in vals])
        _, body = read_table(path)
        assert np.array_equal(body[:, 0], vals)


class TestRunScenario:
    def test_spectrum(self, tmp_path):
        out = str(tmp_path / "s.csv")
        cfg = ScenarioConfig(scenario="spectrum",
                             params=ModelParams(delta=1.0, epsilon=0.3, field=0.5),
                             out_path=out)
        assert run_scenario(cfg) == [out]
        header, body = read_table(out)
        assert header == ["level", "energy_closed", "energy_numeric", "abs_deviation"]
        assert body.shape == (4, 4)
        assert body[:, 3].max() < 1e-10

    def test_gibbs(self, tmp_path):
        out = str(tmp_path / "g.csv")
        cfg = ScenarioConfig(scenario="gibbs",
                             params=ModelParams(delta=1.0, epsilon=0.3, dm=0.2),
                             out_path=out)
        run_scenario(cfg)
        header, body = read_table(out)
        assert header[:2] == ["row", "col"]
        assert body.shape == (16, 7)
        assert body[:, 6].max() < 1e-10

    def test_dephasing_columns_and_rows(self, tmp_path):
        out = str(tmp_path / "d.csv")
        cfg = ScenarioConfig(scenario="dephasing",
                             params=ModelParams(epsilon=0.1, gamma=0.2),
                             outputs=("concurrence", "coherence"),
                             t1=0.5, dt=1e-2, samples=5, out_path=out)
        run_scenario(cfg)
        header, body = read_table(out)
        assert header == ["t", "concurrence", "coherence"]
        assert body[0, 0] == 0.0
        assert body[-1, 0] == 0.5
        assert body.shape[0] >= 5

    def test_thermal_sweep(self, tmp_path):
        out = str(tmp_path / "th.csv")
        cfg = ScenarioConfig(scenario="thermal-sweep",
                             params=ModelParams(delta=1.0, epsilon=0.5),
                             sweep=AxisSpec("temperature", 0.5, 2.0, 4),
                             outputs=("concurrence", "coherence"), out_path=out)
        run_scenario(cfg)
        header, body = read_table(out)
        assert header == ["T", "concurrence", "coherence"]
        assert np.allclose(body[:, 0], [0.5, 1.0, 1.5, 2.0])

    def test_charge_default_columns(self, tmp_path):
        out = str(tmp_path / "c.csv")
        cfg = ScenarioConfig(scenario="charge",
                             params=ModelParams(delta=1.0, epsilon=0.1, field=0.5),
                             samples=5, out_path=out)
        run_scenario(cfg)
        header, body = read_table(out)
        assert header == ["omega_t"] + list(SCENARIOS["charge"].defaults)
        # default span is one period, in exactly samples uniform rows
        assert np.allclose(body[:, 0], np.linspace(0.0, np.pi, 5), rtol=0.0, atol=1e-12)
        cap_cols = body[:, [3, 4]]
        assert np.all(cap_cols == cap_cols[0])  # capacities constant in t

    def test_charge_with_discord_appends_column(self, tmp_path):
        out = str(tmp_path / "cd.csv")
        cfg = ScenarioConfig(scenario="charge", params=ModelParams(delta=1.0, epsilon=0.5),
                             samples=3, out_path=out, with_discord=True)
        run_scenario(cfg)
        header, _ = read_table(out)
        assert header[-1] == "discord"

    def test_charge_discord_column_matches_per_state_routes(self, tmp_path):
        # the column comes from one stacked call; each value must equal the
        # one-state call and sit on the Nelder-Mead reference
        path = CONFIG_DIR / "charge_delta1.cfg"
        out = str(tmp_path / "cd.csv")
        assert main(["charge", "--config", str(path), "--with-discord", "--samples", "41",
                     "--jobs", "1", "--out", out]) == 0
        header, body = read_table(out)
        cfg = replace(parse_config(path.read_text()), samples=41)
        p = cfg.params
        times, states = charge_trajectory(p, gibbs_numeric(p), *cfg.resolved_span(p), n_samples=41)
        assert len(times) == 41 and np.array_equal(body[:, 0], p.omega * times)
        column = body[:, header.index("discord")]
        single = np.array([quantum_discord(rho).discord for rho in states])
        assert np.max(np.abs(column - single)) <= 1e-12
        for i in (7, 13, 26):  # interior samples are not X-states
            rho = states[i]
            assert quantum_discord(rho).optimizer_evals > 100  # the general search ran
            nelder_mead = (von_neumann_entropy(partial_trace(rho, "A")) - von_neumann_entropy(rho)
                           + nelder_mead_search(rho)[0])
            assert abs(column[i] - nelder_mead) <= 1e-9

    def test_charge_discord_search_runs_in_chunks(self, tmp_path, monkeypatch):
        # the peak memory of a search is set by its largest evaluator call
        import dipolarqb.resources as res

        evaluator, points = res._conditional_entropy, []

        def spy(rho, w):
            points.append(np.broadcast(rho[..., 0, :1], w).size)
            return evaluator(rho, w)

        monkeypatch.setattr(res, "_conditional_entropy", spy)
        out = str(tmp_path / "cd.csv")
        assert main(["charge", "--config", str(CONFIG_DIR / "charge_delta1.cfg"), "--with-discord",
                     "--jobs", "1", "--out", out]) == 0
        assert len(read_table(out)[1]) > 400  # one orbit state per row
        round_points = res.REFINE_STARTS * res.REFINE_N ** 2
        chunk_points = max(res.GRID_THETA_N * res.GRID_PHI_N, res.SEARCH_CHUNK * round_points)
        assert max(points) <= chunk_points
        assert max(points) > round_points  # states shared the rounds

    def test_sweep_writes_suffixed_files(self, tmp_path):
        out = str(tmp_path / "c.csv")
        cfg = ScenarioConfig(scenario="charge", params=ModelParams(delta=1.0),
                             sweep=AxisSpec("field", 0.0, 1.0, 3),
                             outputs=("ergotropy",), samples=3, out_path=out)
        paths = run_scenario(cfg)
        assert [os.path.basename(p) for p in paths] == [
            "c_field00_0.csv", "c_field01_0.5.csv", "c_field02_1.csv",
        ]
        for p in paths:
            assert os.path.exists(p)

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = str(tmp_path / f"{tag}.csv")
            cfg = ScenarioConfig(scenario="dephasing",
                                 params=ModelParams(epsilon=0.5, gamma=0.2),
                                 t1=0.3, dt=1e-2, samples=4, out_path=out)
            run_scenario(cfg)
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_grid2d_rows_and_parallel_match(self, tmp_path):
        blobs = []
        for jobs in (1, 2):
            out = str(tmp_path / f"g{jobs}.csv")
            cfg = ScenarioConfig(scenario="grid2d", params=ModelParams(temperature=1.0),
                                 sweep=AxisSpec("delta", 0.5, 1.0, 2),
                                 second_axis=AxisSpec("epsilon", 0.1, 0.5, 2),
                                 out_path=out)
            run_scenario(cfg, jobs=jobs)
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]
        header, body = read_table(str(tmp_path / "g1.csv"))
        assert header == ["x", "y", "capacity", "coherence_max", "ergotropy_max", "power_max"]
        assert body.shape == (4, 6)
        assert np.all(body[:, 2] >= body[:, 4] - 1e-9)  # capacity bounds peak ergotropy

    @pytest.mark.parametrize("scenario", ["thermal-sweep", "dephasing", "charge"])
    def test_parallel_matches_serial(self, tmp_path, scenario):
        # the other layouts (grid2d is above), mapped over a real two-worker
        # pool, write the same files and bytes as inline
        keys = {
            "thermal-sweep": dict(sweep=AxisSpec("temperature", 0.5, 2.0, 3)),
            "dephasing": dict(sweep=AxisSpec("gamma", 0.1, 0.3, 3), t1=0.3, dt=1e-2, samples=4),
            "charge": dict(sweep=AxisSpec("field", 0.0, 1.0, 3), samples=3),
        }[scenario]
        written = []
        for jobs in (1, 2):
            out = tmp_path / str(jobs) / "r.csv"
            cfg = ScenarioConfig(scenario=scenario, params=ModelParams(delta=1.0, epsilon=0.3),
                                 out_path=str(out), **keys)
            paths = run_scenario(cfg, jobs=jobs)
            assert sorted(os.listdir(out.parent)) == sorted(os.path.basename(p) for p in paths)
            written.append({os.path.basename(p): Path(p).read_bytes() for p in paths})
        assert written[0] == written[1]


class TestEmitPlotScript:
    def test_line_plot(self, tmp_path):
        out = str(tmp_path / "s.csv")
        cfg = ScenarioConfig(scenario="spectrum", params=ModelParams(delta=1.0), out_path=out)
        script = emit_plot_script(out, cfg)
        assert script.endswith(".gp")
        text = Path(script).read_text()
        assert "plot " in text and "with lines" in text
        assert "s.csv" in text and "using 1:2 with lines title 'energy_closed'" in text

    def test_grid2d_heatmap(self, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["grid2d", "--temperature", "1", "--sweep", "delta:0.5:1:2",
                     "--sweep2", "epsilon:0.1:0.5:2", "--jobs", "1", "--emit-plot",
                     "--out", out]) == 0
        text = (tmp_path / "g.gp").read_text()
        assert "set view map" in text
        assert text.count("splot") == 4
        assert "using 1:2:3 with image" in text and "using 1:2:6 with image" in text


class TestMain:
    def test_success_prints_paths(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--delta", "1", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out

    def test_config_error_exit_1(self, capsys):
        assert main(["dephasing", "--temperature", "-1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_scenario_exit_1(self, capsys):
        assert main(["warp"]) == 1

    def test_bad_jobs_exit_1(self, capsys):
        assert main(["spectrum", "--jobs", "0"]) == 1

    def test_numeric_failure_exit_2(self, tmp_path, capsys):
        code = main([
            "dephasing", "--field", "5", "--gamma", "5", "--dt", "0.5", "--samples", "11",
            "--t1", "5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_non_finite_value_is_exit_2_and_no_csv(self, tmp_path, capsys, monkeypatch):
        # 2 kappa / T overflows in the closed-form Gibbs entries
        monkeypatch.chdir(tmp_path)
        assert main("gibbs --delta 1 --temperature 1e-320 --jobs 1".split()) == 2
        assert "closed_re" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_emit_plot_flag(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--out", out, "--emit-plot"]) == 0
        assert os.path.exists(str(tmp_path / "s.gp"))

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text(
            "scenario = spectrum\ndelta = 1.0\nout = %s\n" % (tmp_path / "a.csv")
        )
        assert main(["spectrum", "--config", str(conf), "--delta", "2.0"]) == 0
        header, body = read_table(tmp_path / "a.csv")
        # delta = 2 spectrum: +-2(delta+kappa1)/3 family, not the delta=1 one
        assert abs(body[:, 1].min() - (-8.0 / 3.0)) < 1e-12

    def test_flag_overrides_unparsable_file_value(self, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("scenario = spectrum\ndelta = one\n")
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--config", str(conf), "--delta", "2", "--out", out]) == 0
        assert main(["spectrum", "--config", str(conf), "--out", out]) == 1
        assert "bad value for delta" in capsys.readouterr().err

    def test_config_scenario_conflict(self, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("scenario = gibbs\n")
        assert main(["spectrum", "--config", str(conf)]) == 1
        assert "conflicts" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent/x.cfg"]) == 1

    def test_charge_omega_zero_is_config_error(self, tmp_path, capsys):
        assert main(["charge", "--omega", "0", "--jobs", "1",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "omega" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--omega", "0", "--sweep", "delta:-1:1:2", "--sweep2", "dm:-1:1:2"],
        ["--sweep", "omega:-1:1:3", "--sweep2", "dm:-1:1:2"],
    ])
    def test_grid2d_omega_zero_is_config_error(self, tmp_path, capsys, flags):
        # omega = 0 at the base point or on an axis has no charging period
        assert main(["grid2d", *flags, "--jobs", "1", "--out", str(tmp_path / "g.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "omega" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_every_sweep_point_validated(self, tmp_path, capsys):
        # the base omega = 1 is fine; the swept -1 and 0 have no valid period
        assert main(["charge", "--sweep", "omega:-1:1:3", "--jobs", "1",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_outputs_writes_nothing(self, tmp_path, capsys, source):
        out = tmp_path / "run" / "th.csv"
        argv = ["thermal-sweep", "--sweep", "temperature:1:2:2", "--emit-plot", "--jobs", "1",
                "--out", str(out)]
        if source == "flag":
            argv += ["--outputs", ","]
        else:
            cfg = tmp_path / "th.cfg"
            cfg.write_text("scenario = thermal-sweep\noutputs =\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: outputs names no column" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        # 1e8 states would be about 25 GB; refused before anything is built
        ["charge", "--samples", "100000000"],
        ["dephasing", "--samples", "100001"],
        # 9999999 steps, rounded up to 7 x 1428572 to fit 8 samples
        ["dephasing", "--t1", "1e4", "--dt", repr(1e4 / 9999999), "--samples", "8"],
    ])
    def test_sample_count_and_step_caps_are_config_errors(self, tmp_path, capsys, argv):
        assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert ("1e7 steps" if "--dt" in argv else "samples must be") in err
        assert not list(tmp_path.iterdir())

    def test_points_cap_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["charge", "--sweep", "field:0:1:1000000000", "--out", str(out)]) == 1
        assert f"at most {MAX_POINTS}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bundled_charge_run_ends_on_one_period(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        assert main(["charge", "--config", str(CONFIG_DIR / "charge_dm1.cfg"),
                     "--jobs", "1", "--out", out]) == 0
        header, body = read_table(out)
        assert abs(body[-1, header.index("omega_t")] - np.pi) < 1e-12
        assert body[-1, header.index("ergotropy")] < 1e-9

    def test_jobs_env_var(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "s.csv")
        monkeypatch.setenv("DIPOLAR_QB_JOBS", "2")
        assert main(["spectrum", "--out", out]) == 0
        monkeypatch.setenv("DIPOLAR_QB_JOBS", "many")
        assert main(["spectrum", "--out", out]) == 1
        assert "DIPOLAR_QB_JOBS" in capsys.readouterr().err

    def test_huge_jobs_capped_by_tasks_and_cpus(self, tmp_path, monkeypatch):
        # a stand-in pool that records its size and maps inline, so the
        # huge value never reaches a real executor
        import concurrent.futures

        recorded = []

        class InlinePool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        argv = ["thermal-sweep", "--delta", "1", "--sweep", "temperature:0.5:2:3"]
        outs = {}
        for jobs in ("1", "100000"):
            out = tmp_path / f"t{jobs}.csv"
            assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
            outs[jobs] = out.read_bytes()
        cap = min(3, os.cpu_count() or 1)
        assert recorded == ([cap] if cap > 1 else [])
        assert outs["100000"] == outs["1"]


# a text value for each run key, valid wherever the key is taken
RUN_KEY_VALUES = {
    "t0": "0", "t1": "1", "dt": "0.01", "samples": "3", "sweep": "temperature:0.5:1:2",
    "sweep2": "epsilon:0:1:2", "outputs": "coherence", "with_discord": "true",
}
# what each scenario needs to run, so an untaken key is the only fault
SCENARIO_BASE = {"grid2d": "sweep = delta:0:1:2\nsweep2 = epsilon:0:1:2\n"}
UNTAKEN_KEYS = [(name, key) for name, sc in SCENARIOS.items() for key in RUN_KEYS
                if key not in sc.keys]


def key_flag(key, raw):
    return ["--with-discord"] if key == "with_discord" else [f"--{key}", raw]


class TestStrictKeys:
    def test_every_scenario_refuses_some_key(self):
        assert {name for name, _ in UNTAKEN_KEYS} == set(SCENARIOS)
        assert all(set(sc.keys) <= set(RUN_KEYS) for sc in SCENARIOS.values())

    @pytest.mark.parametrize(("scenario", "key"), UNTAKEN_KEYS)
    def test_untaken_key_is_config_error(self, tmp_path, capsys, scenario, key):
        base = tmp_path / "base.cfg"
        base.write_text(f"scenario = {scenario}\n" + SCENARIO_BASE.get(scenario, ""))
        keyed = tmp_path / "keyed.cfg"
        keyed.write_text(base.read_text() + f"{key} = {RUN_KEY_VALUES[key]}\n")
        out = tmp_path / "out" / "x.csv"
        for argv in (["--config", str(base)] + key_flag(key, RUN_KEY_VALUES[key]),
                     ["--config", str(keyed)]):
            assert main([scenario, *argv, "--jobs", "1", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"config error: {scenario} does not take {key};" in err
            assert "Traceback" not in err
            assert not out.parent.exists()

    def test_reported_invocations_are_config_errors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main("spectrum --t1 -5 --dt 0 --samples 3 --with-discord".split()) == 1
        err = capsys.readouterr().err
        assert "spectrum does not take t1, dt, samples, with_discord;" in err
        assert main("grid2d --sweep delta:0:1:2 --sweep2 epsilon:0:1:2 "
                    "--with-discord --samples 3".split()) == 1
        err = capsys.readouterr().err
        assert "grid2d does not take samples, with_discord;" in err
        assert main("charge --dt 0.01 --samples 3".split()) == 1
        assert "charge does not take dt;" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestCheckedInConfigs:
    def test_all_parse_and_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.cfg"))
        assert len(paths) == 42
        for path in paths:
            cfg = parse_config(path.read_text())
            assert cfg.resolved_out().startswith("results/")

    def test_flags_parse_like_the_file(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            text = path.read_text()
            argv = []
            for line in text.splitlines():
                key, _, raw = (part.strip() for part in line.partition("="))
                argv += [raw] if key == "scenario" else key_flag(key, raw)
            assert _config_from_args(build_parser().parse_args(argv)) == parse_config(text), path

    def test_serialize_round_trip(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            assert parse_config(serialize_config(cfg)) == cfg, path

    def test_dephasing_sweep_values(self):
        cfg = parse_config((CONFIG_DIR / "dephasing_epsilon.cfg").read_text())
        assert cfg.scenario == "dephasing"
        assert cfg.params.gamma == 0.2
        assert np.allclose(cfg.sweep.values(), [0.1, 1.0, 10.0])

    def test_charge_temperature_family(self):
        cfg = parse_config((CONFIG_DIR / "charge_temperature_sweep.cfg").read_text())
        assert cfg.scenario == "charge"
        assert cfg.params.delta == 1.0 and cfg.params.epsilon == 0.1
        assert np.allclose(cfg.sweep.values(), [0.5, 1.0, 1.5, 2.0])
        tail = parse_config((CONFIG_DIR / "charge_temperature4.cfg").read_text())
        assert tail.params.temperature == 4.0

    def test_grid_config_shape(self):
        cfg = parse_config((CONFIG_DIR / "grid_delta_dm.cfg").read_text())
        assert cfg.scenario == "grid2d"
        assert cfg.sweep.count == cfg.second_axis.count == 21


# Fuzzed CLI values: zero, negatives, non-finite, swapped bounds, malformed
# and non-numeric specs.  Magnitudes stay small and the two scenarios that
# take --samples always get a small one, so no example integrates long or
# evaluates many states; --jobs is pinned to 1 because every job is an OS
# process.
FUZZ_NUMBERS = ("0", "-0", "-1", "1", "0.5", "2", "1e-3", "nan", "inf", "-inf", "abc", "")
FUZZ_SAMPLES = ("-1", "0", "1", "2", "3", "2.5", "x")
FUZZ_SWEEPS = (
    "delta:0:1:2", "delta:1:0:2", "delta:0:1", "delta:0:1:1", "delta:a:1:2",
    "temperature:0.5:2:2", "temperature:-1:1:3", "temperature:0:1:2:log",
    "omega:-1:1:3", "omega:0:1:2", "field:0:inf:2", "gamma:0:1:2:exp",
    "coupling:0:1:2", "epsilon:-2:2:3", ":::", "",
)
FUZZ_OUTPUTS = ("concurrence", "discord,coherence", "ergotropy,power_avg", "purity", ",", "",
                "coherence,coherence")
FUZZ_FLAGS = (
    [(f"--{k}", FUZZ_NUMBERS) for k in PARAM_KEYS]
    + [("--t0", FUZZ_NUMBERS), ("--t1", FUZZ_NUMBERS), ("--dt", FUZZ_NUMBERS),
       ("--sweep", FUZZ_SWEEPS), ("--sweep2", FUZZ_SWEEPS),
       ("--outputs", FUZZ_OUTPUTS)]
)
FUZZ_CONFIG_KEYS = PARAM_KEYS + ("t0", "t1", "dt", "samples", "sweep", "sweep2",
                                 "outputs", "with_discord", "bogus")


@st.composite
def fuzzed_invocation(draw):
    scenario = draw(st.sampled_from(tuple(SCENARIOS) + ("warp",)))
    argv = [scenario, "--jobs", "1"]
    if scenario in ("dephasing", "charge"):
        argv += ["--samples", draw(st.sampled_from(FUZZ_SAMPLES))]
    for flag, values in draw(st.lists(st.sampled_from(FUZZ_FLAGS), max_size=4)):
        argv += [flag, draw(st.sampled_from(values))]
    for flag in ("--with-discord", "--emit-plot"):
        if draw(st.booleans()):
            argv.append(flag)
    config = None
    if draw(st.booleans()):
        lines = [f"scenario = {draw(st.sampled_from(tuple(SCENARIOS) + ('warp',)))}"]
        for key in draw(st.lists(st.sampled_from(FUZZ_CONFIG_KEYS), max_size=4)):
            pool = FUZZ_SAMPLES if key == "samples" else FUZZ_SWEEPS + FUZZ_NUMBERS
            lines.append(f"{key} = {draw(st.sampled_from(pool))}")
        if draw(st.booleans()):
            lines.append(draw(st.text(alphabet="ab =:#\n1-.", max_size=12)))
        config = "\n".join(lines) + "\n"
    return argv, config


@settings(max_examples=120, deadline=None)
@given(fuzzed_invocation())
def test_fuzzed_invocations_exit_cleanly(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", os.path.join(tmp, "out.csv")]
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(config)
            argv += ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)  # an uncaught exception here is a traceback
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def write_console_script(bin_dir, name):
    """Write the launcher an installer makes for this checkout's ``name`` script.

    The target comes from ``[project.scripts]`` in this checkout's
    pyproject.toml and the body is the standard console-script one, so the
    command run by name is the one the package declares, without
    installing it or picking up a copy installed elsewhere.
    """
    with open(ROOT / "pyproject.toml", "rb") as f:
        value = tomllib.load(f)["project"]["scripts"][name]
    ep = EntryPoint(name=name, value=value, group="console_scripts")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)


def test_installed_entry_point(tmp_path):
    bin_dir = tmp_path / "bin"
    write_console_script(bin_dir, "dipolar-qb")
    env = dict(
        os.environ,
        PATH=os.pathsep.join(filter(None, [str(bin_dir), os.environ.get("PATH")])),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    )
    out = str(tmp_path / "s.csv")
    proc = subprocess.run(
        ["dipolar-qb", "spectrum", "--delta", "1", "--out", out],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out in proc.stdout
    assert os.path.exists(out)

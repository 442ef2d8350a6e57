"""End-to-end checks of the command-line drivers.

Runs `main` in process with temporary output paths.  Small grids keep
each invocation cheap; determinism checks compare output bytes across
reruns, which requires the same --out path because the resolved config
is echoed into the file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qudittomo import cli, readout, recon


def run_main(argv):
    return cli.main(argv)


def read_csv_rows(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_qst_compare_end_to_end(dim, tmp_path):
    out = tmp_path / "qst.csv"
    code = run_main(["qst-compare", "--dim", str(dim), "--grid", "200",
                     "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert header == cli.CSV_HEADER
    assert len(rows) == 1 * 2 * 2
    labels = [r[1] for r in rows]
    assert labels == sorted(labels)
    for r in rows:
        assert r[0] == "qst_compare"
        assert r[2] == str(dim) and r[3] == "200"
        assert 0.0 <= float(r[5]) <= 1.0
    echoed = json.loads(comments[1].split("# config: ", 1)[1])
    assert echoed["seed"] == 5
    assert echoed["grid"] == [200]
    assert comments[2] == "# seed: 5"


def test_summary_matches_raw_rows(tmp_path):
    out = tmp_path / "qst.csv"
    assert run_main(["qst-compare", "--grid", "150,300", "--trials", "3",
                     "--seed", "6", "--out", str(out)]) == 0
    _, _, rows = read_csv_rows(out)
    _, header, srows = read_csv_rows(cli.summary_path(out))
    assert header == cli.SUMMARY_HEADER
    assert len(srows) == 2 * 2
    for label, n_text, q25, med, q75 in srows:
        vals = [float(r[5]) for r in rows if r[1] == label and r[3] == n_text]
        assert len(vals) == 3
        want = np.percentile(vals, [25.0, 50.0, 75.0])
        got = np.array([float(q25), float(med), float(q75)])
        assert np.array_equal(got, want)


def test_summary_quartiles_match_numpy_bit_for_bit():
    rng = np.random.default_rng(28)
    for n in range(1, 61):
        for ties in (False, True):
            vals = rng.lognormal(-8.0, 2.0, size=n)
            if ties:
                # a few distinct values, each repeated
                vals = rng.choice(vals[: max(1, n // 4)], size=n)
            rows = [("qpt_models", "L", 3, 100, t, v) for t, v in enumerate(vals)]
            [(_, _, *got)] = cli.summarize(rows)
            want = np.percentile(vals, [25.0, 50.0, 75.0])
            assert np.array_equal(np.array(got).view(np.uint64),
                                  want.view(np.uint64)), (n, ties)


def test_summary_of_a_nan_is_nan_as_in_numpy():
    rows = [("qst_compare", "MUB", 3, 100, t, v)
            for t, v in enumerate([0.1, float("nan"), 0.3])]
    [(_, _, *got)] = cli.summarize(rows)
    assert np.isnan(got).all()


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "qst.csv"
    argv = ["qst-compare", "--grid", "200", "--trials", "2",
            "--seed", "7", "--out", str(out)]
    assert run_main(argv) == 0
    first = out.read_bytes()
    first_summary = cli.summary_path(out).read_bytes()
    assert run_main(argv) == 0
    assert out.read_bytes() == first
    assert cli.summary_path(out).read_bytes() == first_summary


def test_parallel_run_matches_sequential(tmp_path, monkeypatch):
    out = tmp_path / "qst.csv"
    argv = ["qst-compare", "--grid", "200", "--trials", "3",
            "--seed", "8", "--out", str(out)]
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    assert run_main(argv) == 0
    sequential = out.read_bytes()
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert run_main(argv) == 0
    assert out.read_bytes() == sequential


@pytest.mark.parametrize("argv", [
    ["qst-compare", "--grid", "200", "--trials", "2", "--seed", "12"],
    ["qpt-models", "--grid", "300", "--trials", "1", "--seed", "13"],
    ["spam-fit", "--seed", "14"],
], ids=["qst-compare", "qpt-models", "spam-fit"])
def test_rerun_from_the_embedded_config_is_byte_identical(argv, tmp_path):
    # the embedded config holds every setting, the output path included
    out = tmp_path / "out"
    assert run_main(argv + ["--out", str(out)]) == 0
    paths = [out] if argv[0] == "spam-fit" else [out, cli.summary_path(out)]
    first = [path.read_bytes() for path in paths]
    if argv[0] == "spam-fit":
        config = json.loads(first[0])["config"]
    else:
        comments, _, _ = read_csv_rows(out)
        config = json.loads(comments[1].split("# config: ", 1)[1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for path in paths:
        path.unlink()
    assert run_main([argv[0], "--config", str(cfg)]) == 0
    assert [path.read_bytes() for path in paths] == first


def test_qpt_models_rerun_and_parallel_run_are_byte_identical(tmp_path,
                                                              monkeypatch):
    out = tmp_path / "qpt.csv"
    argv = ["qpt-models", "--grid", "300", "--trials", "2",
            "--seed", "10", "--out", str(out)]
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    assert run_main(argv) == 0
    first = out.read_bytes()
    first_summary = cli.summary_path(out).read_bytes()
    assert run_main(argv) == 0
    assert out.read_bytes() == first
    assert cli.summary_path(out).read_bytes() == first_summary
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert run_main(argv) == 0
    assert out.read_bytes() == first
    assert cli.summary_path(out).read_bytes() == first_summary


def test_qpt_models_end_to_end(tmp_path):
    out = tmp_path / "qpt.csv"
    code = run_main(["qpt-models", "--grid", "300", "--trials", "1",
                     "--seed", "9", "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv_rows(out)
    assert header == cli.CSV_HEADER
    assert len(rows) == 1 * 1 * 4
    assert [r[1] for r in rows] == ["Ideal model", "SPAM errors model 1",
                                    "SPAM errors model 2", "True model"]
    for r in rows:
        assert r[0] == "qpt_models"
        assert 0.0 <= float(r[5]) <= 1.0


def test_spam_fit_report_and_determinism(tmp_path):
    out = tmp_path / "spam.json"
    argv = ["spam-fit", "--seed", "10", "--out", str(out)]
    assert run_main(argv) == 0
    first = out.read_bytes()
    report = json.loads(first)
    assert set(report) >= {"config", "seed", "truth", "spam_general",
                           "spam_gibbs"}
    assert report["spam_general"]["predictive_residual"] < 0.05
    est = report["spam_gibbs"]["estimate"]
    assert set(est) == {"temperature", "b0", "b1"}
    assert abs(est["temperature"] - 1.0) < 0.5
    assert run_main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("dim, omegas", [(2, [0.0, 4.0]),
                                         (5, [0.0, 2.0, 4.0, 6.0, 8.0])],
                         ids=["d2", "d5"])
def test_spam_fit_truth_is_the_gibbs_cascade_model(dim, omegas, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": dim, "omegas": omegas}))
    out = tmp_path / "spam.json"
    argv = ["spam-fit", "--config", str(cfg), "--seed", "11", "--out", str(out)]
    assert run_main(argv) == 0
    first = out.read_bytes()
    truth = json.loads(first)["truth"]
    want = readout.gibbs_cascade_model(dim, 1.0, omegas, 0.01, 0.02)
    assert truth["populations"] == want.populations.tolist()
    assert truth["response"] == want.response.tolist()
    assert (truth["temperature"], truth["b0"], truth["b1"]) == (1.0, 0.01, 0.02)
    assert run_main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_level_read_clicks_match_the_gibbs_read_model(dim):
    omegas = tuple(2.0 * np.arange(dim))
    config = cli.ExperimentConfig(experiment="spam_fit", dim=dim,
                                  temperature=1.3, omegas=omegas)
    noise, clicks = cli._full_noise(config)
    a = readout.gibbs_populations(1.3, np.asarray(omegas))
    assert np.array_equal(noise.spam.populations, a)
    want = (1.0 - config.b0) * a + config.b1 * (1.0 - a)
    assert np.max(np.abs(clicks - want)) <= 1e-15


def test_completeness_report_qutrit(tmp_path, capsys):
    out = tmp_path / "comp.json"
    assert run_main(["completeness", "--dim", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert json.loads(printed) == report
    qst = report["qst"]
    assert qst["circuits"] == 7
    assert qst["max_gates"] == 1
    assert qst["rank"] == 9 and qst["rank_target"] == 9
    assert qst["complete"] is True
    assert qst["mub_equivalent"] is False
    qpt = report["qpt"]
    assert qpt["circuits"] == 63
    assert qpt["preparations"] == 9
    assert qpt["max_gates"] == 3
    assert qpt["rank"] == 81 and qpt["complete"] is True


def test_completeness_report_qubit(capsys):
    assert run_main(["completeness", "--dim", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["qst"]["circuits"] == 3
    assert report["qst"]["mub_equivalent"] is True
    assert report["qpt"]["circuits"] == 12
    assert report["qpt"]["rank"] == 16


def test_config_file_merges_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "trials": 2, "grid": [150]}))
    out = tmp_path / "qst.csv"
    assert run_main(["qst-compare", "--config", str(cfg), "--seed", "4",
                     "--out", str(out)]) == 0
    comments, _, rows = read_csv_rows(out)
    echoed = json.loads(comments[1].split("# config: ", 1)[1])
    assert echoed["seed"] == 4
    assert echoed["trials"] == 2
    assert len(rows) == 2 * 2


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 100}))
    assert run_main(["qst-compare", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_experiment_command_mismatch_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, experiment in (("qst-compare", "qpt_models"),
                                ("spam-fit", "spam_gibbs")):
        cfg.write_text(json.dumps({"experiment": experiment}))
        assert run_main([command, "--config", str(cfg)]) == 2
        assert "does not belong" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qst-compare", "--grid", "12.5"],
    ["qst-compare", "--grid", "1000,abc"],
    ["qst-compare", "--grid", "1000,1000"],
    ["qst-compare", "--grid", "1000,100"],
    ["qst-compare", "--trials", "0"],
    ["qst-compare", "--dim", "1"],
    ["qst-compare", "--dim", "4"],
    ["qpt-models", "--dim", "4"],
])
def test_invalid_settings_exit_with_config_error(argv, tmp_path):
    assert run_main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("values, message", [
    ({"trials": "many"}, "config values have the wrong types"),
    ({"calibration_shots": 0}, "calibration_shots must be at least 1"),
])
def test_invalid_config_values_exit_with_config_error(values, message, tmp_path,
                                                       capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "x.csv"
    assert run_main(["qpt-models", "--config", str(cfg), "--grid", "300",
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["qst-compare", "--grid", "inf"], None, "cannot parse grid 'inf'"),
    (["qst-compare", "--grid", "nan"], None, "cannot parse grid 'nan'"),
    (["qst-compare", "--grid", "1e400"], None, "cannot parse grid '1e400'"),
    (["qst-compare"], '{"dim": 1e400}', "dim must be finite, got inf"),
    (["qst-compare"], '{"trials": 1e400}', "trials must be finite, got inf"),
    (["qst-compare"], '{"seed": 1e400}', "seed must be finite, got inf"),
    (["qpt-models"], '{"calibration_shots": 1e400}',
     "calibration_shots must be finite, got inf"),
    (["qst-compare"], '{"grid": [1000, 1e400]}', "grid must be finite, got inf"),
    (["spam-fit"], '{"temperature": 1e400}', "temperature must be finite, got inf"),
    # integers too large for a float
    (["qst-compare"], '{"seed": 1' + 400 * "0" + '}', "seed is too large for a float"),
    (["qst-compare"], '{"dim": 1' + 400 * "0" + '}', "dim is too large for a float"),
], ids=["grid-inf", "grid-nan", "grid-1e400", "dim", "trials", "seed",
        "calibration_shots", "config-grid", "temperature", "seed-10e400",
        "dim-10e400"])
def test_non_finite_numbers_exit_with_config_error(argv, config, message,
                                                   tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "x.out"
    assert run_main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"trials": 1.5, "grid": [1000.7], "seed": 2.9},
     "trials must be an integer, got 1.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"dim": 3.5}, "dim must be an integer, got 3.5"),
    ({"calibration_shots": 1e6 + 0.5},
     "calibration_shots must be an integer, got 1000000.5"),
    ({"seed": 2.9}, "seed must be an integer, got 2.9"),
    ({"seed": False}, "seed must be an integer, got False"),
    ({"grid": [1000.7]}, "grid must be an integer, got 1000.7"),
    ({"grid": [True]}, "grid must be an integer, got True"),
], ids=["trials-grid-seed", "trials-bool", "dim", "calibration_shots", "seed",
        "seed-bool", "grid", "grid-bool"])
def test_fractional_config_integers_exit_with_config_error(config, message,
                                                           tmp_path, capsys):
    # int() would truncate these silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    assert run_main(["qpt-models", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"b0": True}, "b0 must be a number, got True"),
    ({"b1": False}, "b1 must be a number, got False"),
    ({"temperature": True}, "temperature must be a number, got True"),
    ({"gate_depol_p": False}, "gate_depol_p must be a number, got False"),
    ({"truth_depol_p": True}, "truth_depol_p must be a number, got True"),
    ({"omegas": [False, True, 6]}, "omegas must be a number, got False"),
], ids=["b0", "b1", "temperature", "gate_depol_p", "truth_depol_p", "omegas"])
def test_boolean_config_numbers_exit_with_config_error(config, message,
                                                       tmp_path, capsys):
    # float() would read them as 0 and 1: {"b0": true} is a miss rate of 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.json"
    assert run_main(["spam-fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_config_integers_are_accepted():
    cfg = cli.ExperimentConfig(experiment="qpt_models", dim=3.0, trials=2e0,
                               calibration_shots=1e6, seed=7.0, grid=(1e3, 1e6))
    assert (cfg.dim, cfg.trials, cfg.calibration_shots, cfg.seed) == (3, 2, 10 ** 6, 7)
    assert cfg.grid == (1000, 10 ** 6)
    assert all(type(v) is int for v in (cfg.dim, cfg.trials, cfg.seed) + cfg.grid)


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_main(["qst-compare", "--config", str(missing)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run_main(["qst-compare", "--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert run_main(["qst-compare", "--config", str(cfg)]) == 2


def test_bad_worker_env_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "zero")
    out = tmp_path / "x.csv"
    assert run_main(["qst-compare", "--grid", "100", "--trials", "1",
                     "--out", str(out)]) == 2
    assert cli.WORKERS_ENV in capsys.readouterr().err


# `main` must call these drivers through the module attributes: the
# benchmark runner replaces them to mark the start of its workload
@pytest.mark.parametrize("command, driver", [("qst-compare", "run_qst_compare"),
                                             ("qpt-models", "run_qpt_models")])
def test_numerical_failure_exits_with_code_3(tmp_path, monkeypatch, capsys,
                                             command, driver):
    def explode(config):
        raise cli.NumericalError("synthetic non-convergence")

    monkeypatch.setattr(cli, driver, explode)
    assert run_main([command, "--out", str(tmp_path / "x.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("reason", ["stalled", "max_iter"])
@pytest.mark.parametrize("fit, name", [
    ("mle_process", "process"),
    ("estimate_spam_general", "general calibration"),
    ("estimate_spam_gibbs", "thermal calibration")],
    ids=["process", "general", "thermal"])
def test_unconverged_process_fit_exits_with_code_3(tmp_path, monkeypatch, capsys,
                                                   fit, name, reason):
    def unconverged(*args, **kwargs):
        return SimpleNamespace(converged=False,
                               diagnostics={"stop_reason": reason})

    monkeypatch.setattr(recon, fit, unconverged)
    assert run_main(["qpt-models", "--grid", "300", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert f"{name} fit did not converge" in err and f"({reason}," in err


def test_infeasible_process_fit_exits_with_code_3(tmp_path, monkeypatch, capsys):
    # without Newton steps the projection leaves the estimate off the
    # trace-preserving set, which the real process fit reports
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    monkeypatch.setattr(recon, "CPTP_MAX_ITER", 0)
    assert run_main(["qpt-models", "--grid", "300", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "process fit did not converge (infeasible," in err


def test_unconverged_state_fit_exits_with_code_3(tmp_path, monkeypatch, capsys):
    # one iteration leaves both state fits at their cap, so the report the
    # rank test selects has not converged
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    monkeypatch.setattr(recon, "STATE_MAX_ITER", 1)
    assert run_main(["qst-compare", "--grid", "200", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert ("state fit did not converge (max_iter, label=2-level, N=200, trial=0)"
            in err)


def test_config_validation_direct():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="nonsense")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="qst_compare", grid=())
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="qst_compare", temperature=0.0)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="qst_compare", b0=1.5)
    cfg = cli.ExperimentConfig(experiment="qst_compare", grid=(10, 20),
                               dim="3")
    assert cfg.dim == 3 and cfg.grid == (10, 20)


def _package_env(**overrides):
    """Environment in which a fresh interpreter finds this package."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy():
    script = (
        "import sys\n"
        "import qudittomo.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=_package_env())
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # the pool is imported only where QUDITTOMO_MAX_WORKERS asks for one
    script = ("import sys\n"
              "import qudittomo.cli\n"
              "print('concurrent.futures.process' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=_package_env())
    assert out.stdout.strip() == "False"


def test_commands_load_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on its first call; the summary
    # quartiles do without it
    script = (
        "import sys\n"
        "from qudittomo import cli\n"
        "for argv in (['qpt-models', '--grid', '300', '--trials', '1'],\n"
        "             ['qst-compare', '--grid', '200', '--trials', '2']):\n"
        "    assert cli.main(argv + ['--out', argv[0] + '.csv']) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, cwd=tmp_path, env=_package_env())
    assert out.stdout.splitlines()[-1] == "False"
    assert len(list(tmp_path.glob("*.summary.csv"))) == 2


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # a meta-path finder that fails every scipy import stands in for an
    # environment without scipy
    script = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is unavailable')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from qudittomo import cli\n"
        "for argv in (['qst-compare', '--grid', '200', '--trials', '1'],\n"
        "             ['qpt-models', '--grid', '300', '--trials', '1'],\n"
        "             ['spam-fit'], ['completeness', '--dim', '2']):\n"
        "    assert cli.main(argv + ['--out', argv[0] + '.out']) == 0, argv\n")
    subprocess.run([sys.executable, "-c", script], capture_output=True,
                   text=True, check=True, cwd=tmp_path, env=_package_env())
    assert len(list(tmp_path.glob("*.out"))) == 4


def test_qpt_models_at_d2_converges(tmp_path):
    # the general calibration fit used to stall on this trial
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omegas": [0.0, 4.0]}))
    out = tmp_path / "qpt.csv"
    assert run_main(["qpt-models", "--config", str(cfg), "--dim", "2",
                     "--seed", "1", "--trials", "1", "--grid", "1000",
                     "--out", str(out)]) == 0
    assert run_main(["spam-fit", "--config", str(cfg), "--dim", "2", "--seed", "1",
                     "--out", str(tmp_path / "spam.json")]) == 0
    report = json.loads((tmp_path / "spam.json").read_text())
    assert report["spam_general"]["converged"] and report["spam_gibbs"]["converged"]


def test_qpt_output_does_not_depend_on_blas_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        subprocess.run(
            [sys.executable, "-m", "qudittomo.cli", "qpt-models", "--trials", "2",
             "--grid", "1000000", "--seed", "5", "--out", "qpt.csv"],
            capture_output=True, check=True, cwd=run_dir,
            env=_package_env(OPENBLAS_NUM_THREADS=threads))
        outputs.append((run_dir / "qpt.csv").read_bytes())
    assert outputs[0] == outputs[1]

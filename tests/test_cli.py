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


def test_qst_compare_end_to_end(tmp_path):
    out = tmp_path / "qst.csv"
    code = run_main(["qst-compare", "--grid", "200", "--trials", "2",
                     "--seed", "5", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert header == cli.CSV_HEADER
    assert len(rows) == 1 * 2 * 2
    labels = [r[1] for r in rows]
    assert labels == sorted(labels)
    for r in rows:
        assert r[0] == "qst_compare"
        assert r[2] == "3" and r[3] == "200"
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


def test_numerical_failure_exits_with_code_3(tmp_path, monkeypatch, capsys):
    def explode(config):
        raise cli.NumericalError("synthetic non-convergence")

    monkeypatch.setattr(cli, "run_qst_compare", explode)
    assert run_main(["qst-compare", "--out", str(tmp_path / "x.csv")]) == 3
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


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes longer to import than the rest of the program;
    # compare against what numpy and scipy.optimize load on their own,
    # which differs across scipy versions
    script = (
        "import sys, numpy, scipy.optimize\n"
        "before = set(sys.modules)\n"
        "import qudittomo.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if m.split('.')[:2] == ['scipy', 'stats']))\n")
    # the fresh interpreter finds the package where this one does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

"""Tests of the benchmark itself.

Run from the repository root:

  python3 -m pytest -q perfbench/test_perfbench.py

The trace-fidelity tests run one process of every workload untraced and
traced (about 90 s on 2 cores, most of it the d = 5 trial).
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing

SMALL = {
    "qst_d3": dataclasses.replace(bench.WORKLOADS["qst_d3"], cli_trials=2,
                                  min_procs=1),
    "qpt_d3": dataclasses.replace(bench.WORKLOADS["qpt_d3"], min_procs=1),
    "qpt_d5": dataclasses.replace(bench.WORKLOADS["qpt_d5"], min_procs=1),
}


def _fresh_workdir(name):
    shutil.rmtree(bench.WORK / name, ignore_errors=True)
    (bench.WORK / name).mkdir(parents=True)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_outputs_match_untraced(workload):
    name = f"test-{workload}"
    wl = SMALL[workload]
    _fresh_workdir(name)
    plain = bench.run_process(name, wl, 7, 0, "run")
    traced = bench.run_process(name, wl, 7, 0, "trace")
    assert "error" not in plain and "error" not in traced
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert plain["summary_sha256"] == traced["summary_sha256"]

    sums = tracing.summarize(traced["spans"], traced["counts"])
    assert 0.0 < sums["top_busy_s"] <= traced["wall_s"]
    assert sums["trials"] == wl.trials_per_proc
    table = tracing.layer_metrics(sums, traced["wall_s"])
    assert tracing.top_layer(table) == wl.expected_top
    assert table["cli.self_s"] >= 0.0


def test_full_trace_run_checks_fidelity():
    name = "test-trace-run"
    _fresh_workdir(name)
    attempted, failed, metrics, procs = bench.trace(name, SMALL["qst_d3"], 3)
    assert (attempted, failed) == (SMALL["qst_d3"].trials_per_proc, 0)
    assert len(procs) == 2
    # mle_state, mle_state_pure and select_rank for each of two protocols
    assert metrics["recon.state.calls"][0] == 6 * attempted
    assert metrics["recon.process.calls"] == (0, "count")


@pytest.fixture(scope="module")
def good_outputs(tmp_path_factory):
    name = "test-outputs"
    wl = SMALL["qst_d3"]
    _fresh_workdir(name)
    res = bench.run_process(name, wl, 5, 0, "run")
    assert "error" not in res
    src = bench.WORK / name
    dst = tmp_path_factory.mktemp("outputs")
    for path in src.glob("p0*.csv"):
        shutil.copy(path, dst / path.name)
    return wl, res["cli_seed"], dst / "p0.csv", dst / "p0.summary.csv"


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_check_outputs_accepts_cli_outputs(good_outputs):
    wl, seed, csv_path, summary_path = good_outputs
    rows = bench.check_outputs(wl, csv_path, summary_path, seed)
    assert len(rows) == len(wl.labels) * len(wl.grid) * wl.cli_trials


@pytest.mark.parametrize("mutate, message", [
    (lambda csv, summ: _edit(csv, "qst_compare,MUB,3,1000,1,", "qst_compare,MUB,3,1000,0,"),
     "duplicate row"),
    (lambda csv, summ: csv.write_text(csv.read_text().rstrip("\n").rsplit("\n", 1)[0] + "\n"),
     "rows missing"),
    (lambda csv, summ: _edit(csv, "qst_compare,MUB,3,1000000,0,0.",
                             "qst_compare,MUB,3,1000000,0,1."),
     "not in [0, 1]"),
    (lambda csv, summ: _edit(summ, "MUB,1000,0.", "MUB,1000,0.5"),
     "does not match"),
    (lambda csv, summ: _edit(csv, "# seed:", "# seed: 9"),
     "does not record seed"),
])
def test_check_outputs_rejects_bad_outputs(good_outputs, tmp_path, mutate, message):
    wl, seed, csv_path, summary_path = good_outputs
    csv_copy = shutil.copy(csv_path, tmp_path / csv_path.name)
    summary_copy = shutil.copy(summary_path, tmp_path / summary_path.name)
    mutate(Path(csv_copy), Path(summary_copy))
    with pytest.raises(ValueError, match=re.escape(message)):
        bench.check_outputs(wl, Path(csv_copy), Path(summary_copy), seed)


def test_layer_metrics_from_known_spans():
    spans = [
        ["protocols.qpt_two_level", 0.0, 1.0, -1, 0, None],
        ["recon.build_measurement_model", 1.0, 2.0, -1, 0, 1000],
        ["recon.mle_process", 2.0, 12.0, -1, 0, 3],
        ["recon.project_cptp", 3.0, 4.0, 2, 0, None],
        ["recon.project_cptp", 5.0, 7.0, 2, 0, None],
        ["recon.select_rank", 12.0, 13.0, -1, 0, 1],
        ["recon.select_rank", 13.0, 14.0, -1, 0, 0],
    ]
    sums = tracing.summarize(spans, {"sim.circuit_probabilities": 4})
    table = tracing.layer_metrics(sums, wall_s=20.0)
    assert table["recon.process.busy_s"] == 10.0
    assert table["recon.process.self_s"] == 7.0
    assert table["recon.cptp.calls"] == 2
    assert table["recon.cptp.busy_s"] == 3.0
    assert table["recon.state.pure_kept"] == 1
    assert tracing.ratios(sums) == {"recon.state.pure_ratio": (1, 2),
                                    "recon.process.accept_ratio": (3, 2)}
    assert table["recon.model.bytes"] == 1000
    assert table["sim.circuits"] == 4
    assert table["cli.self_s"] == 20.0 - 14.0
    assert table["recon.process.share"] == 0.5
    assert tracing.top_layer(table) == "recon.process"


def test_ratios_leave_out_a_zero_base():
    sums = tracing.summarize([["protocols.qpt_two_level", 0.0, 1.0, -1, 0, None]],
                             {"sim.circuit_probabilities": 0})
    assert tracing.ratios(sums) == {}


# Per-curve medians at N = 1e6 over five qpt_d3 processes.
QPT_MEDIANS = {"Ideal model": 3.6e-2, "True model": 6.6e-3,
               "SPAM errors model 1": 9.6e-3, "SPAM errors model 2": 6.8e-3}


@pytest.mark.parametrize("label", sorted(QPT_MEDIANS))
def test_accuracy_guards_catch_any_curve_four_times_worse(label):
    bounds = {m["name"]: m["bound"] for m in
              json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    before = bench.accuracy_guards(QPT_MEDIANS)
    after = bench.accuracy_guards({**QPT_MEDIANS, label: 4 * QPT_MEDIANS[label]})
    assert any(after[key] > before[key] * (1 + bounds[key]) for key in before)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert ({(m["name"], m["unit"]) for m in spec["end_to_end"]}
            == set(bench.END_TO_END_UNITS.items()))
    sums = tracing.summarize([], {"sim.circuit_probabilities": 0})
    per_layer = {(key, bench.layer_unit(key)) for key in tracing.layer_metrics(sums, 1.0)}
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.HERE.name}/run.py",
                           "--workload", "qst_d3", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

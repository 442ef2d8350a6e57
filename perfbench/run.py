"""Benchmark of the qudittomo command-line drivers.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs `qudittomo.cli.main` in fresh single processes
(`PYTHONPATH=src`, `QUDITTOMO_MAX_WORKERS` unset), one after another,
each with its own CLI seed derived from `--seed`.  The run starts a
new process while the elapsed time plus the mean process time fits in
`--seconds`, and always makes the workload's `min_procs` processes; the
accuracy guards use only those, so they depend on the seed alone.

With `--trace 0` the run reports the end-to-end metrics.  With
`--trace 1` it runs each of the `min_procs` processes untraced and then
traced (see tracing.py), checks that both wrote the same bytes, and
reports the per-layer table; the tracing overhead, the layer shares and
the useful-work ratios are printed with it.

Every process's CSV and summary are checked: exit code 0, every
(label, N, trial) row present, every infidelity finite and in [0, 1],
and the summary quartiles equal to those of the rows.  A failed check
counts the process's trials as failed and the run goes on.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
environment, per-process timings and the sha256 digests of the outputs.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKERS_ENV = "QUDITTOMO_MAX_WORKERS"
CSV_HEADER = "experiment,label,dim,N,trial,infidelity"
SUMMARY_HEADER = "label,N,q25,median,q75"
PROC_TIMEOUT_S = 150.0
QPT_LABELS = {"Ideal model": "ideal", "True model": "true",
              "SPAM errors model 1": "model1", "SPAM errors model 2": "model2"}
# The paper's QPT comparison: the true SPAM model and both fitted ones
# must beat the model that assumes ideal preparation and readout.
QPT_ORDERING = (("True model", "Ideal model"),
                ("SPAM errors model 1", "Ideal model"),
                ("SPAM errors model 2", "Ideal model"))
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "infid.best": "1", "infid.worst": "1", "infid.geomean": "1"}
LAYER_UNITS = {"calls": "count", "circuits": "count", "iters": "count",
               "pure_kept": "count", "bytes": "bytes", "share": "1"}


@dataclass(frozen=True)
class Workload:
    """One CLI configuration and how the benchmark sizes and checks it."""

    command: str
    dim: int
    grid: tuple
    cli_trials: int
    min_procs: int
    labels: dict          # CSV label -> curve name in the report
    expected_top: str     # layer expected to hold the largest share
    # (better, worse) CSV labels whose medians at the largest N must keep
    # this order: the paper's headline comparisons.
    ordering: tuple
    config: str = ""      # config file under perfbench/, if any

    @property
    def experiment(self):
        return self.command.replace("-", "_")

    @property
    def trials_per_proc(self):
        # A qst-compare trial is one (N, trial) point under both
        # protocols; a qpt-models trial is one random process with its
        # calibration and every grid point under all four models.
        if self.command == "qst-compare":
            return len(self.grid) * self.cli_trials
        return self.cli_trials

    def argv(self, cli_seed, out):
        args = [self.command, "--dim", str(self.dim),
                "--grid", ",".join(str(n) for n in self.grid),
                "--trials", str(self.cli_trials),
                "--seed", str(cli_seed), "--out", out]
        if self.config:
            args += ["--config", str(Path(HERE.name) / self.config)]
        return args


WORKLOADS = {
    # Criteria 1/2 configuration; recon.state dominates, and it never
    # runs the SPAM or process fits.
    "qst_d3": Workload("qst-compare", 3, (1_000, 10_000, 100_000, 1_000_000),
                       cli_trials=50, min_procs=10,
                       labels={"2-level": "two_level", "MUB": "mub"},
                       expected_top="recon.state",
                       ordering=(("2-level", "MUB"),)),
    # Criterion 3 configuration; the SPAM calibration fits dominate.
    "qpt_d3": Workload("qpt-models", 3, (1_000_000,), cli_trials=1,
                       min_procs=5, labels=QPT_LABELS,
                       expected_top="recon.spam",
                       ordering=QPT_ORDERING),
    # The same comparison at d = 5, where the process fit dominates and
    # the operator tensors outgrow the caches.  The default omegas list
    # three levels, so the config file gives five.
    "qpt_d5": Workload("qpt-models", 5, (1_000_000,), cli_trials=1,
                       min_procs=1, labels=QPT_LABELS,
                       expected_top="recon.process",
                       ordering=QPT_ORDERING, config="qpt_d5.json"),
}


def child_env():
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    env["PYTHONPATH"] = "src"
    return env


def spawn(result_path, mode, cli_argv):
    """Run runner.py once; return its result dict (with `error` on failure)."""
    cmd = [sys.executable, str(HERE / "runner.py"), str(result_path), "", mode,
           "--", *cli_argv]
    if result_path.exists():
        result_path.unlink()
    start = time.monotonic()
    cmd[3] = repr(start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {PROC_TIMEOUT_S:.0f} s",
                "elapsed_s": time.monotonic() - start}
    elapsed = time.monotonic() - start
    try:
        result = json.loads(result_path.read_text())
    except (OSError, json.JSONDecodeError):
        result = {"error": f"runner exited {proc.returncode} without a result: "
                           f"{proc.stderr.strip()[-500:]}"}
    result["elapsed_s"] = elapsed
    if "error" not in result and result.get("rc") != 0:
        result["error"] = (f"exit code {result.get('rc')}: "
                           f"{proc.stderr.strip()[-500:]}")
    return result


def _data_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def check_outputs(wl, csv_path, summary_path, cli_seed):
    """Rows {(label, N, trial): infidelity} of a checked output pair.

    Raises ValueError naming the first problem found.
    """
    if f"# seed: {cli_seed}" not in csv_path.read_text().splitlines():
        raise ValueError(f"{csv_path.name} does not record seed {cli_seed}")
    lines = _data_lines(csv_path)
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{csv_path.name} lacks the header {CSV_HEADER!r}")
    rows = {}
    for line in lines[1:]:
        experiment, label, dim, n_shots, trial, infid = line.split(",")
        key = (label, int(n_shots), int(trial))
        if experiment != wl.experiment or int(dim) != wl.dim:
            raise ValueError(f"unexpected row {line!r}")
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = float(infid)
    expected = {(label, n, t) for label in wl.labels for n in wl.grid
                for t in range(wl.cli_trials)}
    if set(rows) != expected:
        missing = sorted(expected - set(rows))[:3]
        extra = sorted(set(rows) - expected)[:3]
        raise ValueError(f"rows missing {missing} or unexpected {extra}")
    for key, value in rows.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"infidelity {value!r} of {key} is not in [0, 1]")

    import numpy as np

    lines = _data_lines(summary_path)
    if not lines or lines[0] != SUMMARY_HEADER:
        raise ValueError(f"{summary_path.name} lacks the header {SUMMARY_HEADER!r}")
    groups = {}
    for (label, n_shots, _), value in rows.items():
        groups.setdefault((label, n_shots), []).append(value)
    for line in lines[1:]:
        label, n_shots, *quartiles = line.split(",")
        vals = groups.get((label, int(n_shots)))
        if vals is None or not np.allclose([float(q) for q in quartiles],
                                           np.percentile(vals, [25.0, 50.0, 75.0]),
                                           rtol=1e-12, atol=0.0):
            raise ValueError(f"summary row {line!r} does not match the rows")
    if len(lines) - 1 != len(groups):
        raise ValueError("summary does not have one row per (label, N)")
    return rows


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_process(name, wl, seed, k, mode):
    """One workload process k: run, check and digest its outputs."""
    cli_seed = seed * 1000 + k
    csv_rel = Path(WORK.name) / name / f"p{k}.csv"
    csv_path = ROOT / csv_rel
    summary_path = csv_path.with_name(csv_path.stem + ".summary.csv")
    for path in (csv_path, summary_path):
        if path.exists():
            path.unlink()
    res = spawn(WORK / name / f"p{k}.{mode}.json", mode,
                wl.argv(cli_seed, str(csv_rel)))
    res.update(k=k, cli_seed=cli_seed, trials=wl.trials_per_proc)
    if "error" in res:
        return res
    try:
        res["rows"] = check_outputs(wl, csv_path, summary_path, cli_seed)
        res["csv_sha256"] = sha256(csv_path)
        res["summary_sha256"] = sha256(summary_path)
    except (OSError, ValueError) as exc:
        res["error"] = f"output check failed: {exc}"
    return res


def cache_sizes():
    """{'L2': bytes, 'L3': bytes} of the caches cpu0 uses, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def environment(procs):
    """Versions and BLAS threads as the first good process saw them, and the host."""
    env = dict(next((p["versions"] for p in procs if "versions" in p), {}))
    env["nproc"] = len(os.sched_getaffinity(0))
    env[WORKERS_ENV] = (f"unset (was {os.environ[WORKERS_ENV]!r})"
                        if WORKERS_ENV in os.environ else "unset")
    env["commit"] = git_commit()
    env.update({f"{level}_bytes": size for level, size in cache_sizes().items()})
    return env


def say(text):
    print(text, flush=True)


def describe(res):
    if "error" in res:
        return f"process {res['k']} (cli seed {res['cli_seed']}): FAILED: {res['error']}"
    return (f"process {res['k']} (cli seed {res['cli_seed']}): "
            f"{res['trials']} trials, setup {res['setup_s']:.4f} s, "
            f"wall {res['wall_s']:.4f} s, rss {res['maxrss_kb'] / 1024:.1f} MB, "
            f"csv {res['csv_sha256'][:16]} summary {res['summary_sha256'][:16]}")


def accuracy(wl, procs):
    """Median infidelity per curve at the largest N over the guard processes."""
    largest = wl.grid[-1]
    curves = {}
    for res in procs:
        for (label, n_shots, _), value in res.get("rows", {}).items():
            if n_shots == largest:
                curves.setdefault(label, []).append(value)
    return {label: statistics.median(vals) for label, vals in curves.items()}


def accuracy_guards(medians):
    """End-to-end accuracy guards from the per-curve medians.

    `best` and `worst` follow the extreme curves; the geometric mean
    weighs every curve the same, so a curve between the extremes that
    gets worse moves it too (by the 4th root of the factor with four
    curves, the square root with two).
    """
    values = list(medians.values())
    return {"infid.best": min(values), "infid.worst": max(values),
            "infid.geomean": statistics.geometric_mean(values)}


def combined_digest(procs, key):
    return hashlib.sha256("".join(p.get(key, "-") for p in procs).encode()).hexdigest()


def measure(name, wl, seed, seconds):
    """Untraced run: end-to-end metrics."""
    procs = []
    start = time.monotonic()
    while len(procs) < wl.min_procs or (
            (time.monotonic() - start) * (len(procs) + 1) / len(procs) <= seconds):
        procs.append(run_process(name, wl, seed, len(procs), "run"))
        say(describe(procs[-1]))
    good = [p for p in procs if "error" not in p]
    setups = [p["setup_s"] for p in good]
    say(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")

    guards = procs[:wl.min_procs]
    medians = accuracy(wl, guards)
    failed = sum(p["trials"] for p in procs if "error" in p)
    for better, worse in wl.ordering:
        if better in medians and worse in medians and not medians[better] < medians[worse]:
            say(f"CHECK FAILED: median infidelity of {better} "
                f"({medians[better]:.6g}) is not below {worse} ({medians[worse]:.6g})")
            failed += sum(p["trials"] for p in guards if "error" not in p)
    for label, value in sorted(medians.items()):
        say(f"infid.{wl.labels[label]} {value!r} (median at N={wl.grid[-1]}, "
            f"first {wl.min_procs} processes)")
    say(f"digest of the first {wl.min_procs} processes: "
        f"csv {combined_digest(guards, 'csv_sha256')} "
        f"summary {combined_digest(guards, 'summary_sha256')}")

    metrics = {}
    walls = [p["wall_s"] for p in procs if "wall_s" in p]
    if good and walls:
        metrics["trials_per_s"] = sum(p["trials"] for p in good) / sum(walls)
        metrics["peak_rss_mb"] = max(p["maxrss_kb"] for p in good) / 1024
        metrics["setup_s"] = statistics.median(setups)
    if len(medians) == len(wl.labels):
        metrics.update(accuracy_guards(medians))
    attempted = sum(p["trials"] for p in procs)
    return attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, procs


def layer_unit(name):
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def trace(name, wl, seed):
    """Traced run: per-layer table, tracing overhead, trace fidelity."""
    import tracing

    sums, attempted, failed, procs = {}, 0, 0, []
    wall_traced = wall_plain = 0.0
    for k in range(wl.min_procs):
        plain = run_process(name, wl, seed, k, "run")
        traced = run_process(name, wl, seed, k, "trace")
        procs += [plain, traced]
        say(describe(plain))
        say("traced " + describe(traced))
        attempted += wl.trials_per_proc
        problem = plain.get("error") or traced.get("error")
        if problem is None:
            for key in ("csv_sha256", "summary_sha256"):
                if plain[key] != traced[key]:
                    problem = f"traced and untraced {key} differ"
        if problem is None:
            proc_sums = tracing.summarize(traced["spans"], traced["counts"])
            if proc_sums["top_busy_s"] > traced["wall_s"]:
                problem = (f"layer busy time {proc_sums['top_busy_s']:.6f} s "
                           f"exceeds the wall time {traced['wall_s']:.6f} s")
        if problem is not None:
            say(f"CHECK FAILED (process {k}): {problem}")
            failed += wl.trials_per_proc
            continue
        tracing.add_sums(sums, proc_sums)
        wall_traced += traced["wall_s"]
        wall_plain += plain["wall_s"]
    if not sums:
        return attempted, failed, {}, procs

    table = tracing.layer_metrics(sums, wall_traced)
    metrics = {key: (value, layer_unit(key)) for key, value in table.items()}

    caches = ", ".join(f"{level} {size / 1024:g} KiB"
                       for level, size in cache_sizes().items())
    say(f"recon.model.bytes {table['recon.model.bytes'] / 1024:.1f} KiB per trial "
        f"(computed from array sizes); cpu0 caches: {caches}")
    shares = ", ".join(f"{layer} {table[f'{layer}.share']:.3f}"
                       for layer in tracing.TOP_LAYERS)
    say(f"shares of wall time: {shares}, cli.self {table['cli.share']:.3f}")
    top = tracing.top_layer(table)
    if top == wl.expected_top:
        say(f"share check: {top} has the largest share, as expected")
    else:
        say(f"share check: NOTICE: {top} now has the largest share "
            f"(expected {wl.expected_top})")
    for ratio, (num, base) in tracing.ratios(sums).items():
        say(f"{ratio} {num / base:.4f} ({num} of {base})")
    # A difference of two wall times: below the run-to-run noise it can
    # read 0 or less, so it is printed, not reported as a metric.
    say(f"tracing overhead {wall_traced - wall_plain:+.4f} s "
        f"({(wall_traced - wall_plain) / wall_plain:+.2%}) on "
        f"{wall_plain:.4f} s untraced")
    return attempted, failed, metrics, procs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qudittomo" / "cli.py").is_file():
        print(f"no qudittomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}")
    if args.trace:
        attempted, failed, metrics, procs = trace(args.workload, wl, args.seed)
    else:
        attempted, failed, metrics, procs = measure(args.workload, wl, args.seed,
                                                    args.seconds)
    env = environment(procs)
    say("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    say(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} trials)")
    for key, (value, unit) in metrics.items():
        say(f"{key} {value!r} {unit}")
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **report}, indent=1) + "\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

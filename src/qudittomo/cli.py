"""Command-line experiment drivers.

Four subcommands run the reference experiments at configurable scale:
`qst-compare` races the 2-level and MUB state-tomography protocols over
a sample-size grid, `qpt-models` races process-tomography models with
and without fitted SPAM corrections, `spam-fit` runs the calibration
fits on synthetic data, and `completeness` reports protocol sizes and
design-matrix ranks.  The simulated truth state or process is depolarized
by `truth_depol_p`, every gate by `gate_depol_p`; `qpt-models` and
`spam-fit` simulate thermal initialization at `temperature` over the
level energies `omegas` and cascade readout with rates (b0, b1), the
`readout.gibbs_cascade_model` that "SPAM errors model 2" fits.
`qst-compare` simulates ideal SPAM.  Every output file embeds the resolved
configuration and root seed, so at a fixed BLAS thread count a rerun
with the same inputs is byte identical (the d = 5 process fit rounds
differently at another thread count).  Set QUDITTOMO_MAX_WORKERS to run
trials in parallel; the worker count changes no byte.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import protocols, qcore, readout, recon, sim
from .circuits import sequence_unitary

WORKERS_ENV = "QUDITTOMO_MAX_WORKERS"
# largest deviation of a squared basis overlap from 1/d that still
# counts as mutually unbiased
UNBIASED_ATOL = 1e-10

CSV_HEADER = "experiment,label,dim,N,trial,infidelity"
SUMMARY_HEADER = "label,N,q25,median,q75"

# command: (experiment, default output path, help)
COMMANDS = {
    "qst-compare": ("qst_compare", "qst_compare.csv",
                    "compare 2-level and MUB state tomography over a sample-size grid"),
    "qpt-models": ("qpt_models", "qpt_models.csv",
                   "compare process-tomography models with and without SPAM corrections"),
    "spam-fit": ("spam_fit", "spam_fit.json",
                 "fit the calibration models to synthetic calibration data"),
    "completeness": ("completeness", "",
                     "report protocol sizes, gate counts and design-matrix ranks"),
}


class ConfigError(ValueError):
    """Invalid configuration file or command-line override."""


class NumericalError(RuntimeError):
    """A fit stopped without converging."""


def _finite(kind, name, value):
    """`kind(value)` for the config field `name`, which must be finite.

    No field takes a boolean, which would read as 0 or 1, and an int field
    only integral numbers: 1e6 but not 1.5, which `int` would truncate.
    """
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if isinstance(value, (bool, np.bool_)) or not (kind is float or number.is_integer()):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings of one experiment run."""

    experiment: str
    dim: int = 3
    grid: tuple = (1_000, 10_000, 100_000, 1_000_000)
    trials: int = 50
    calibration_shots: int = 1_000_000
    gate_depol_p: float = 0.001
    truth_depol_p: float = 0.01
    temperature: float = 1.0
    omegas: tuple = (0.0, 4.0, 6.0)
    b0: float = 0.01
    b1: float = 0.02
    seed: int = 0
    out: str = ""

    def __post_init__(self):
        if self.experiment not in [entry[0] for entry in COMMANDS.values()]:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        try:
            for name in ("dim", "trials", "calibration_shots", "seed"):
                object.__setattr__(self, name, _finite(int, name, getattr(self, name)))
            for name in ("gate_depol_p", "truth_depol_p", "temperature",
                         "b0", "b1"):
                object.__setattr__(self, name,
                                   _finite(float, name, getattr(self, name)))
            grid = tuple(_finite(int, "grid", n) for n in self.grid)
            omegas = tuple(_finite(float, "omegas", w) for w in self.omegas)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError("config values have the wrong types")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "omegas", omegas)
        if self.dim < 2:
            raise ConfigError(f"dim must be at least 2, got {self.dim}")
        if not grid or grid[0] < 1 or list(grid) != sorted(set(grid)):
            raise ConfigError("grid must be nonempty, positive and ascending")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.calibration_shots < 1:
            raise ConfigError("calibration_shots must be at least 1")
        for name in ("gate_depol_p", "truth_depol_p", "b0", "b1"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {val}")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["grid"] = list(self.grid)
        d["omegas"] = list(self.omegas)
        return d


def _parse_grid(text):
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(v) and v >= 1 and v == int(v) for v in values):
        raise ConfigError(f"cannot parse grid {text!r}; expected "
                          "comma-separated sample sizes")
    return tuple(int(v) for v in values)


def load_config(command, args):
    """Merge the config file and command-line overrides for one command."""
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    experiment, default_out, _ = COMMANDS[command]
    if raw.setdefault("experiment", experiment) != experiment:
        raise ConfigError(f"experiment {raw['experiment']!r} does not belong "
                          f"to command {command!r}")
    for name in ("dim", "trials", "seed", "out"):
        value = getattr(args, name)
        if value is not None:
            raw[name] = value
    if args.grid is not None:
        raw["grid"] = _parse_grid(args.grid)
    if not raw.get("out"):
        raw["out"] = default_out
    try:
        return ExperimentConfig(**raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _worker_count():
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, "
                          f"got {raw!r}")
    return cap


def _run_jobs(fn, jobs):
    # Results are reassembled and sorted by the caller, so completion
    # order does not matter; file writes stay in the parent process.
    cap = min(_worker_count(), len(jobs))
    if cap <= 1:
        return [fn(*job) for job in jobs]
    # imported here: a run without a pool need not load it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=cap) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


def _sorted_rows(chunks):
    rows = [row for chunk in chunks for row in chunk]
    return sorted(rows, key=lambda r: (r[1], r[3], r[4]))


@functools.cache
def _ideal_model(protocol):
    """The ideal-SPAM fit model of `protocol`, built once per protocol.

    Every caller shares the model, so its operators are read-only.
    """
    model = recon.build_measurement_model(protocol)
    model.operators.flags.writeable = False
    return model


def _require_converged(report, fit, label, n_shots, trial):
    """Raise NumericalError unless the `fit` report of (label, N, trial) converged."""
    if not report.converged:
        raise NumericalError(
            f"{fit} fit did not converge ({report.diagnostics['stop_reason']}, "
            f"label={label}, N={n_shots}, trial={trial})")


def _qst_point(config, n_shots, trial, noise):
    """One grid point: a fresh random state measured under both protocols.

    The state is Haar random, depolarized by `config.truth_depol_p`.
    """
    dim, seed = config.dim, config.seed
    rng = qcore.make_rng(seed, f"qst-truth-{n_shots}", trial)
    truth = qcore.depolarize(qcore.projector(qcore.haar_state(dim, rng)),
                             config.truth_depol_p)
    rows = []
    # both protocols are cached by dimension; every point still asks for
    # them, which is where perfbench/tracing.py opens a trial
    for label, protocol in (("2-level", protocols.qst_two_level(dim)),
                            ("MUB", protocols.mub_protocol(dim))):
        data = sim.run_protocol(
            protocol, truth, noise, n_shots,
            seed=qcore.derive_seed(seed, f"qst-counts-{label}-{n_shots}", trial))
        model = _ideal_model(protocol)
        # Truth states here are near pure, where the full-rank maximizer
        # spills weight onto spurious eigenvectors at small N; a rank-1
        # fit kept unless the likelihood ratio rejects it removes that
        # boundary bias without touching the large-N regime.  The pure
        # fit runs first, so the full fit can stop once its certified
        # bound shows the rank test keeps the pure fit; the selection is
        # the same as after a full run.
        pure = recon.mle_state_pure(data, model)
        full = recon.mle_state(data, model, pure=pure)
        report = recon.select_rank(full, pure)
        _require_converged(report, "state", label, n_shots, trial)
        rows.append(("qst_compare", label, dim, n_shots, trial,
                     qcore.infidelity(report.estimate, truth, check=False)))
    return rows


def run_qst_compare(config):
    """State-protocol comparison; returns canonically sorted result rows."""
    try:
        protocols.mub_bases(config.dim)
    except ValueError as exc:
        raise ConfigError(str(exc))
    noise = sim.NoiseConfig(gate_depol_p=config.gate_depol_p)
    jobs = [(config, n, t, noise)
            for n in config.grid for t in range(config.trials)]
    return _sorted_rows(_run_jobs(_qst_point, jobs))


def _qpt_trial(config, trial, noise, clicks):
    """One trial: a fresh random process, one calibration, all grid points.

    The process is a Haar-random unitary depolarized by
    `config.truth_depol_p`; `noise` and `clicks` come from `_full_noise`.
    """
    dim, seed = config.dim, config.seed
    rng = qcore.make_rng(seed, "qpt-truth", trial)
    truth = qcore.choi_depolarize(
        qcore.choi_from_unitary(qcore.haar_unitary(dim, rng)),
        config.truth_depol_p)
    # the protocol is cached by dimension; every trial still asks for
    # it first, which is where perfbench/tracing.py opens a trial
    protocol = protocols.qpt_two_level(dim)
    general, gibbs = _calibrate(config, noise, clicks, "qpt", trial)
    _require_converged(general, "general calibration", "SPAM errors model 1",
                       config.calibration_shots, trial)
    _require_converged(gibbs, "thermal calibration", "SPAM errors model 2",
                       config.calibration_shots, trial)
    thermal = gibbs.estimate
    spams = (("Ideal model", None),
             ("True model", noise.spam),
             ("SPAM errors model 1", general.estimate),
             ("SPAM errors model 2", readout.gibbs_cascade_model(
                 dim, thermal["temperature"], config.omegas, thermal["b0"],
                 thermal["b1"])))
    # only the Ideal model is cached: a SPAM model compares by identity
    models = [(label, _ideal_model(protocol) if spam is None
               else recon.build_measurement_model(protocol, spam=spam))
              for label, spam in spams]

    rows = []
    for n_shots in config.grid:
        data = sim.run_protocol(
            protocol, truth, noise, n_shots,
            seed=qcore.derive_seed(seed, f"qpt-counts-{n_shots}", trial))
        for label, model in models:
            report = recon.mle_process(data, model)
            _require_converged(report, "process", label, n_shots, trial)
            rows.append(("qpt_models", label, dim, n_shots, trial,
                         1.0 - qcore.process_fidelity(report.estimate, truth)))
    return rows


def _calibrate(config, noise, clicks, stream, trial=0):
    """Reports of the general and thermal calibration fits, converged or not.

    Their data come from the streams (seed, f"{stream}-calibration",
    trial) and (seed, f"{stream}-level-reads", trial).
    """
    calibration = sim.run_protocol(
        protocols.spam_calibration_circuits(config.dim), None, noise,
        config.calibration_shots,
        seed=qcore.derive_seed(config.seed, f"{stream}-calibration", trial))
    general = recon.estimate_spam_general(calibration,
                                          gate_depol_p=config.gate_depol_p)
    reads = sim.simulate_level_reads(
        clicks, config.calibration_shots,
        seed=qcore.derive_seed(config.seed, f"{stream}-level-reads", trial))
    return general, recon.estimate_spam_gibbs(reads, np.asarray(config.omegas))


def _full_noise(config):
    """The simulated noise and the click probabilities of the level reads.

    SPAM is thermal initialization at `temperature` over the level energies
    `omegas`, read out by the cascade with rates (b0, b1).
    """
    dim = config.dim
    try:
        spam = readout.gibbs_cascade_model(dim, config.temperature, config.omegas,
                                           config.b0, config.b1)
    except ValueError as exc:
        raise ConfigError(str(exc))
    clicks = readout.level_clicks(spam.populations, config.b0, config.b1)
    return sim.NoiseConfig(gate_depol_p=config.gate_depol_p, spam=spam), clicks


def run_qpt_models(config):
    """Process-model comparison; returns canonically sorted result rows."""
    noise, clicks = _full_noise(config)
    jobs = [(config, t, noise, clicks) for t in range(config.trials)]
    return _sorted_rows(_run_jobs(_qpt_trial, jobs))


def run_spam_fits(config):
    """Calibration fits on synthetic data; returns the JSON report."""
    noise, clicks = _full_noise(config)
    dim = config.dim
    report = {
        "experiment": config.experiment,
        "config": config.to_dict(),
        "seed": config.seed,
        "truth": {
            "populations": noise.spam.populations.tolist(),
            "response": noise.spam.response.tolist(),
            "temperature": config.temperature,
            "b0": config.b0,
            "b1": config.b1,
        },
    }
    # an unconverged fit is reported, through its "converged" field
    general, gibbs = _calibrate(config, noise, clicks, "spam")
    true_probs = sim.outcome_probabilities(
        protocols.spam_calibration_circuits(dim), None, noise)
    for key, fit, predicted, truth in (
            ("spam_general", general, "predicted_probs", true_probs),
            ("spam_gibbs", gibbs, "predicted_click_probs", clicks)):
        report[key] = fit.to_dict()
        report[key]["predictive_residual"] = float(
            np.max(np.abs(fit.diagnostics[predicted] - truth)))
    return report


def _pairwise_unbiased(protocol):
    """True when the measurement bases are pairwise mutually unbiased."""
    target = 1.0 / protocol.dim
    mats = [sequence_unitary(c.meas, protocol.dim) for c in protocol.circuits]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlaps = np.abs(mats[i] @ qcore.dagger(mats[j])) ** 2
            if np.max(np.abs(overlaps - target)) > UNBIASED_ATOL:
                return False
    return True


def run_completeness(config):
    """Protocol sizes, gate counts and ranks; returns the JSON report."""
    dim = config.dim
    report = {"experiment": config.experiment, "config": config.to_dict(),
              "seed": config.seed}
    qst = protocols.qst_two_level(dim)
    for key, protocol, target in (("qst", qst, dim ** 2),
                                  ("qpt", protocols.qpt_two_level(dim), dim ** 4)):
        rank, complete = recon.completeness_check(protocol)
        counts = [c.gate_count for c in protocol.circuits]
        report[key] = {"circuits": len(protocol), "gate_counts": counts,
                       "max_gates": max(counts), "rank": int(rank),
                       "rank_target": target, "complete": bool(complete)}
    report["qst"]["mub_equivalent"] = _pairwise_unbiased(qst)
    report["qpt"]["preparations"] = len(protocols.qpt_preparations(dim))
    return report


def _config_lines(config):
    blob = json.dumps(config.to_dict(), sort_keys=True)
    return [f"# experiment: {config.experiment}",
            f"# config: {blob}",
            f"# seed: {config.seed}"]


def _write_text(path, text):
    """Write `text` to `path`, making its parent directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_rows(path, config, rows):
    lines = _config_lines(config) + [CSV_HEADER]
    for experiment, label, dim, n_shots, trial, infid in rows:
        lines.append(f"{experiment},{label},{dim},{n_shots},{trial},"
                     f"{float(infid)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _linear_quantile(ordered, q):
    """Quantile q of the ascending list `ordered`, as `np.percentile` gives it.

    numpy's default "linear" method, with its arithmetic, so its bits:
    interpolate between the neighbours of position q (n - 1), from the
    nearer one (numpy's `_lerp`).  Ties sort stably here, so only a zero
    quartile between tied -0.0 and 0.0 can differ, in its sign.
    `np.percentile` itself imports numpy.ma on its first call, which
    costs more than a whole summary.
    """
    last = len(ordered) - 1
    pos = last * q
    if pos < last:
        lo = math.floor(pos)
        hi = lo + 1
    else:
        # at or past the last position numpy takes index -1 for both
        lo = hi = -1
    a, b = ordered[lo], ordered[hi]
    t = pos - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summarize(rows):
    """Quartiles of infidelity per (label, N), in canonical order."""
    groups = {}
    for _, label, _, n_shots, _, infid in rows:
        groups.setdefault((label, n_shots), []).append(float(infid))
    table = []
    for (label, n_shots), vals in sorted(groups.items()):
        # a NaN makes every quartile NaN, as in np.percentile
        ordered = [math.nan] if any(map(math.isnan, vals)) else sorted(vals)
        q25, med, q75 = (_linear_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
        table.append((label, n_shots, q25, med, q75))
    return table


def write_summary(path, config, rows):
    lines = _config_lines(config) + [SUMMARY_HEADER]
    for label, n_shots, q25, med, q75 in summarize(rows):
        lines.append(f"{label},{n_shots},{q25!r},{med!r},{q75!r}")
    _write_text(path, "\n".join(lines) + "\n")


def summary_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".summary.csv")


def _write_csv_outputs(config, rows):
    out = Path(config.out)
    write_rows(out, config, rows)
    side = summary_path(out)
    write_summary(side, config, rows)
    print(f"wrote {len(rows)} rows to {out}")
    print(f"wrote summary to {side}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qudittomo",
        description="Seeded qudit tomography experiments with CSV/JSON output.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--dim", type=int, help="qudit dimension")
        p.add_argument("--trials", type=int, help="trials per grid point")
        p.add_argument("--grid",
                       help="comma-separated sample sizes, e.g. 1000,1000000")
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--out", help="output path")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.command, args)
        if args.command == "qst-compare":
            _write_csv_outputs(config, run_qst_compare(config))
        elif args.command == "qpt-models":
            _write_csv_outputs(config, run_qpt_models(config))
        elif args.command == "spam-fit":
            report = run_spam_fits(config)
            out = Path(config.out)
            _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"general fit residual vs truth: "
                  f"{report['spam_general']['predictive_residual']:.3e}")
            est = report["spam_gibbs"]["estimate"]
            print(f"gibbs fit: T={est['temperature']:.4f} "
                  f"b0={est['b0']:.5f} b1={est['b1']:.5f}")
            print(f"wrote report to {out}")
        else:
            report = run_completeness(config)
            text = json.dumps(report, indent=2, sort_keys=True)
            print(text)
            if config.out:
                _write_text(config.out, text + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans for the qudittomo benchmark, recorded from outside the package.

`Tracer.install` replaces public functions of `protocols`, `sim` and
`recon` with wrappers that record one span per call: name, start, end,
parent span and trial.  The CLI reaches these functions through module
attributes, and inside the package `run_protocol` finds
`circuit_probabilities` and `mle_process` finds `project_cptp` through
module globals, so replacing the attribute catches every call without
changing the program.  Spans stay in memory until the run ends.

`qcore`, `circuits` and `readout` get no spans of their own: they run
inside the spans of their callers, or in the CLI's self time when the
CLI calls them directly.

`summarize` turns the spans of one process into additive sums, and
`layer_metrics` turns sums over processes into the per-layer table.
"""

import functools
import time

# Span names grouped into the layers the benchmark reports.
LAYERS = {
    "protocols": ("protocols.qst_two_level", "protocols.mub_protocol",
                  "protocols.qpt_two_level",
                  "protocols.spam_calibration_circuits"),
    "sim": ("sim.run_protocol", "sim.simulate_level_reads"),
    "recon.model": ("recon.build_measurement_model",),
    "recon.state": ("recon.mle_state", "recon.mle_state_pure",
                    "recon.select_rank"),
    "recon.process": ("recon.mle_process",),
    "recon.cptp": ("recon.project_cptp",),
    "recon.spam": ("recon.estimate_spam_general", "recon.estimate_spam_gibbs"),
}
# Layers whose spans the CLI opens directly; `recon.cptp` runs inside
# `recon.process` and is reported as part of it.
TOP_LAYERS = ("protocols", "sim", "recon.model", "recon.state",
              "recon.spam", "recon.process")
# Called once per circuit, so counted rather than spanned.
COUNTED = ("sim.circuit_probabilities",)


def _selected_pure(args, kwargs, result):
    pure = kwargs["pure"] if "pure" in kwargs else args[1]
    return int(result is pure)


# Value recorded with a span, computed from the call and its result.
OBSERVERS = {
    "recon.build_measurement_model": lambda a, kw, r: int(r.operators.nbytes),
    "recon.mle_state": lambda a, kw, r: int(r.iterations),
    "recon.mle_state_pure": lambda a, kw, r: int(r.iterations),
    "recon.mle_process": lambda a, kw, r: int(r.iterations),
    "recon.select_rank": _selected_pure,
}


class Tracer:
    """Records spans of the wrapped functions of one process.

    A top-level call of `trial_marker` opens a new trial: every trial of
    `qst-compare` starts by building `qst_two_level`, and every trial of
    `qpt-models` by building `qpt_two_level`.
    """

    def __init__(self, trial_marker):
        self.spans = []  # [name, start, end, parent index or -1, trial, value]
        self.counts = dict.fromkeys(COUNTED, 0)
        self._marker = trial_marker
        self._stack = []
        self._trial = -1

    def install(self, modules):
        """Wrap the traced functions; `modules` maps 'sim' etc. to modules."""
        for names in LAYERS.values():
            for name in names:
                self._replace(modules, name, self._spanned)
        for name in COUNTED:
            self._replace(modules, name, self._counted)

    def _replace(self, modules, name, make_wrapper):
        prefix, attr = name.rsplit(".", 1)
        module = modules[prefix]
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(make_wrapper(name, original)))

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        observe = OBSERVERS.get(name)
        opens_trial = name == self._marker
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if opens_trial and not stack:
                self._trial += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result
        return wrapper


def summarize(spans, counts):
    """Additive per-layer sums of one process's spans."""
    layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
    sums = {key: 0 for layer in LAYERS for key in (f"{layer}.calls", f"{layer}.busy_s")}
    sums.update({"sim.circuits": sum(counts.values()), "top_busy_s": 0.0,
                 "recon.model.bytes_total": 0, "recon.state.iters": 0,
                 "recon.state.selects": 0, "recon.state.pure_kept": 0,
                 "recon.process.iters": 0, "recon.process.cptp_calls": 0,
                 "recon.process.cptp_s": 0.0, "recon.spam.general_s": 0.0,
                 "recon.spam.gibbs_s": 0.0})
    trials = set()
    for name, start, end, parent, trial, value in spans:
        layer = layer_of[name]
        duration = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        sums[f"{layer}.calls"] += 1
        if parent_name is None or layer_of[parent_name] != layer:
            sums[f"{layer}.busy_s"] += duration
        if parent_name is None:
            sums["top_busy_s"] += duration
        if trial >= 0:
            trials.add(trial)
        if name == "recon.build_measurement_model":
            sums["recon.model.bytes_total"] += value
        elif name in ("recon.mle_state", "recon.mle_state_pure"):
            sums["recon.state.iters"] += value
        elif name == "recon.select_rank":
            sums["recon.state.selects"] += 1
            sums["recon.state.pure_kept"] += value
        elif name == "recon.mle_process":
            sums["recon.process.iters"] += value
        elif name == "recon.project_cptp" and parent_name == "recon.mle_process":
            sums["recon.process.cptp_calls"] += 1
            sums["recon.process.cptp_s"] += duration
        elif name == "recon.estimate_spam_general":
            sums["recon.spam.general_s"] += duration
        elif name == "recon.estimate_spam_gibbs":
            sums["recon.spam.gibbs_s"] += duration
    sums["trials"] = len(trials)
    return sums


def add_sums(total, sums):
    for key, value in sums.items():
        total[key] = total.get(key, 0) + value


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(sums, wall_s):
    """Per-layer table from summed spans and the traced workload wall time.

    Every value is a count, a time, bytes or a share of the wall time,
    so a layer that a workload never calls reads 0.  Ratios whose base
    can be 0 are left to `ratios`.
    """
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sums[f"{layer}.calls"]
        out[f"{layer}.busy_s"] = sums[f"{layer}.busy_s"]
    for layer in TOP_LAYERS:
        out[f"{layer}.share"] = sums[f"{layer}.busy_s"] / wall_s
    out["sim.circuits"] = sums["sim.circuits"]
    # Operator bytes built per trial, computed from array sizes: the
    # working set the fits sweep, to compare with the cache sizes.
    out["recon.model.bytes"] = _ratio(sums["recon.model.bytes_total"], sums["trials"])
    out["recon.state.iters"] = sums["recon.state.iters"]
    out["recon.state.pure_kept"] = sums["recon.state.pure_kept"]
    out["recon.process.iters"] = sums["recon.process.iters"]
    out["recon.process.self_s"] = (sums["recon.process.busy_s"]
                                   - sums["recon.process.cptp_s"])
    out["recon.spam.general_s"] = sums["recon.spam.general_s"]
    out["recon.spam.gibbs_s"] = sums["recon.spam.gibbs_s"]
    out["cli.self_s"] = wall_s - sums["top_busy_s"]
    out["cli.share"] = out["cli.self_s"] / wall_s
    return out


def ratios(sums):
    """{name: (numerator, base)} of the useful-work ratios whose base is not 0.

    `recon.state.pure_ratio` is the share of `select_rank` calls that keep
    the rank-1 fit; `recon.process.accept_ratio` is the process-fit
    iterations per `project_cptp` call made inside `mle_process`.
    """
    pairs = {"recon.state.pure_ratio": (sums["recon.state.pure_kept"],
                                        sums["recon.state.selects"]),
             "recon.process.accept_ratio": (sums["recon.process.iters"],
                                            sums["recon.process.cptp_calls"])}
    return {name: pair for name, pair in pairs.items() if pair[1]}


def top_layer(metrics):
    """Layer with the largest share of the wall time."""
    return max(TOP_LAYERS, key=lambda layer: metrics[f"{layer}.share"])

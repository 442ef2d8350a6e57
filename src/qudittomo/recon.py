"""Maximum-likelihood reconstruction from tomography counts.

A reconstruction model pairs each circuit with effective measurement
operators computed from assumed preparation and readout (ideal by
default, or any DiagonalSpamModel), each distinct preparation and
setting evolved once, on the code path that also gives the simulator its
model; the state and process fits use it only as a real design matrix
A, through A x and A^T w, and `completeness_check` takes its rank.
Both state fits, the full-rank one and its rank-1 restriction, run one
diluted fixed-point ascent ("Diluted maximum-likelihood algorithm for
quantum tomography", Rehacek, Hradil, Knill & Lvovsky 2007).  Processes
are fitted by accelerated (FISTA) projected gradient ascent on the Choi
matrix, started at the projected least-squares estimate ("Projected
least squares quantum process tomography", Surawy-Stepney, Kahn, Kueng
& Guta 2022), which stops once a certified bound puts it within
PROCESS_TOL log-likelihood units of the maximum, or, where that bound
does not apply (a probability on PROB_FLOOR), once a step gains little;
no other stop counts as converged.  Its projection is the exact Euclidean
projection onto the CPTP set, computed by a Newton solve for a d x d
Lagrange multiplier of the trace-preservation constraint that starts
from a first-order prediction made by the fit's previous solve.  SPAM
calibration parameters come from structured solves: a closed form for
the general diagonal model, whose member of the flat set below is found
by a log-barrier Newton path and a vertex polish that certifies it, and
a profile likelihood for the thermal one, whose inner (b0, b1) problems
are solved by one batched projected Newton method and whose maximum in
log T is refined by secant steps on its slope.  The general fit takes
the action of its calibration circuits on diagonal states from the same
measurement model, one start level at a time, and accepts only data
labelled as those circuits.  All five fits share one input check and
one report builder, which derives the likelihood, residual and
convergence of a report from the table of probabilities its estimate
predicts.  Every solver here, the chi-squared quantile of
the rank test included, is written on numpy and the standard library.

The general diagonal model has d^2 - 1 parameters, but its d
calibration circuits determine only d(d - 1) frequencies, so its
maximum-likelihood fits form a flat set of dimension d - 1.  Moving a
depolarizing factor between preparation and readout
(`readout.gauge_transform`) is one direction of that set; only the
predicted probabilities are identified, not (a, B) themselves.
`estimate_spam_general` returns the member of the set with the largest
tr B.  The thermally constrained fit has no flat direction at d >= 3,
which is what makes it useful; at d = 2 it is not identified either.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import protocols, qcore, readout
from .circuits import gate_unitary

PROB_FLOOR = 1e-12
# weight of the current iterate in each step of the state fits
DILUTION = 0.1
# level of `select_rank`'s likelihood-ratio test, which the early rank
# decision of `mle_state` certifies against
RANK_SIGNIFICANCE = 0.95
# per-shot gain below which the process fit stops while its gap bound
# does not apply (a probability on PROB_FLOOR)
FLOOR_GAIN = 1e-10
# weight of I/d mixed into the least-squares start of the process fit,
# and the relative normal-equation residual at which that solve stops
START_MIX = 1e-3
LSTSQ_TOL = 1e-13
# box bound of the thermal readout rates (b0, b1), the per-shot gain
# below which their Newton solve stops, and its iteration cap
RATE_MAX = 0.5
RATE_GAIN = 1e-15
RATE_MAX_ITER = 200
# stop rules of the thermal fit's refinement in log T: the profile slope
# per shot, the step in log T, and the profile evaluations
SLOPE_TOL = 1e-12
LOG_TEMP_TOL = 1e-10
REFINE_MAX_ITER = 100
# stop rules of the CPTP projection (residual max|Tr_out J - I|, Newton
# steps), the EM readout fit and the state fits (per-shot gain,
# iterations), and the process fit (`_optimality_gap`, iterations)
CPTP_TOL = 1e-12
CPTP_MAX_ITER = 50
EM_TOL = 1e-12
EM_MAX_ITER = 10000
STATE_TOL = 1e-10
STATE_MAX_ITER = 10000
PROCESS_TOL = 0.5
PROCESS_MAX_ITER = 10000
# log-barrier path of the general calibration fit: the first barrier
# weight, its growth per centering and the weight past which the path
# ends; a centering stops at half a squared Newton decrement of
# CENTER_TOL or after CENTER_MAX_ITER steps
BARRIER_T0 = 1e3
BARRIER_GROWTH = 30.0
BARRIER_T_MAX = 1e14
CENTER_TOL = 1e-10
CENTER_MAX_ITER = 100
# Newton solve of the vertex that polishes that path: residual, steps
VERTEX_TOL = 1e-14
VERTEX_MAX_ITER = 20


@dataclass
class FitReport:
    """Outcome of one maximum-likelihood fit.

    `estimate` is the fitted object: a density matrix, a Choi matrix, a
    DiagonalSpamModel, or a parameter dict, depending on the fitter.
    `max_residual` is the largest |model probability - observed frequency|
    over circuits that received shots.
    """

    estimate: object
    log_likelihood: float
    iterations: int
    converged: bool
    max_residual: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "estimate": _jsonify(self.estimate),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "max_residual": self.max_residual,
            "diagnostics": _jsonify(self.diagnostics),
        }


def _jsonify(obj):
    if isinstance(obj, readout.DiagonalSpamModel):
        return obj.to_dict()
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class MeasurementModel:
    """Effective measurement operators of a protocol under assumed SPAM.

    `operators` is stacked (n_circuits, n_outcomes, D, D), each
    rho_i^T (x) P_ik, and probabilities are Tr(J A_ik): for process
    tomography D = d^2 and J is the Choi matrix; a state is the process
    with the one-dimensional input rho_i = 1, so D = d and J = rho.

    The operators are Hermitian, so Re Tr(A x) = sum_ij (Re A_ij Re x_ij
    + Im A_ij Im x_ij) for any x: with `matrix`, one real row per outcome,
    probabilities are one matrix-vector product, and so is its adjoint
    `weighted_sum`, which gives the gradients of the fits.
    """

    kind: str
    dim: int
    labels: tuple
    operators: np.ndarray

    @property
    def n_circuits(self):
        return len(self.labels)

    @property
    def n_outcomes(self):
        return self.operators.shape[1]

    @functools.cached_property
    def matrix(self):
        """Real (n_circuits * n_outcomes, 2 D^2) view of `operators`, no copy."""
        dd = self.operators.shape[-1]
        return self.operators.reshape(-1, dd * dd).view(np.float64)

    def probabilities(self, x):
        """Outcome probability table (n_circuits, n_outcomes): Re Tr(A_ik x)."""
        x = np.ascontiguousarray(x, dtype=complex)
        p = self.matrix @ x.reshape(-1).view(np.float64)
        return p.reshape(self.n_circuits, self.n_outcomes)

    def weighted_sum(self, w):
        """sum_n w_n A_n for real weights w, one per row of `matrix`."""
        dd = self.operators.shape[-1]
        return (w @ self.matrix).view(complex).reshape(dd, dd)


def build_measurement_model(protocol, spam=None, gate_depol_p=0.0):
    """Effective operators of `protocol` under an assumed SPAM model.

    `spam` is a DiagonalSpamModel or None for ideal preparation/readout.
    Each distinct preparation and setting is evolved once, gate by gate,
    the settings in the Heisenberg picture, with a depolarizing factor
    `gate_depol_p` folded in after every gate.  The simulator
    (`sim.outcome_probabilities`) uses the known gate noise; the fits use
    the default 0, which depolarizes nothing and takes the gates as
    ideal, so only SPAM enters their model.  A state-tomography circuit
    prepares the one-dimensional input 1, not the initial state.
    """
    dim = protocol.dim
    model = readout.ideal_spam_model(dim) if spam is None else spam
    if model.dim != dim:
        raise ValueError(f"SPAM dimension {model.dim} != protocol dimension {dim}")
    if not 0.0 <= gate_depol_p <= 1.0:
        raise ValueError(f"gate_depol_p must lie in [0, 1], got {gate_depol_p}")
    qst = protocol.kind == "qst"
    rho0 = np.ones((1, 1)) if qst else model.initial_state()
    povm = model.povm()
    n_out = povm.shape[0]
    dd = rho0.shape[0] * dim
    ops = np.zeros((len(protocol.circuits), n_out, dd, dd), dtype=complex)
    # a protocol repeats its settings and preparations across circuits, so
    # each distinct gate tuple is evolved once
    settings, preparations = {}, {}
    for c, circuit in enumerate(protocol.circuits):
        effects = settings.get(circuit.meas)
        if effects is None:
            effects = povm
            for g in reversed(circuit.meas):
                u = gate_unitary(g, dim)
                effects = qcore.dagger(u) @ qcore.depolarize(effects, gate_depol_p) @ u
            settings[circuit.meas] = effects
        if qst and circuit.prep:
            raise ValueError(
                f"state-tomography circuit {circuit.label!r} has prep gates")
        rho_i = preparations.get(circuit.prep)
        if rho_i is None:
            rho_i = rho0
            for g in circuit.prep:
                u = gate_unitary(g, dim)
                rho_i = qcore.depolarize(u @ rho_i @ qcore.dagger(u), gate_depol_p)
            preparations[circuit.prep] = rho_i
        # kron(rho_i^T, E_k) for every outcome k in one broadcast product
        ops[c] = (rho_i.T[None, :, None, :, None]
                  * effects[:, None, :, None, :]).reshape(n_out, dd, dd)
    labels = tuple(c.label for c in protocol.circuits)
    return MeasurementModel(protocol.kind, dim, labels, ops)


def completeness_check(protocol):
    """Numerical informational completeness of a protocol.

    Returns (rank, complete): the numerical rank (relative tolerance
    1e-8) of the real design matrix `matrix` of the ideal-SPAM
    `build_measurement_model(protocol)`, one row per outcome of the
    D x D operators rho_i^T (x) P_ik.  A protocol is complete when the
    rank reaches D^2, d^2 for states and d^4 for processes: the
    operators are Hermitian, so the real rows span a space of the same
    dimension as the complex operators.
    """
    design = build_measurement_model(protocol).matrix
    svals = np.linalg.svd(design, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    return rank, rank == design.shape[1] // 2


def _checked_counts(data, shape):
    """Float counts of `data`, checked to have `shape` and some shots."""
    if data.counts.shape != shape:
        raise ValueError(
            f"counts shape {data.counts.shape} does not match {shape}")
    if data.counts.sum() <= 0:
        raise ValueError("dataset contains no counts")
    return np.asarray(data.counts, dtype=float)


def _fit_counts(data, model, kind):
    """Flat float counts of `data`, checked against a `kind` model."""
    if model.kind != kind:
        raise ValueError(f"expected a {kind!r} model, got {model.kind!r}")
    if tuple(data.labels) != tuple(model.labels):
        raise ValueError("dataset circuits do not match the model circuits")
    return _checked_counts(data, (model.n_circuits, model.n_outcomes)).ravel()


def _floored_probs(model, x):
    """Flat `model.probabilities(x)` floored at PROB_FLOOR, for a complex x."""
    return np.maximum(model.matrix @ x.reshape(-1).view(np.float64), PROB_FLOOR)


def _hermitian_sum(model, w):
    """Hermitian part of sum_n w_n A_n over the model's outcomes."""
    s = model.weighted_sum(w)
    return (s + qcore.dagger(s)) / 2


def _optimality_gap(model, x, p, counts):
    """Certified bound on ll* - ll at a feasible `x`, or None on PROB_FLOOR.

    `x` is a Choi matrix (positive, Tr_out x = I) of `model` with a
    dim_in-dimensional input: a process, or at dim_in = 1 a state.
    ll = sum_n c_n log p_n with p_n = Tr(A_n x) = `p` is concave with
    gradient G = sum_n (c_n / p_n) A_n, and Tr(G x) = N shots, so for
    any Hermitian L and feasible y,
    ll(y) - ll <= Tr(G y) - N <= Tr L + dim_in lambda_max(G - L (x) I) - N
    ("Convex Optimization", Boyd & Vandenberghe 2004, ch. 5).  L is the
    Hermitian part of Tr_out(G x), which makes the bound 0 at the maximum,
    and the result is floored at 0.  Tr(G x) = N needs every p_n unclipped,
    so while one of `p` sits on PROB_FLOOR the result is None.
    """
    if p.min() <= PROB_FLOOR:
        return None
    g = _hermitian_sum(model, counts / p)
    d_out = model.dim
    dim_in = x.shape[0] // d_out
    lam = np.einsum("iaja->ij", (g @ x).reshape(dim_in, d_out, dim_in, d_out))
    lam = (lam + qcore.dagger(lam)) / 2
    # L (x) I by broadcasting: the products of np.kron, at less overhead
    shift = (lam[:, None, :, None] * np.eye(d_out)[None, :, None, :]).reshape(x.shape)
    top = np.linalg.eigvalsh(g - shift)[-1]
    return max(float(lam.trace().real + dim_in * top - counts.sum()), 0.0)


def _fit_report(estimate, probs, data, iterations, stop_reason, diagnostics):
    """FitReport of an estimate that predicts the outcome table `probs`.

    Its log-likelihood is sum_n c_n log max(p_n, PROB_FLOOR), its residual
    max |p - f| over the circuits that got shots (inf when none did); it
    has converged only if `stop_reason` is "tol".
    """
    counts = np.asarray(data.counts, dtype=float).ravel()
    ll = float(counts @ np.log(np.maximum(probs, PROB_FLOOR).ravel()))
    mask = data.shots > 0
    residual = (float(np.max(np.abs(probs[mask] - data.frequencies()[mask])))
                if mask.any() else np.inf)
    return FitReport(estimate=estimate, log_likelihood=ll, iterations=iterations,
                     converged=stop_reason == "tol", max_residual=residual,
                     diagnostics={**diagnostics, "stop_reason": stop_reason})


def _diluted_ascent(model, counts, x, probs_of, candidate, mix, early_stop=None):
    """Diluted fixed-point ascent of the log-likelihood sum_n c_n log p_n.

    Each iteration forms R = sum_n (c_n / p_n) A_n at the iterate x by one
    unsymmetrized `weighted_sum`, the fixed-point image `candidate(R, x)`,
    and the step `mix(step, cand, x)` from step = 1 - DILUTION, halved
    while it would lower the likelihood, so the trace is non-decreasing.
    Stops with "tol" when the gain drops below STATE_TOL per shot,
    "stalled" when no halved step ascends, "pure_kept" when
    `early_stop(iteration, x, p, ll)` is true, or "max_iter" after
    STATE_MAX_ITER iterations.  Returns (x, p, trace, iterations, stop_reason).
    """
    min_gain = STATE_TOL * max(counts.sum(), 1.0)
    p = probs_of(x)
    ll = float(counts @ np.log(p))
    trace = [ll]
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, STATE_MAX_ITER + 1):
        if early_stop is not None and early_stop(iterations, x, p, ll):
            stop_reason = "pure_kept"
            break
        cand = candidate(model.weighted_sum(counts / p), x)
        step = 1.0 - DILUTION
        x_new = mix(step, cand, x)
        p_new = probs_of(x_new)
        ll_new = float(counts @ np.log(p_new))
        while ll_new < ll and step > 1e-8:
            step /= 2.0
            x_new = mix(step, cand, x)
            p_new = probs_of(x_new)
            ll_new = float(counts @ np.log(p_new))
        if ll_new < ll:
            stop_reason = "stalled"
            break
        gain = ll_new - ll
        x, p, ll = x_new, p_new, ll_new
        trace.append(ll)
        if gain < min_gain:
            stop_reason = "tol"
            break
    return x, p, trace, iterations, stop_reason


def mle_state(data, model, pure=None):
    """Maximum-likelihood state estimate by the diluted R rho R iteration.

    Iterates rho <- (1 - DILUTION) * N[R rho R] + DILUTION * rho with
    R = sum_ik (n_ik / p_ik) B_ik, which keeps the iterate a valid state
    (Rehacek, Hradil, Knill & Lvovsky 2007), folding the normalization
    into the step: rho <- (step / tau) R rho R^H + (1 - step) rho, with
    R rho R^H and its trace tau formed once per iteration.  The iterates
    are Hermitian up to rounding; the estimate is symmetrized once, after
    the loop.  A step that would lower the log-likelihood is pulled toward
    the iterate until it does not, so the trace is non-decreasing.  Stops with
    `stop_reason` "tol" when the gain drops below STATE_TOL per shot,
    "stalled" when no pulled-back step ascends, or "max_iter" after
    STATE_MAX_ITER iterations; only "tol" counts as converged.

    The model takes the gates as ideal unless it was built with
    `gate_depol_p`.  So at large N the ideal-gate fit of the deep MUB
    circuits is limited by unmodelled gate noise: in the criterion 1
    configuration (d = 3, N = 1e6) a fit that knows the gate noise brings
    the MUB median infidelity from 7.4e-4 to 1.43e-4, below the two-level
    curve.  The large-N crossover of the two protocols measures
    robustness to that unmodelled noise.

    `diagnostics["gap_bound"]` holds `_optimality_gap` at the estimate.

    Early rank decision: given `pure`, the `mle_state_pure` report of the
    same data, the fit stops ("pure_kept", not converged) as soon as
    `_optimality_gap` proves that `select_rank(full, pure)` keeps `pure`,
    checked every 4th iteration.  The check does not change the iterates, so a
    fit that is not stopped early returns the same bytes as without
    `pure`, and `select_rank` returns the same pure report as after a
    full run.
    """
    counts = _fit_counts(data, model, "qst")

    def early_stop(iteration, rho, p, ll):
        # ll never falls: once it fails the rank test, no bound can pass
        if pure is None or iteration % 4 != 1 or not _keeps_pure(ll, pure):
            return False
        gap = _optimality_gap(model, rho, p, counts)
        return gap is not None and _keeps_pure(ll + gap, pure)

    def candidate(r, rho):
        # R rho R^H and its trace Tr(R^H R rho), which the step divides out
        r_rho = r @ rho
        return r_rho @ r.conj().T, np.vdot(r, r_rho).real

    rho, p, trace, iterations, stop_reason = _diluted_ascent(
        model, counts, np.eye(model.dim, dtype=complex) / model.dim,
        functools.partial(_floored_probs, model), candidate,
        lambda step, cand, rho: (step / cand[1]) * cand[0] + (1.0 - step) * rho,
        early_stop)
    rho = (rho + qcore.dagger(rho)) / 2
    gap = _optimality_gap(model, rho, p, counts)
    return _fit_report(rho, model.probabilities(rho), data, iterations,
                       stop_reason, {"loglik_trace": np.asarray(trace),
                                     "gap_bound": gap})


def _unit(v):
    return v / np.linalg.norm(v)


def mle_state_pure(data, model):
    """Rank-1 restriction of `mle_state`: the estimate is a pure state.

    Iterates psi <- normalize((1 - DILUTION) * normalize(R psi)
    + DILUTION * psi), the vector form of the diluted fixed point, on the
    same ascent as `mle_state`, with its pull-back safeguard, stopping
    rule and `stop_reason`.  The start vector is the dominant eigenvector
    of R at the maximally mixed state; a poor local maximum only lowers
    this fit's likelihood, which `select_rank` treats as a vote for the
    full-rank fit.  The estimate psi psi^H is symmetrized, so Hermitian exactly.
    """
    counts = _fit_counts(data, model, "qst")
    p0 = _floored_probs(model, np.eye(model.dim, dtype=complex) / model.dim)
    _, vecs = np.linalg.eigh(_hermitian_sum(model, counts / p0))
    psi, _, trace, iterations, stop_reason = _diluted_ascent(
        model, counts, vecs[:, -1],
        lambda v: _floored_probs(model, np.outer(v, v.conj())),
        lambda r, v: _unit(r @ v),
        lambda step, cand, v: _unit(step * cand + (1.0 - step) * v))
    rho = np.outer(psi, psi.conj())
    rho = (rho + qcore.dagger(rho)) / 2
    return _fit_report(rho, model.probabilities(rho), data, iterations,
                       stop_reason, {"loglik_trace": np.asarray(trace),
                                     "state_vector": psi})


def _chi2_tail(x, dof):
    """P(X > x) for X chi-squared with a positive integer `dof`.

    Closed forms: exp(-x/2) sum_{i < dof/2} (x/2)^i / i! for even dof, and
    erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2) sum_{i < (dof-1)/2}
    x^i / (3 * 5 * ... * (2i + 1)) for odd dof.
    """
    half = x / 2.0
    if dof % 2 == 0:
        term = total = 1.0
        for i in range(1, dof // 2):
            term *= half / i
            total += term
        return math.exp(-half) * total
    term, total = 1.0, 0.0
    for i in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    root = math.sqrt(x)
    return (math.erfc(root / math.sqrt(2.0))
            + math.sqrt(2.0 / math.pi) * root * math.exp(-half) * total)


@functools.cache
def _rank_threshold(dim):
    """Chi-squared threshold of the rank test in dimension `dim`.

    The RANK_SIGNIFICANCE quantile: bisection on the upper tail down to
    adjacent floats, then the one whose tail lies nearer 1 - level.  The
    upper tail is computed to a few ulps, so the result is within an ulp
    or two of the exact quantile.
    """
    dof = (dim * dim - 1) - (2 * dim - 2)
    tail = 1.0 - RANK_SIGNIFICANCE
    lo, hi = 0.0, 1.0
    while _chi2_tail(hi, dof) > tail:
        lo, hi = hi, 2.0 * hi
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        if _chi2_tail(mid, dof) > tail:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda x: abs(_chi2_tail(x, dof) - tail))


def _keeps_pure(ll_full, pure):
    """Whether the rank test keeps `pure` against a full fit at `ll_full`."""
    threshold = _rank_threshold(pure.estimate.shape[0])
    return 2.0 * (ll_full - pure.log_likelihood) <= threshold


def select_rank(full, pure):
    """Keep the pure-state fit unless the likelihood ratio rejects it.

    A full-rank density matrix has d^2 - 1 free real parameters and a
    pure state 2d - 2; twice the log-likelihood gap between the nested
    fits is asymptotically chi-squared with the difference as degrees of
    freedom; the test runs at level RANK_SIGNIFICANCE.  Near-pure states
    at modest sample sizes are estimated much better by the restricted
    fit, which cannot spill weight onto spurious eigenvectors of the
    full-rank maximizer.

    `full` may come from `mle_state(..., pure=pure)`: when that fit
    stopped early ("pure_kept") its likelihood is below the certified
    bound that passed this same test, so `pure` is returned, exactly as
    after a full run.  The threshold is computed once per dimension.
    """
    return pure if _keeps_pure(full.log_likelihood, pure) else full


@functools.cache
def _cptp_constants(d):
    """The identity of dimension d and the Newton ridge of `project_cptp`."""
    eye, ridge = np.eye(d), 1e-12 * np.eye(d * d)
    eye.flags.writeable = ridge.flags.writeable = False
    return eye, ridge


def project_cptp(choi, warm=None):
    """Euclidean projection of a Hermitian matrix onto the CPTP Choi matrices.

    The nearest J >= 0 with Tr_out J = I to G is J(L) = [G - L (x) I]_+,
    the positive part, where the d x d Hermitian multiplier L minimizes
    the smooth convex dual theta(L) = |[G - L (x) I]_+|^2 / 2 + Tr L,
    whose gradient is I - Tr_out J(L) (Malick 2004).  The dual is solved
    by semismooth Newton (Qi & Sun 2006): the generalized Hessian comes
    from the Loewner divided differences of max(., 0) at one
    eigendecomposition, and each step backtracks until theta passes an
    Armijo test or the residual max|Tr_out J - I| halves.  The cold start
    is L = (Tr_out G - I) / d, and a solve stops once the residual is at
    most CPTP_TOL, after CPTP_MAX_ITER steps, or when no step makes
    progress.  The result is positive semidefinite by construction.

    `warm` is an optional dict that the caller owns, for a stream of
    nearby inputs.  After each solve that reaches CPTP_TOL it holds that
    solve's G and L and the linearization of its last Newton step: the
    eigenvectors V, the divided differences omega and the Hessian H.  A
    filled record starts the solve at the first-order prediction
    L + H^-1 Tr_out(V (omega o V^H (G_new - G) V) V^H).  Where that start
    is not finite, is no nearer trace preservation than J = 0 (residual
    at least 1), or its solve ends short of CPTP_TOL, the projection is
    solved again from the cold start, so no result is less feasible than
    a cold one.  A solve that ends short of CPTP_TOL leaves the record as
    it was.
    """
    g = (choi + qcore.dagger(choi)) / 2
    d2 = g.shape[0]
    d = math.isqrt(d2)
    eye, ridge = _cptp_constants(d)

    def evaluate(lam):
        # L (x) I by broadcasting, in the (input, output) index order
        shift = (lam[:, None, :, None] * eye[None, :, None, :]).reshape(d2, d2)
        w, v = np.linalg.eigh(g - shift)
        wp = np.maximum(w, 0.0)
        v3 = v.reshape(d, d, d2)
        v3c = v3.conj()
        # Tr_out J = sum_ap wp_p V[i,a,p] conj(V[j,a,p])
        out_trace = (v3 * wp).reshape(d, -1) @ v3c.reshape(d, -1).T
        resid = eye - out_trace
        theta = 0.5 * float(wp @ wp) + lam.trace().real
        return theta, resid, float(np.abs(resid).max()), w, wp, v3, v3c

    def solve(lam, worst=np.inf):
        # Newton from `lam`, given up at once where the residual is at
        # least `worst`: the final multiplier, residual, eigendecomposition
        # and positive part, and the linearization of the last step
        theta, resid, err, w, wp, v3, v3c = evaluate(lam)
        linear = None
        for _ in range(CPTP_MAX_ITER if err < worst else 0):
            if err <= CPTP_TOL:
                break
            # divided differences of max(., 0) at the eigenvalues; a tie
            # takes the derivative, 1 above zero and 0 at or below it
            pos = w > 0
            gaps = w[:, None] - w[None, :]
            omega = np.divide(wp[:, None] - wp[None, :], gaps, where=gaps != 0,
                              out=(pos[:, None] & pos[None, :]).astype(float))
            # Hessian on the matrix units e_kl: M_kl = V^H (e_kl (x) I) V and
            # H[(ij), (kl)] = sum_pq conj(M_ij) * omega * M_kl, Hermitian PSD
            m = np.einsum("iap,jaq->ijpq", v3c, v3).reshape(d * d, d2 * d2)
            hess = m.conj() @ (omega.ravel() * m).T + ridge
            linear = (v3, omega, hess)
            step = np.linalg.solve(hess, -resid.ravel())
            step = step.reshape(d, d)
            step = (step + qcore.dagger(step)) / 2
            slope = float(np.vdot(step, resid).real)
            t = 1.0
            while t > 1e-10:
                trial = evaluate(lam + t * step)
                # near the solution theta cannot resolve the progress,
                # which the residual still shows
                if trial[0] <= theta + 1e-4 * t * slope or trial[2] <= err / 2:
                    break
                t /= 2.0
            else:
                break
            lam = lam + t * step
            theta, resid, err, w, wp, v3, v3c = trial
        return lam, err, wp, v3, v3c, linear

    result = None
    if warm:
        # first-order prediction: the solution keeps Tr_out J = I as G
        # moves, so H dL = Tr_out(V (omega o V^H dG V) V^H); a start no
        # nearer trace preservation than J = 0 (residual 1) is none
        v3, omega, hess = warm["linear"]
        v = v3.reshape(d2, d2)
        moved = v @ (omega * (qcore.dagger(v) @ (g - warm["g"]) @ v))
        # Tr_out(moved V^H), summed as in `evaluate`
        moved = moved.reshape(d, -1) @ v3.conj().reshape(d, -1).T
        shift = np.linalg.solve(hess, moved.ravel()).reshape(d, d)
        lam = warm["lam"] + (shift + qcore.dagger(shift)) / 2
        if np.isfinite(lam).all():
            result = solve(lam, worst=1.0)
            if result[1] > CPTP_TOL:
                result = None
    if result is None:
        result = solve((qcore.choi_output_trace(g) - eye) / d)
    lam, err, wp, v3, v3c, linear = result
    if warm is not None and err <= CPTP_TOL:
        linear = linear or warm.get("linear")
        if linear:
            warm.update(g=g, lam=lam, linear=linear)
    j = (v3.reshape(d2, d2) * wp) @ v3c.reshape(d2, d2).T
    return (j + qcore.dagger(j)) / 2


def mle_process(data, model):
    """Maximum-likelihood Choi-matrix estimate by accelerated projected ascent.

    Ascends the log-likelihood sum_ik n_ik log Tr(J A_ik) by FISTA
    (Beck & Teboulle 2009) on the exact Euclidean projection onto the
    CPTP set (`project_cptp`), so every iterate is positive semidefinite
    and trace preserving to 1e-12.  The start is the projected
    least-squares estimate (`_process_start`): the minimum-norm
    least-squares solution of A x ~ f for the frequencies f of the
    circuits that got shots, projected onto the CPTP set and mixed with
    START_MIX of I/d so that no probability starts on PROB_FLOOR.  Each
    iteration takes a projected gradient step from the extrapolated point
    Y, halving the step until the likelihood at the result Z lies above
    the quadratic model ll(Y) + <G, Z - Y> - N |Z - Y|^2 / (2 step), with
    G the gradient and N the number of shots; the step persists between
    iterations, starts at 0.3 and grows by 1.2 after each step that
    passes.  The momentum restarts (O'Donoghue & Candes 2015) when the
    extrapolated point has a probability at or below PROB_FLOOR, and when
    a step from it would lower the likelihood, which is then not taken; a
    step from the iterate itself ascends in exact arithmetic, so the
    likelihood falls only by rounding.

    The fit passes one `warm` record to all its projections but the
    start's, so each solve starts from the prediction of the last one
    that converged: about 1.4 Newton steps per projection instead of 3.1
    on `qpt-models` at d = 3.  The record is local to this call, so the
    result does not depend on other fits, and QUDITTOMO_MAX_WORKERS still
    gives byte-identical output.

    Every 5 iterations the fit evaluates the certified `_optimality_gap`
    and stops with `stop_reason` "tol" once it is at most PROCESS_TOL
    log-likelihood units.  The bound does not apply while a probability
    sits on PROB_FLOOR, as on exact data from a channel with
    zero-probability outcomes; there the fit instead stops with "tol"
    when a step gains less than FLOOR_GAIN per shot.  Otherwise it stops
    with "stalled" when no step passes the model test, or "max_iter"
    after PROCESS_MAX_ITER iterations; any stop is "infeasible", with no
    gap bound, when max|Tr_out J - I| exceeds `qcore.ATOL_TRACE_PRESERVING`.
    Only "tol" counts as converged.

    `diagnostics` holds `_optimality_gap` (`gap_bound`), the
    trace-preservation residual (`tp_residual`) and the smallest
    eigenvalue (`min_eigenvalue`) of the returned estimate.
    """
    counts = _fit_counts(data, model, "qpt")
    dim = model.dim
    scale = max(counts.sum(), 1.0)

    def rise(p_to, p_from):
        # ll(to) - ll(from), computed from the ratios so that it stays
        # accurate when far below the rounding of ll itself
        return float(counts @ np.log1p((p_to - p_from) / p_from))

    choi = _process_start(data, model)
    p = _floored_probs(model, choi)
    # the extrapolated point Y, its probabilities and the momentum
    y, p_y, momentum = choi, p, 1.0
    step = 0.3
    warm = {}
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, PROCESS_MAX_ITER + 1):
        grad = _hermitian_sum(model, counts / p_y) / scale
        while step >= 1e-12:
            cand = project_cptp(y + step * grad, warm)
            p_new = _floored_probs(model, cand)
            diff = cand - y
            model_rise = (np.vdot(grad, diff).real
                          - np.vdot(diff, diff).real / (2.0 * step))
            if rise(p_new, p_y) >= scale * model_rise:
                break
            step /= 2.0
        else:
            stop_reason = "stalled"
            break
        step *= 1.2
        gain = rise(p_new, p)
        # a fall from the iterate itself is rounding: take the step
        if gain < 0.0 and y is not choi:
            y, p_y, momentum = choi, p, 1.0
            continue
        previous, choi, p = choi, cand, p_new
        if p.min() <= PROB_FLOOR:
            if gain < FLOOR_GAIN * scale:
                stop_reason = "tol"
                break
        elif (iterations % 5 == 0
              and _optimality_gap(model, choi, p, counts) <= PROCESS_TOL):
            stop_reason = "tol"
            break
        next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
        y = choi + ((momentum - 1.0) / next_momentum) * (choi - previous)
        momentum = next_momentum
        p_y = _floored_probs(model, y)
        if p_y.min() <= PROB_FLOOR:
            y, p_y, momentum = choi, p, 1.0
    tp_residual = float(np.abs(qcore.choi_output_trace(choi) - np.eye(dim)).max())
    # the bound, and so every stop above, assumes Tr_out J = I
    feasible = tp_residual <= qcore.ATOL_TRACE_PRESERVING
    gap = _optimality_gap(model, choi, p, counts) if feasible else None
    return _fit_report(choi, model.probabilities(choi), data, iterations,
                       stop_reason if feasible else "infeasible",
                       {"gap_bound": gap, "tp_residual": tp_residual,
                        "min_eigenvalue": float(np.linalg.eigvalsh(choi)[0])})


def _process_start(data, model):
    """Start of the process fit: the projected least-squares estimate.

    Solves A x ~ f for the observed frequencies f over the rows of
    circuits that got shots, in the least-squares sense with minimum
    norm (`_least_squares`), projects the solution onto the CPTP set, and mixes in START_MIX
    of I/d so that no probability starts on PROB_FLOOR (Surawy-Stepney,
    Kahn, Kueng & Guta 2022).
    """
    dd = model.dim * model.dim
    rows = np.repeat(data.shots > 0, model.n_outcomes)
    design = model.matrix if rows.all() else model.matrix[rows]
    x = _least_squares(design, data.frequencies().ravel()[rows])
    choi = project_cptp(x.view(complex).reshape(dd, dd))
    return (1.0 - START_MIX) * choi + START_MIX * np.eye(dd) / model.dim


def _least_squares(a, b):
    """Minimum-norm least-squares solution of a x ~ b, by CGLS.

    Conjugate gradients on the normal equations from x = 0 (Hestenes &
    Stiefel 1952), which in exact arithmetic is LSQR: every iterate lies
    in the row space of `a`, so the limit is the minimum-norm solution.
    Stops once |a^T (b - a x)| is at most LSTSQ_TOL times |a^T b|, or
    after twice as many steps as `a` has columns.  On the well-conditioned
    tomography designs it takes a few dozen matrix-vector products where
    a dense factorization of `a` would cost far more.
    """
    x = np.zeros(a.shape[1])
    r = np.array(b, dtype=float)
    s = a.T @ r
    p = s
    gamma = float(s @ s)
    stop = LSTSQ_TOL * np.sqrt(gamma)
    for _ in range(2 * a.shape[1]):
        if np.sqrt(gamma) <= stop:
            break
        q = a @ p
        alpha = gamma / float(q @ q)
        x += alpha * p
        r -= alpha * q
        s = a.T @ r
        gamma, previous = float(s @ s), gamma
        p = s + (gamma / previous) * p
    return x


def _calibration_maps(protocol, gate_depol_p):
    """Linear action of the calibration circuits on diagonal states.

    Circuit j sends populations a to v_j = maps[j] @ a.  Column m of
    every map is the outcome table, on the identity channel, of the
    protocol's `build_measurement_model` for preparation e_m, ideal
    readout and the gates' depolarizing weight `gate_depol_p`: the forward
    model alone says what the circuits do.
    """
    dim = protocol.dim
    identity = qcore.choi_from_unitary(np.eye(dim))
    maps = np.empty((len(protocol), dim, dim))
    for m, start in enumerate(np.eye(dim)):
        model = build_measurement_model(
            protocol, readout.DiagonalSpamModel(start, np.eye(dim)), gate_depol_p)
        maps[:, :, m] = model.probabilities(identity)
    return maps


def _em_response(counts, transfer, response):
    """Readout B maximizing sum_jk n_jk log (B v_j)_k at fixed populations.

    `transfer` holds the columns v_j.  The likelihood is concave in the
    column-stochastic B, and the EM update
    B_km <- B_km sum_j v_j[m] n_jk / (B v_j)_k, renormalized per column,
    never lowers it.  A column no shot informs is left as it is.  Stops
    when the gain drops below EM_TOL per shot, or after EM_MAX_ITER
    iterations.  Returns (B, iterations, stop_reason).
    """
    counts_t = counts.T
    seen = counts_t > 0
    n_total = counts.sum()
    ll = -np.inf
    for iterations in range(1, EM_MAX_ITER + 1):
        pred = response @ transfer
        ll_new = float(np.sum(counts_t[seen] * np.log(pred[seen])))
        if ll_new - ll < EM_TOL * n_total:
            return response, iterations, "tol"
        ll = ll_new
        ratio = np.divide(counts_t, pred, out=np.zeros_like(pred), where=seen)
        weight = response * (ratio @ transfer.T)
        total = weight.sum(axis=0)
        response = np.divide(weight, total, out=response.copy(), where=total > 0)
    return response, EM_MAX_ITER, "max_iter"


def _response_problem(freq, maps):
    """tr B and the constraints of the general calibration fit, with derivatives.

    Over the free populations x, with a = (1 - sum(x), x), the columns
    v_j = maps[j] @ a of V(a) (`_calibration_maps`) and the response
    B(x) = F^T V(a)^-1 of `estimate_spam_general`, the returned
    `evaluate(x)` gives (tr B, c) for the constraints c = (vec B, a) >= 0,
    and `evaluate(x, True)` adds the gradient and Hessian of tr B and the
    Jacobian and Hessians of c.  With W = V^-1 and E_i = (dV/dx_i) W,
    where dV/dx_i is constant, dB/dx_i = -B E_i and
    d^2 B / dx_i dx_l = B (E_i E_l + E_l E_i).  `evaluate.calls` counts
    the evaluations.
    """
    dim = freq.shape[0]
    n = dim - 1
    # dv[i] = dV/dx_i, whose column j is d v_j / d x_i
    dv = (maps[:, :, 1:] - maps[:, :, :1]).transpose(2, 1, 0)
    dpop = np.vstack([-np.ones(n), np.eye(n)])
    flat = np.zeros((dim, n, n))

    def evaluate(x, derivatives=False):
        evaluate.calls += 1
        a = np.concatenate([[1.0 - x.sum()], x])
        w = np.linalg.inv((maps @ a).T)
        b = freq.T @ w
        c = np.concatenate([b.ravel(), a])
        if not derivatives:
            return np.trace(b), c
        e = dv @ w
        db = -b @ e
        ee = e[:, None] @ e[None, :]
        d2b = b @ (ee + ee.transpose(1, 0, 2, 3))
        jac = np.concatenate([db.reshape(n, -1).T, dpop])
        c_hess = np.concatenate([d2b.reshape(n, n, -1).transpose(2, 0, 1), flat])
        return (np.trace(b), c, np.trace(db, axis1=1, axis2=2),
                np.trace(d2b, axis1=2, axis2=3), jac, c_hess)

    evaluate.calls = 0
    return evaluate


def _barrier_path(evaluate, x):
    """Largest tr B(x) along the log-barrier central path, polished to a vertex.

    `evaluate` is a `_response_problem` and x is strictly feasible.  Each
    centering minimizes -t tr B - sum log c by damped Newton steps,
    backtracking until c stays positive and an Armijo test passes; as
    neither tr B nor c need be concave, the Hessian's eigenvalues enter
    by their absolute values.  A centering stops when half the squared
    Newton decrement is at most CENTER_TOL, after CENTER_MAX_ITER steps,
    or when no step passes.  The weight t starts at BARRIER_T0 and grows
    by BARRIER_GROWTH after each centering, which `_certified_vertex`
    follows; the path ends at the first vertex it certifies, or once t
    passes BARRIER_T_MAX.  Returns (the vertex or None, the last x,
    Newton steps).
    """
    t, steps = BARRIER_T0, 0
    while t <= BARRIER_T_MAX:
        for _ in range(CENTER_MAX_ITER):
            f, c, grad_f, hess_f, jac, c_hess = evaluate(x, True)
            inv = 1.0 / c
            grad = -t * grad_f - jac.T @ inv
            hess = (-t * hess_f + (jac * inv[:, None] ** 2).T @ jac
                    - np.tensordot(inv, c_hess, axes=1))
            w, u = np.linalg.eigh(hess)
            w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max() + 1e-300)
            dx = -u @ ((u.T @ grad) / w)
            decrement = -float(grad @ dx)
            steps += 1
            if decrement / 2.0 <= CENTER_TOL:
                break
            phi = -t * f - np.log(c).sum()
            step = 1.0
            while step > 1e-12:
                f_new, c_new = evaluate(x + step * dx)
                if (c_new.min() > 0.0 and -t * f_new - np.log(c_new).sum()
                        <= phi - 0.01 * step * decrement):
                    break
                step /= 2.0
            else:
                break
            x = x + step * dx
        vertex = _certified_vertex(evaluate, x)
        if vertex is not None:
            return vertex, x, steps
        t *= BARRIER_GROWTH
    return None, x, steps


def _certified_vertex(evaluate, x):
    """The vertex of the d - 1 tightest constraints at x, if it is certified.

    Solves those constraints as equalities by Newton's method from x, to
    a residual of at most VERTEX_TOL within VERTEX_MAX_ITER steps.  The
    vertex is certified when every other constraint holds there and the
    KKT multipliers mu of grad tr B + J^T mu = 0, with J the Jacobian of
    the solved constraints, are nonnegative: tr B then falls at first
    order along every feasible direction.  Returns the vertex or None.
    """
    active = np.argsort(evaluate(x)[1], kind="stable")[:x.size]
    try:
        for _ in range(VERTEX_MAX_ITER):
            _, c, grad, _, jac, _ = evaluate(x, True)
            if np.abs(c[active]).max() <= VERTEX_TOL:
                break
            x = x - np.linalg.solve(jac[active], c[active])
        else:
            return None
        multipliers = -np.linalg.solve(jac[active].T, grad)
    except np.linalg.LinAlgError:
        return None
    if multipliers.min() >= 0.0 and np.delete(c, active).min() >= 0.0:
        return x
    return None


def _max_trace_response(evaluate, dim):
    """Free populations x of largest tr B(x) subject to a >= 0 and B >= 0.

    `evaluate` is a `_response_problem` of dimension `dim`.  The barrier
    path starts at x = (eps, ..., eps), populations next to ideal
    preparation e_0, with the largest eps in 1e-3 ... 1e-9 that makes
    every constraint positive, and stops with "tol" at a certified vertex
    or with "stalled" at the end of the path.  When no such eps exists,
    x is e_0 itself and is reported infeasible: in 1,280 sampled
    calibrations at d = 2 to 5 with 1e3 to 1e6 shots, a phase-I barrier
    search ran on the 384 where this start failed and found a feasible
    point in none.  Returns (x, whether x is feasible, Newton steps,
    stop_reason).
    """
    for eps in 10.0 ** -np.arange(3, 10):
        x = np.full(dim - 1, eps)
        if evaluate(x)[1].min() > 0.0:
            vertex, x, steps = _barrier_path(evaluate, x)
            if vertex is None:
                return x, True, steps, "stalled"
            return vertex, True, steps, "tol"
    return np.zeros(dim - 1), False, 0, "stalled"


def estimate_spam_general(data, gate_depol_p=0.0):
    """Fit the full diagonal preparation-and-readout model to calibration counts.

    `data` must hold counts of the `protocols.spam_calibration_circuits`
    protocol ('qpt', run on the identity channel), circuit for circuit:
    circuit 0 is gate free, circuit j applies one R_x(pi) on levels
    (0, j).  Their action on diagonal states is read off the forward
    model (`_calibration_maps`), so circuit j predicts F_j = B v_j(a)
    with v_j linear in the populations a; for any a the response
    B(a) = F^T V(a)^-1 reproduces the observed frequencies F exactly,
    and every a with a >= 0 and B(a) >= 0 maximizes the likelihood.
    These maximizers form a set of dimension d - 1 (see the module
    notes).  The fit returns the member with the largest tr B, the most
    faithful readout (`_max_trace_response`): a log-barrier Newton path
    over the d - 1 free populations, with analytic derivatives of B(a),
    from a start next to ideal preparation e_0 ("Convex Optimization",
    Boyd & Vandenberghe 2004, ch. 11), then a polish that solves the
    d - 1 tightest constraints as equalities.  It converges ("tol") only
    when the polished vertex satisfies every other constraint and has
    nonnegative KKT multipliers; `iterations` counts the Newton steps of
    the path.

    When no start makes every constraint strictly positive, typically
    because some outcome was never observed, B is fitted by EM at ideal
    preparation.  `diagnostics["branch"]` says which route was taken
    ("closed_form" or "fallback"), and `diagnostics["min_response"]`
    holds min B(a) before clipping, or None when a circuit has no shots
    and B(a) is undefined.
    """
    dim = data.counts.shape[1]
    protocol = protocols.spam_calibration_circuits(dim)
    if tuple(data.labels) != tuple(c.label for c in protocol.circuits):
        raise ValueError("dataset circuits do not match the calibration circuits")
    counts = _checked_counts(data, (dim, dim))
    maps = _calibration_maps(protocol, gate_depol_p)

    x = np.zeros(dim - 1)
    feasible = False
    iterations = evaluations = 0
    min_response = None
    shots = counts.sum(axis=1)
    if np.all(shots > 0):
        evaluate = _response_problem(counts / shots[:, None], maps)
        x, feasible, iterations, stop_reason = _max_trace_response(evaluate, dim)
        b = evaluate(x)[1][:dim * dim].reshape(dim, dim)
        evaluations = evaluate.calls
        min_response = float(b.min())

    a = np.clip(np.concatenate([[1.0 - x.sum()], x]), 0.0, None)
    a /= a.sum()
    v = (maps @ a).T
    branch = "closed_form" if feasible else "fallback"
    if feasible:
        b = np.clip(b, 0.0, None)
        b /= b.sum(axis=0)
    else:
        start = (np.eye(dim) if min_response is None
                 else np.clip(b, 0.0, None)) + 1.0 / dim
        start /= start.sum(axis=0)
        b, em_iterations, stop_reason = _em_response(counts, v, start)
        iterations += em_iterations
        evaluations += em_iterations
    probs = (b @ v).T
    return _fit_report(readout.DiagonalSpamModel(a, b), probs, data, iterations,
                       stop_reason, {"predicted_probs": probs, "branch": branch,
                                     "min_response": min_response,
                                     "evaluations": evaluations})


def _newton_step(grad, hess, active):
    """Newton steps of 2-parameter concave problems, with fixed coordinates.

    Row r solves M_r s_r = g_r, where M_r is the negated Hessian, on the
    coordinates not marked `active`; an active coordinate does not move.
    """
    g = np.where(active, 0.0, grad)
    free = ~active
    # 2 x 2 system, decoupled from and identity on the active coordinates
    m00 = np.where(free[:, 0], hess[:, 0, 0], 1.0)
    m11 = np.where(free[:, 1], hess[:, 1, 1], 1.0)
    m01 = np.where(free.all(axis=1), hess[:, 0, 1], 0.0)
    # a relative ridge keeps a nearly singular system solvable
    ridge = 1e-12 * (m00 + m11) + 1e-300
    m00, m11 = m00 + ridge, m11 + ridge
    det = m00 * m11 - m01 * m01
    return np.stack([m11 * g[:, 0] - m01 * g[:, 1],
                     m00 * g[:, 1] - m01 * g[:, 0]], axis=1) / det[:, None]


def _fit_rates(dark, clicks, populations, rates):
    """Maximize the thermal-readout likelihood over (b0, b1), one row per T.

    Row r of `populations` holds thermal populations a; the click
    probabilities `readout.level_clicks`, the simulator's own model, are
    affine in the rates, so the per-shot log-likelihood is concave on the
    [0, RATE_MAX]^2 box.  Every row takes projected Newton steps from its
    row of `rates`: a coordinate at a bound whose gradient points outward,
    or whose Newton step does, stays put; the other step is the
    closed-form 2 x 2 solve, halved until it passes a projected Armijo
    test without lowering the likelihood, or until concavity bounds the
    gain of an unclipped step by RATE_GAIN.  A full unclipped step so
    bounded is taken without the test, whose rise rounding hides, so that
    the rates, and the profile slope `estimate_spam_gibbs` computes from
    them, are exact to rounding.  A row stops once a step gains at most
    RATE_GAIN per shot.  Returns the rates, the per-shot log-likelihoods,
    the Newton iterations per row and whether each row stopped on its gain.
    """
    n_total = dark.sum() + clicks.sum()

    def loglik(idx, x):
        p = readout.level_clicks(populations[idx], x[:, :1], x[:, 1:])
        q = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
        ll = (np.log(q) * clicks + np.log1p(-q) * dark).sum(axis=1) / n_total
        # a probability clipped against observed counts: the likelihood
        # is flat there, so the point counts as impossible
        impossible = (((p <= PROB_FLOOR) & (clicks > 0))
                      | ((p >= 1.0 - PROB_FLOOR) & (dark > 0))).any(axis=1)
        return q, np.where(impossible, -np.inf, ll)

    x = np.array(rates, dtype=float)
    # a start that the data make impossible moves to the middle of the box
    x[np.isneginf(loglik(slice(None), x)[1])] = RATE_MAX / 2
    p, ll = loglik(slice(None), x)
    iterations = np.zeros(len(x), dtype=int)
    idx = np.arange(len(x))
    for _ in range(RATE_MAX_ITER):
        if not idx.size:
            break
        iterations[idx] += 1
        a, q, xi = populations[idx], p[idx], x[idx]
        slopes = np.stack([-a, 1.0 - a], axis=1)
        # row sums in a fixed order, so a row's result does not depend
        # on the batch it is solved in
        grad = (slopes * (clicks / q - dark / (1.0 - q))[:, None]).sum(axis=2) / n_total
        weight = clicks / q ** 2 + dark / (1.0 - q) ** 2
        hess = (slopes[:, :, None] * (weight[:, None] * slopes)[:, None]).sum(axis=3)
        hess /= n_total
        lower, upper = xi <= 0.0, xi >= RATE_MAX
        active = (lower & (grad < 0.0)) | (upper & (grad > 0.0))
        step = _newton_step(grad, hess, active)
        active |= (lower & (step < 0.0)) | (upper & (step > 0.0))
        step = _newton_step(grad, hess, active)
        gain = np.zeros(idx.size)
        todo = np.arange(idx.size)
        t = 1.0
        while todo.size and t > 1e-12:
            full = xi[todo] + t * step[todo]
            cand = np.clip(full, 0.0, RATE_MAX)
            p_new, ll_new = loglik(idx[todo], cand)
            rise = ll_new - ll[idx[todo]]
            slope = (grad[todo] * (cand - xi[todo])).sum(axis=1)
            clipped = (cand != full).any(axis=1)
            last = (t == 1.0) & ~clipped & (slope <= RATE_GAIN)
            ok = last | (rise >= 1e-4 * np.maximum(slope, 0.0))
            rows = idx[todo[ok]]
            x[rows], p[rows], ll[rows] = cand[ok], p_new[ok], ll_new[ok]
            gain[todo[ok]] = np.where(last[ok], 0.0, rise[ok])
            # by concavity no shorter step gains more than the slope of
            # an unclipped one
            todo = todo[~ok & (clipped | (slope > RATE_GAIN))]
            t /= 2.0
        idx = idx[gain > RATE_GAIN]
    settled = np.ones(len(x), dtype=bool)
    settled[idx] = False
    return x, ll, iterations, settled


def _profile_slopes(dark, clicks, omegas, log_temps, populations, rates):
    """d/d log T of the per-shot profile log-likelihood, one row per T.

    By the envelope theorem it is the partial derivative at the fitted
    rates (b0, b1): the click probabilities p of `readout.level_clicks`
    have dp_j / da_j = 1 - b0 - b1, and d a_j / d log T =
    a_j (omega_j - sum_k a_k omega_k) / T, so it is
    sum_j (clicks_j / p_j - dark_j / (1 - p_j)) dp_j / d log T per shot.
    """
    b0, b1 = rates[:, :1], rates[:, 1:]
    p = np.clip(readout.level_clicks(populations, b0, b1),
                PROB_FLOOR, 1.0 - PROB_FLOOR)
    da = (populations * (omegas - populations @ omegas[:, None])
          / np.exp(log_temps)[:, None])
    return (((clicks / p - dark / (1.0 - p)) * (1.0 - b0 - b1) * da).sum(axis=1)
            / (dark.sum() + clicks.sum()))


def estimate_spam_gibbs(data, omegas):
    """Fit the thermal readout model (T, b0, b1) to single-level read counts.

    `data` holds binary counts (no-click, click) per level from
    `simulate_level_reads`, with click probabilities `readout.level_clicks`
    of the thermal populations a(T), the model the reads are simulated
    from, so the fit and the simulated truth share it.  Unlike the
    general diagonal fit this three-parameter family has no gauge freedom
    at d >= 3.  At d = 2 it is not identified (three parameters, two
    binary frequencies): fits within 6e-11 in log-likelihood differed in T
    by up to 1.6e5 relative.

    The fit maximizes the profile likelihood over T.  At fixed T the click
    probabilities are affine in (b0, b1), so the likelihood is concave on
    the [0, 0.5]^2 box and a projected Newton solve (`_fit_rates`) finds
    its maximum, where the envelope theorem gives the profile's slope in
    log T (`_profile_slopes`).  The profile over log T in [1e-6, 100] is
    searched on a coarse grid, all of whose (b0, b1) problems are solved
    as one batch.  Between the best grid point and the neighbour its
    slope points to, where the slope changes sign, secant steps on the
    slope, replaced by bisection when they leave that bracket, refine
    log T; each evaluation starts from the rates of the one before.  The
    refinement stops with "tol" once the slope is at most SLOPE_TOL per
    shot or a step would move log T by at most LOG_TEMP_TOL, with
    "max_iter" after REFINE_MAX_ITER evaluations, and with "stalled" when
    the slope does not change sign there.  A best grid point whose slope
    is within SLOPE_TOL, or points out of the grid, is the estimate.
    `iterations` counts the temperatures evaluated, grid included, and
    `diagnostics["evaluations"]` the Newton iterations of every solve.
    """
    omegas = np.asarray(omegas, dtype=float)
    counts = _checked_counts(data, (omegas.size, 2))
    dark, clicks = counts[:, 0], counts[:, 1]

    def profile(log_temps, rates):
        log_temps = np.asarray(log_temps, dtype=float)
        pops = readout.gibbs_populations(np.exp(log_temps)[:, None], omegas)
        rates, ll, iterations, settled = _fit_rates(dark, clicks, pops, rates)
        slopes = _profile_slopes(dark, clicks, omegas, log_temps, pops, rates)
        return rates, ll, slopes, iterations, settled

    grid = np.linspace(np.log(1e-6), np.log(100.0), 41)
    rates, ll, slopes, iterations, settled = profile(
        grid, np.full((grid.size, 2), RATE_MAX / 2))
    evaluations = int(iterations.sum())
    i = int(np.argmax(ll))
    log_temp, slope = float(grid[i]), float(slopes[i])
    rates, settled = rates[i:i + 1], bool(settled[i])
    # the neighbour the slope points to
    j = i + 1 if slope > 0.0 else i - 1
    refined = 0
    if abs(slope) <= SLOPE_TOL or not 0 <= j < grid.size:
        stop_reason = "tol"
    elif (slopes[j] > 0.0) == (slope > 0.0):
        stop_reason = "stalled"
    else:
        stop_reason = "max_iter"
        lo, hi = sorted((log_temp, float(grid[j])))
        before, slope_before = float(grid[j]), float(slopes[j])
        while refined < REFINE_MAX_ITER:
            step = (-slope * (log_temp - before) / (slope - slope_before)
                    if slope != slope_before else np.inf)
            if not lo < log_temp + step < hi:
                step = (lo + hi) / 2.0 - log_temp
            if abs(step) <= LOG_TEMP_TOL:
                stop_reason = "tol"
                break
            refined += 1
            before, slope_before = log_temp, slope
            log_temp += step
            rates, _, new_slope, new_iterations, new_settled = profile(
                [log_temp], rates)
            evaluations += int(new_iterations[0])
            slope, settled = float(new_slope[0]), bool(new_settled[0])
            if slope > 0.0:
                lo = log_temp
            else:
                hi = log_temp
            if abs(slope) <= SLOPE_TOL:
                stop_reason = "tol"
                break
    if stop_reason == "tol" and not settled:
        stop_reason = "max_iter"
    temp = float(np.exp(log_temp))
    b0, b1 = (float(v) for v in rates[0])
    a = readout.gibbs_populations(temp, omegas)
    p_fit = readout.level_clicks(a, b0, b1)
    return _fit_report({"temperature": temp, "b0": b0, "b1": b1},
                       np.stack([1.0 - p_fit, p_fit], axis=1), data,
                       grid.size + refined, stop_reason,
                       {"populations": a, "predicted_click_probs": p_fit,
                        "evaluations": evaluations})

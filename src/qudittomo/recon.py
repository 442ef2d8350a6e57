"""Maximum-likelihood reconstruction from tomography counts.

A reconstruction model pairs each circuit with effective measurement
operators computed from assumed preparation and readout (ideal by
default, or any DiagonalSpamModel), built gate by gate on the code path
that also gives the simulator its model; the fits and the completeness
check use it only as a real design matrix A, through A x and A^T w.
Both state fits, the full-rank one and its rank-1 restriction, run one
diluted fixed-point ascent ("Diluted maximum-likelihood algorithm for
quantum tomography", Rehacek, Hradil, Knill & Lvovsky 2007).  Processes
are fitted by accelerated (FISTA) projected gradient ascent on the Choi
matrix, started at the projected least-squares estimate ("Projected
least squares quantum process tomography", Surawy-Stepney, Kahn, Kueng
& Guta 2022), which stops once a certified bound puts it within `tol`
log-likelihood units of the maximum, or, where that bound does not
apply (a probability on PROB_FLOOR), once a step gains little; no other
stop counts as converged.  Its projection is the exact Euclidean
projection onto the CPTP set, computed by a Newton solve for a d x d
Lagrange multiplier of the trace-preservation constraint.  SPAM
calibration parameters come from structured solves: a closed form for
the general diagonal model and a profile likelihood for the thermal
one, whose inner (b0, b1) problems are solved by one batched projected
Newton method.  All five fits share one input check and one report
builder, which derives the likelihood, residual and convergence of a
report from the table of probabilities its estimate predicts.

The general diagonal model has d^2 - 1 parameters, but its d
calibration circuits determine only d(d - 1) frequencies, so its
maximum-likelihood fits form a flat set of dimension d - 1.  Moving a
depolarizing factor between preparation and readout
(`readout.gauge_transform`) is one direction of that set; only the
predicted probabilities are identified, not (a, B) themselves.
`estimate_spam_general` returns the member of the set with the largest
tr B.  The thermally constrained fit has no flat direction, which is
what makes it useful.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse.linalg
import scipy.special

from . import qcore, readout
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
# weight of I/d mixed into the least-squares start of the process fit
START_MIX = 1e-3
# box bound of the thermal readout rates (b0, b1), the per-shot gain
# below which their Newton solve stops, and its iteration cap
RATE_MAX = 0.5
RATE_GAIN = 1e-15
RATE_MAX_ITER = 200
# stop rules of the CPTP projection (residual max|Tr_out J - I|, Newton
# steps) and of the EM readout fit (per-shot gain, iterations)
CPTP_TOL = 1e-12
CPTP_MAX_ITER = 50
EM_TOL = 1e-12
EM_MAX_ITER = 10000


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
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class MeasurementModel:
    """Effective measurement operators of a protocol under assumed SPAM.

    `operators` is stacked (n_circuits, n_outcomes, D, D): for state
    tomography D = d and probabilities are Tr(rho B_ik); for process
    tomography D = d^2, the operators are rho_i^T (x) P_ik, and
    probabilities are Tr(J A_ik) for the Choi matrix J.

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
        return (np.asarray(w, dtype=float) @ self.matrix).view(complex).reshape(dd, dd)


def build_measurement_model(protocol, spam=None, gate_depol_p=0.0):
    """Effective operators of `protocol` under an assumed SPAM model.

    `spam` is a DiagonalSpamModel or None for ideal preparation/readout.
    The operators are built gate by gate in the Heisenberg picture, with
    a depolarizing factor `gate_depol_p` folded in after every gate.  The
    simulator (`sim.outcome_probabilities`) uses the known gate noise; the
    fits use the default 0, which depolarizes nothing and takes the gates
    as ideal, so only SPAM enters their model.
    """
    dim = protocol.dim
    model = readout.ideal_spam_model(dim) if spam is None else spam
    if model.dim != dim:
        raise ValueError(f"SPAM dimension {model.dim} != protocol dimension {dim}")
    if not 0.0 <= gate_depol_p <= 1.0:
        raise ValueError(f"gate_depol_p must lie in [0, 1], got {gate_depol_p}")
    rho0 = model.initial_state()
    povm = model.povm()
    n_out = povm.shape[0]
    dd = dim if protocol.kind == "qst" else dim * dim
    ops = np.zeros((len(protocol.circuits), n_out, dd, dd), dtype=complex)
    for c, circuit in enumerate(protocol.circuits):
        effects = povm
        for g in reversed(circuit.meas.gates):
            u = gate_unitary(g, dim)
            effects = qcore.dagger(u) @ qcore.depolarize(effects, gate_depol_p) @ u
        if protocol.kind == "qst":
            if len(circuit.prep):
                raise ValueError(
                    f"state-tomography circuit {circuit.label!r} has prep gates")
            ops[c] = effects
        else:
            rho_i = rho0
            for g in circuit.prep.gates:
                u = gate_unitary(g, dim)
                rho_i = qcore.depolarize(u @ rho_i @ qcore.dagger(u), gate_depol_p)
            # kron(rho_i^T, E_k) for every outcome k in one broadcast product
            ops[c] = (rho_i.T[None, :, None, :, None]
                      * effects[:, None, :, None, :]).reshape(n_out, dd, dd)
    labels = tuple(c.label for c in protocol.circuits)
    return MeasurementModel(protocol.kind, dim, labels, ops)


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
    return np.maximum(model.probabilities(x).ravel(), PROB_FLOOR)


def _hermitian_sum(model, w):
    """Hermitian part of sum_n w_n A_n over the model's outcomes."""
    s = model.weighted_sum(w)
    return (s + qcore.dagger(s)) / 2


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


def _diluted_ascent(model, counts, x, probs_of, candidate, mix, tol, max_iter,
                    early_stop=None):
    """Diluted fixed-point ascent of the log-likelihood sum_n c_n log p_n.

    Each iteration forms R = sum_n (c_n / p_n) A_n at the iterate x, the
    fixed-point image `candidate(R, x)`, and the step `mix(step, cand, x)`
    from step = 1 - DILUTION, halved while it would lower the likelihood,
    so the trace is non-decreasing.  Stops with "tol" when the gain drops
    below `tol` per shot, "stalled" when no halved step ascends,
    "pure_kept" when `early_stop(iteration, R, x, p, ll)` is true, or
    "max_iter".  Returns (x, p, trace, iterations, stop_reason).
    """
    min_gain = tol * max(counts.sum(), 1.0)
    p = probs_of(x)
    ll = float(counts @ np.log(p))
    trace = [ll]
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = _hermitian_sum(model, counts / p)
        if early_stop is not None and early_stop(iterations, r, x, p, ll):
            stop_reason = "pure_kept"
            break
        cand = candidate(r, x)
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


def mle_state(data, model, tol=1e-10, max_iter=10000, pure=None):
    """Maximum-likelihood state estimate by the diluted R rho R iteration.

    Iterates rho <- (1 - DILUTION) * N[R rho R] + DILUTION * rho with
    R = sum_ik (n_ik / p_ik) B_ik, which keeps the iterate a valid state
    (Rehacek, Hradil, Knill & Lvovsky 2007).  If a step would lower the
    log-likelihood the update is pulled toward the current iterate until
    it does not, so the likelihood trace is non-decreasing.  Stops with
    `stop_reason` "tol" when the gain drops below `tol` per shot,
    "stalled" when no pulled-back step ascends, or "max_iter"; only "tol"
    counts as converged.

    The model takes the gates as ideal unless it was built with
    `gate_depol_p`.  So at large N the ideal-gate fit of the deep MUB
    circuits is limited by unmodelled gate noise: in the criterion 1
    configuration (d = 3, N = 1e6) a fit that knows the gate noise brings
    the MUB median infidelity from 7.4e-4 to 1.43e-4, below the two-level
    curve.  The large-N crossover of the two protocols measures
    robustness to that unmodelled noise.

    By concavity every iterate bounds the maximum log-likelihood:
    ll* <= ll + lambda_max(R) - Tr(R rho), valid when no probability is
    clipped at PROB_FLOOR.  `diagnostics["gap_bound"]` holds that gap at
    the returned estimate (None when a probability is clipped).

    Early rank decision: given `pure`, the `mle_state_pure` report of the
    same data, the fit stops ("pure_kept", not converged) as soon as the
    bound proves that `select_rank(full, pure)` keeps `pure`, checked
    every 4th iteration.  The check does not change the iterates, so a
    fit that is not stopped early returns the same bytes as without
    `pure`, and `select_rank` returns the same pure report as after a
    full run.
    """
    counts = _fit_counts(data, model, "qst")
    early_stop = None
    if pure is not None:
        threshold = _rank_threshold(model.dim)

        def early_stop(iteration, r, rho, p, ll):
            nonlocal threshold
            if threshold is None or iteration % 4 != 1:
                return False
            if not _keeps_pure(ll, pure.log_likelihood, threshold):
                # ll never falls, so from here on no bound can pass
                threshold = None
                return False
            return (p.min() > PROB_FLOOR
                    and _keeps_pure(ll + _gap_bound(r, rho), pure.log_likelihood,
                                    threshold))

    def candidate(r, rho):
        cand = r @ rho @ r
        cand = cand / cand.trace().real
        return (cand + cand.conj().T) / 2

    rho, p, trace, iterations, stop_reason = _diluted_ascent(
        model, counts, np.eye(model.dim, dtype=complex) / model.dim,
        functools.partial(_floored_probs, model), candidate,
        lambda step, cand, rho: step * cand + (1.0 - step) * rho,
        tol, max_iter, early_stop)
    gap = None
    if p.min() > PROB_FLOOR:
        gap = _gap_bound(_hermitian_sum(model, counts / p), rho)
    return _fit_report(rho, model.probabilities(rho), data, iterations,
                       stop_reason, {"loglik_trace": np.asarray(trace),
                                     "gap_bound": gap})


def _gap_bound(r, rho):
    """lambda_max(R) - Tr(R rho), floored at 0: a bound on ll* - ll at rho."""
    return max(float(np.linalg.eigvalsh(r)[-1]) - (r @ rho).trace().real, 0.0)


def _unit(v):
    return v / np.linalg.norm(v)


def mle_state_pure(data, model, tol=1e-10, max_iter=10000):
    """Rank-1 restriction of `mle_state`: the estimate is a pure state.

    Iterates psi <- normalize((1 - DILUTION) * normalize(R psi)
    + DILUTION * psi), the vector form of the diluted fixed point, on the
    same ascent as `mle_state`, with its pull-back safeguard, stopping
    rule and `stop_reason`.  The start vector is the dominant eigenvector
    of R at the maximally mixed state; a poor local maximum only lowers
    this fit's likelihood, which `select_rank` treats as a vote for the
    full-rank fit.
    """
    counts = _fit_counts(data, model, "qst")
    p0 = _floored_probs(model, np.eye(model.dim) / model.dim)
    _, vecs = np.linalg.eigh(_hermitian_sum(model, counts / p0))
    psi, _, trace, iterations, stop_reason = _diluted_ascent(
        model, counts, vecs[:, -1],
        lambda v: _floored_probs(model, np.outer(v, v.conj())),
        lambda r, v: _unit(r @ v),
        lambda step, cand, v: _unit(step * cand + (1.0 - step) * v),
        tol, max_iter)
    rho = np.outer(psi, psi.conj())
    return _fit_report(rho, model.probabilities(rho), data, iterations,
                       stop_reason, {"loglik_trace": np.asarray(trace),
                                     "state_vector": psi})


@functools.cache
def _rank_threshold(dim):
    """Chi-squared threshold of the rank test in dimension `dim`."""
    dof = (dim * dim - 1) - (2 * dim - 2)
    # the chi-squared quantile, as scipy.stats.chi2.ppf computes it;
    # scipy.stats itself is slow to import
    return float(2.0 * scipy.special.gammaincinv(dof / 2, RANK_SIGNIFICANCE))


def _keeps_pure(ll_full, ll_pure, threshold):
    return 2.0 * (ll_full - ll_pure) <= threshold


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
    after a full run.  The dimension is that of the pure estimate, and
    the threshold is computed once per dimension and shared with that
    early stop.
    """
    threshold = _rank_threshold(pure.estimate.shape[0])
    if _keeps_pure(full.log_likelihood, pure.log_likelihood, threshold):
        return pure
    return full


def project_cptp(choi):
    """Euclidean projection of a Hermitian matrix onto the CPTP Choi matrices.

    The nearest J >= 0 with Tr_out J = I to G is J(L) = [G - L (x) I]_+,
    the positive part, where the d x d Hermitian multiplier L minimizes
    the smooth convex dual theta(L) = |[G - L (x) I]_+|^2 / 2 + Tr L,
    whose gradient is I - Tr_out J(L) (Malick 2004).  The dual is solved
    by semismooth Newton (Qi & Sun 2006): the generalized Hessian comes
    from the Loewner divided differences of max(., 0) at one
    eigendecomposition, and each step backtracks until theta passes an
    Armijo test or the residual max|Tr_out J - I| halves.  The start is
    L = (Tr_out G - I) / d, and the solve stops once the residual is at
    most CPTP_TOL, after CPTP_MAX_ITER steps, or when no step makes
    progress.  The result is positive semidefinite by construction.
    """
    g = (choi + qcore.dagger(choi)) / 2
    d2 = g.shape[0]
    d = int(round(np.sqrt(d2)))
    eye = np.eye(d)

    def evaluate(lam):
        # L (x) I by broadcasting, in the (input, output) index order
        shift = (lam[:, None, :, None] * eye[None, :, None, :]).reshape(d2, d2)
        w, v = np.linalg.eigh(g - shift)
        wp = np.maximum(w, 0.0)
        v3 = v.reshape(d, d, d2)
        # Tr_out J = sum_ap wp_p V[i,a,p] conj(V[j,a,p])
        out_trace = (v3 * wp).reshape(d, -1) @ v3.conj().reshape(d, -1).T
        resid = eye - out_trace
        theta = 0.5 * float(wp @ wp) + lam.trace().real
        return theta, resid, float(np.abs(resid).max()), w, v3

    lam = (qcore.choi_output_trace(g) - eye) / d
    theta, resid, err, w, v3 = evaluate(lam)
    for _ in range(CPTP_MAX_ITER):
        if err <= CPTP_TOL:
            break
        # divided differences of max(., 0) at the eigenvalues; a tie
        # takes the derivative, 1 above zero and 0 at or below it
        pos = w > 0
        wp = np.maximum(w, 0.0)
        gaps = w[:, None] - w[None, :]
        omega = np.divide(wp[:, None] - wp[None, :], gaps, where=gaps != 0,
                          out=(pos[:, None] & pos[None, :]).astype(float))
        # Hessian on the matrix units e_kl: M_kl = V^H (e_kl (x) I) V and
        # H[(ij), (kl)] = sum_pq conj(M_ij) * omega * M_kl, Hermitian PSD
        m = np.einsum("iap,jaq->ijpq", v3.conj(), v3).reshape(d * d, d2 * d2)
        hess = m.conj() @ (omega.ravel() * m).T
        step = np.linalg.solve(hess + 1e-12 * np.eye(d * d), -resid.ravel())
        step = step.reshape(d, d)
        step = (step + qcore.dagger(step)) / 2
        slope = float(np.vdot(step, resid).real)
        t = 1.0
        while t > 1e-10:
            trial = evaluate(lam + t * step)
            # near the solution theta cannot resolve the progress, which
            # the residual still shows
            if trial[0] <= theta + 1e-4 * t * slope or trial[2] <= err / 2:
                break
            t /= 2.0
        else:
            break
        lam = lam + t * step
        theta, resid, err, w, v3 = trial
    vd = v3.reshape(d2, d2)
    j = (vd * np.maximum(w, 0.0)) @ qcore.dagger(vd)
    return (j + qcore.dagger(j)) / 2


def mle_process(data, model, tol=0.5, max_iter=10000):
    """Maximum-likelihood Choi-matrix estimate by accelerated projected ascent.

    Ascends the log-likelihood sum_ik n_ik log Tr(J A_ik) by FISTA
    (Beck & Teboulle 2009) on the exact Euclidean projection onto the
    CPTP set (`project_cptp`), so every iterate is positive semidefinite
    and trace preserving to 1e-12.  The start is the projected
    least-squares estimate (`_process_start`): the `lsqr` solution of
    A x ~ f for the frequencies f of the circuits that got shots,
    projected onto the CPTP set and mixed with START_MIX of I/d so that
    no probability starts on PROB_FLOOR.  Each iteration takes a
    projected gradient step from the extrapolated point Y, halving the
    step until the likelihood at the result Z lies above the quadratic model
    ll(Y) + <G, Z - Y> - N |Z - Y|^2 / (2 step), with G the gradient
    and N the number of shots; the step persists between iterations,
    starts at 0.3 and grows by 1.2 after each step that passes.  The
    momentum restarts (O'Donoghue & Candes 2015) when the extrapolated
    point has a probability at or below PROB_FLOOR, and when a step from
    it would lower the likelihood, which is then not taken; a step from
    the iterate itself ascends in exact arithmetic, so the likelihood
    falls only by rounding.

    By concavity every feasible iterate bounds the maximum likelihood:
    with G = sum_ik (n_ik / p_ik) A_ik and any Hermitian L,
    ll* <= ll + Tr L + d * lambda_max(G - L (x) I) - N.
    Every 5 iterations the fit evaluates that gap for L the Hermitian
    part of Tr_out(G J) and stops with `stop_reason` "tol" once it is at
    most `tol` log-likelihood units.  The bound does not apply while a
    probability sits on PROB_FLOOR, as on exact data from a channel with
    zero-probability outcomes; there the fit instead stops with "tol"
    when a step gains less than FLOOR_GAIN per shot.  Otherwise it stops
    with "stalled" when no step passes the model test, or "max_iter";
    only "tol" counts as converged.

    `diagnostics["gap_bound"]` holds the gap at the returned estimate
    (None when a probability is clipped); `diagnostics` also reports the
    estimate's trace-preservation residual max|Tr_out J - I|
    (`tp_residual`) and smallest eigenvalue (`min_eigenvalue`).
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
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = _hermitian_sum(model, counts / p_y) / scale
        while step >= 1e-12:
            cand = project_cptp(y + step * grad)
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
        elif iterations % 5 == 0 and _process_gap(model, counts, choi, p) <= tol:
            stop_reason = "tol"
            break
        next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
        y = choi + ((momentum - 1.0) / next_momentum) * (choi - previous)
        momentum = next_momentum
        p_y = _floored_probs(model, y)
        if p_y.min() <= PROB_FLOOR:
            y, p_y, momentum = choi, p, 1.0
    gap = _process_gap(model, counts, choi, p) if p.min() > PROB_FLOOR else None
    tp_residual = np.abs(qcore.choi_output_trace(choi) - np.eye(dim)).max()
    return _fit_report(choi, model.probabilities(choi), data, iterations,
                       stop_reason,
                       {"gap_bound": gap, "tp_residual": float(tp_residual),
                        "min_eigenvalue": float(np.linalg.eigvalsh(choi)[0])})


def _process_start(data, model):
    """Start of the process fit: the projected least-squares estimate.

    Solves A x ~ f for the observed frequencies f by `lsqr` over the rows
    of circuits that got shots, projects the solution onto the CPTP set,
    and mixes in START_MIX of I/d so that no probability starts on
    PROB_FLOOR (Surawy-Stepney, Kahn, Kueng & Guta 2022).
    """
    dd = model.dim * model.dim
    rows = np.repeat(data.shots > 0, model.n_outcomes)
    design = model.matrix if rows.all() else model.matrix[rows]
    x = scipy.sparse.linalg.lsqr(design, data.frequencies().ravel()[rows])[0]
    choi = project_cptp(x.view(complex).reshape(dd, dd))
    return (1.0 - START_MIX) * choi + START_MIX * np.eye(dd) / model.dim


def _process_gap(model, counts, choi, p):
    """Certified bound on ll* - ll at the CPTP Choi matrix `choi`."""
    dim = model.dim
    g = _hermitian_sum(model, counts / p)
    lam = qcore.choi_output_trace(g @ choi)
    lam = (lam + qcore.dagger(lam)) / 2
    top = np.linalg.eigvalsh(g - np.kron(lam, np.eye(dim)))[-1]
    return max(float(lam.trace().real + dim * top - counts.sum()), 0.0)


def _stop_reason(status, max_iter_status):
    """Map a scipy optimizer status to tol, max_iter or stalled."""
    if status == 0:
        return "tol"
    return "max_iter" if status == max_iter_status else "stalled"


def _calibration_maps(dim, gate_depol_p):
    """Affine action of the calibration circuits on diagonal states.

    Circuit j sends populations a to v_j = maps[j] @ a + offsets[j]: the
    swap 0 <-> j, followed for j > 0 by the gate's depolarizing pull
    toward uniform.
    """
    maps = np.empty((dim, dim, dim))
    offsets = np.zeros((dim, dim))
    for j in range(dim):
        perm = np.arange(dim)
        perm[[0, j]] = perm[[j, 0]]
        maps[j] = np.eye(dim)[perm]
        if j > 0:
            maps[j] *= 1.0 - gate_depol_p
            offsets[j] = gate_depol_p / dim
    return maps, offsets


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


def estimate_spam_general(data, gate_depol_p=0.0):
    """Fit the full diagonal preparation-and-readout model to calibration counts.

    `data` holds counts of the `spam_calibration_circuits` family: circuit
    0 is gate free, circuit j applies one R_x(pi) on levels (0, j), which
    on a diagonal state swaps populations 0 <-> j.  Circuit j predicts
    F_j = B v_j(a) with v_j affine in the populations a, so for any a the
    response B(a) = F^T V(a)^-1 reproduces the observed frequencies F
    exactly, and every a with a >= 0 and B(a) >= 0 maximizes the
    likelihood.  These maximizers form a set of dimension d - 1 (see the
    module notes).  The fit returns the member with the largest tr B, the
    most faithful readout, found by a constrained solve over a that
    starts from ideal preparation e_0.

    When no such a exists, typically because some outcome was never
    observed, B is fitted by EM at the populations where the constrained
    solve ended.  `diagnostics["branch"]` says which route was taken
    ("closed_form" or "fallback"), and `diagnostics["min_response"]`
    holds min B(a) before clipping, or None when a circuit has no shots
    and B(a) is undefined.
    """
    dim = data.counts.shape[1]
    counts = _checked_counts(data, (dim, dim))
    if not 0.0 <= gate_depol_p <= 1.0:
        raise ValueError(f"gate_depol_p must lie in [0, 1], got {gate_depol_p}")

    maps, offsets = _calibration_maps(dim, gate_depol_p)
    # a = (1 - sum(x), x); dmaps[j, :, i] = d v_j / d x_i
    dmaps = maps[:, :, 1:] - maps[:, :, :1]

    def populations(x):
        return np.concatenate([[1.0 - x.sum()], x])

    def transfer(a):
        return (maps @ a + offsets).T

    x = np.zeros(dim - 1)
    iterations = evaluations = 0
    min_response = None
    shots = counts.sum(axis=1)
    if np.all(shots > 0):
        freq = counts / shots[:, None]

        def response(x):
            vinv = np.linalg.inv(transfer(populations(x)))
            return freq.T @ vinv, vinv

        def negative_trace(x):
            b, vinv = response(x)
            return -np.trace(b), np.einsum("km,jmi,jk->i", b, dmaps, vinv)

        def response_jacobian(x):
            b, vinv = response(x)
            return -np.einsum("km,jmi,jl->kli", b, dmaps, vinv).reshape(dim * dim, -1)

        res = scipy.optimize.minimize(
            negative_trace, x, jac=True, method="SLSQP",
            bounds=[(0.0, 1.0)] * (dim - 1),
            constraints=[
                {"type": "ineq", "fun": lambda x: response(x)[0].ravel(),
                 "jac": response_jacobian},
                {"type": "ineq", "fun": lambda x: np.array([1.0 - x.sum()]),
                 "jac": lambda x: -np.ones((1, dim - 1))}],
            options={"ftol": 1e-12, "maxiter": 200})
        x, iterations, evaluations = res.x, res.nit, res.nfev
        stop_reason = _stop_reason(res.status, 9)
        b = response(x)[0]
        min_response = float(b.min())

    a = np.clip(populations(x), 0.0, None)
    a /= a.sum()
    v = transfer(a)
    # clipping entries of order -1e-9 moves no probability by more than that
    feasible = min_response is not None and min_response >= -1e-9
    branch = "closed_form" if feasible else "fallback"
    if branch == "closed_form":
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
    probabilities (1 - b0) a + b1 (1 - a) are affine in the rates, so the
    per-shot log-likelihood is concave on the [0, RATE_MAX]^2 box.  Every
    row takes projected Newton steps from its row of `rates`: a
    coordinate at a bound whose gradient points outward, or whose Newton
    step does, stays put; the other step is the closed-form 2 x 2 solve,
    halved until it passes a projected Armijo test without lowering the
    likelihood, or until concavity bounds the gain of an unclipped step
    by RATE_GAIN.  A row stops once a step gains at most RATE_GAIN per
    shot.  Returns the rates, the per-shot log-likelihoods, the Newton
    iterations per row and whether each row stopped on its gain.
    """
    n_total = dark.sum() + clicks.sum()

    def loglik(idx, x):
        a = populations[idx]
        p = (1.0 - x[:, :1]) * a + x[:, 1:] * (1.0 - a)
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
            ok = rise >= 1e-4 * np.maximum(slope, 0.0)
            rows = idx[todo[ok]]
            x[rows], p[rows], ll[rows] = cand[ok], p_new[ok], ll_new[ok]
            gain[todo[ok]] = rise[ok]
            # by concavity no shorter step gains more than the slope of
            # an unclipped one
            clipped = (cand != full).any(axis=1)
            todo = todo[~ok & (clipped | (slope > RATE_GAIN))]
            t /= 2.0
        idx = idx[gain > RATE_GAIN]
    settled = np.ones(len(x), dtype=bool)
    settled[idx] = False
    return x, ll, iterations, settled


def estimate_spam_gibbs(data, omegas):
    """Fit the thermal readout model (T, b0, b1) to single-level read counts.

    `data` holds binary counts (no-click, click) per level from
    `simulate_level_reads`; the click probability of level j is
    (1 - b0) a_j + b1 (1 - a_j) with thermal populations a(T).  Unlike the
    general diagonal fit this three-parameter family has no gauge freedom.

    The fit maximizes the profile likelihood over T.  At fixed T the click
    probabilities are affine in (b0, b1), so the likelihood is concave on
    the [0, 0.5]^2 box and a projected Newton solve (`_fit_rates`) finds
    its maximum.  The profile over log T in [1e-6, 100] is searched on a
    coarse grid, all of whose (b0, b1) problems are solved as one batch,
    and refined by bounded Brent, each of whose evaluations starts from
    the rates of the one before.  `diagnostics["evaluations"]` counts the
    Newton iterations of every solve.
    """
    omegas = np.asarray(omegas, dtype=float)
    counts = _checked_counts(data, (omegas.size, 2))
    dark, clicks = counts[:, 0], counts[:, 1]

    def fit_rates(log_temps, rates):
        pops = np.stack([readout.gibbs_populations(np.exp(t), omegas)
                         for t in log_temps])
        return _fit_rates(dark, clicks, pops, rates)

    grid = np.linspace(np.log(1e-6), np.log(100.0), 41)
    rates, ll, iterations, settled = fit_rates(
        grid, np.full((grid.size, 2), RATE_MAX / 2))
    evaluations = int(iterations.sum())
    i = int(np.argmax(ll))
    rates = rates[i:i + 1]

    def negative_profile(log_temp):
        # each evaluation starts from the rates of the one before
        nonlocal rates, settled, evaluations
        rates, ll, iterations, settled = fit_rates([log_temp], rates)
        evaluations += int(iterations[0])
        return -ll[0]

    outer = scipy.optimize.minimize_scalar(
        negative_profile, method="bounded",
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        options={"xatol": 1e-10, "maxiter": 500})
    negative_profile(outer.x)
    temp = float(np.exp(outer.x))
    b0, b1 = (float(v) for v in rates[0])
    stop_reason = _stop_reason(outer.status, 1)
    if stop_reason == "tol" and not settled[0]:
        stop_reason = "max_iter"
    a = readout.gibbs_populations(temp, omegas)
    p_fit = (1.0 - b0) * a + b1 * (1.0 - a)
    return _fit_report({"temperature": temp, "b0": b0, "b1": b1},
                       np.stack([1.0 - p_fit, p_fit], axis=1), data,
                       int(outer.nit), stop_reason,
                       {"populations": a, "predicted_click_probs": p_fit,
                        "evaluations": evaluations})

"""Reconstruction: state and process MLE, SPAM calibration fits.

Exact-probability datasets (counts proportional to the model's own
probabilities) isolate the optimizers from sampling noise and must be
recovered to tight tolerances; sampled datasets check statistical
behavior at fixed seeds.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg
import scipy.stats

from qudittomo import protocols, qcore, readout, recon, sim

from helpers import ket, per_circuit_operators


# thermal initialization (T = 1) and cascade readout (b0 = 0.01, b1 = 0.02)
THERMAL_SPAM = readout.gibbs_cascade_model(3, 1.0, (0.0, 4.0, 6.0), 0.01, 0.02)
THERMAL_CLICKS = readout.level_clicks(THERMAL_SPAM.populations, 0.01, 0.02)


def exact_dataset(protocol, truth, noise, shots=10 ** 6):
    """Counts equal to shots times the exact outcome probabilities."""
    probs = np.stack([sim.circuit_probabilities(c, truth, noise, check=False)
                      for c in protocol.circuits])
    n = len(protocol.circuits)
    per = np.full(n, float(shots))
    return sim.CountsDataset(tuple(c.label for c in protocol.circuits),
                             per, probs * shots)


class TestMeasurementModel:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("family", ["qst_two_level", "mub_protocol",
                                        "qpt_two_level"])
    def test_ideal_qst_operators_are_rotated_projectors(self, family, dim):
        # the gate-by-gate build against the product unitaries of the
        # circuits: U^H P_k U, and rho_i^T (x) U^H P_k U for processes
        from qudittomo.circuits import sequence_unitary
        protocol = getattr(protocols, family)(dim)
        model = recon.build_measurement_model(protocol)
        rho0 = qcore.projector(ket(0, dim))
        for c, circuit in enumerate(protocol.circuits):
            mu = sequence_unitary(circuit.meas, dim)
            pu = sequence_unitary(circuit.prep, dim)
            rho_i = pu @ rho0 @ qcore.dagger(pu)
            for k in range(dim):
                pk = np.zeros((dim, dim), dtype=complex)
                pk[k, k] = 1.0
                want = qcore.dagger(mu) @ pk @ mu
                if protocol.kind == "qpt":
                    want = np.kron(rho_i.T, want)
                assert np.max(np.abs(model.operators[c, k] - want)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("family", ["qst_two_level", "mub_protocol",
                                        "qpt_two_level"])
    def test_real_design_matrix_matches_einsum(self, family, dim):
        protocol = getattr(protocols, family)(dim)
        spam = readout.gibbs_cascade_model(dim, 1.0, np.arange(dim), 0.01, 0.02)
        model = recon.build_measurement_model(protocol, spam=spam)
        ops = model.operators
        dd = ops.shape[-1]
        assert model.matrix.shape == (model.n_circuits * model.n_outcomes, 2 * dd * dd)
        assert np.shares_memory(model.matrix, model.operators)
        rng = qcore.make_rng(24, f"matrix-{family}-{dim}")
        # a non-Hermitian x: Re Tr(A x) holds for any x when A is Hermitian
        x = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        want = np.real(np.einsum("ckij,ji->ck", ops, x))
        assert np.max(np.abs(model.probabilities(x) - want)) < 1e-12
        # the fits' flat, floored probabilities are the same product
        assert np.array_equal(recon._floored_probs(model, x), np.maximum(
            model.probabilities(x).ravel(), recon.PROB_FLOOR))
        w = rng.uniform(0.0, 2.0, size=model.n_circuits * model.n_outcomes)
        want = np.einsum("n,nij->ij", w, ops.reshape(-1, dd, dd))
        assert np.max(np.abs(model.weighted_sum(w) - want)) < 1e-12

    @pytest.mark.parametrize("gate_depol_p", [0.0, 1e-3])
    @pytest.mark.parametrize("spam", ["ideal", "thermal"])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("family", [
        "qst_two_level", "mub_protocol", "qpt_two_level",
        "spam_calibration_circuits", "shuffled_qpt"])
    def test_shared_gate_tuples_match_the_per_circuit_build(self, family, dim,
                                                            spam, gate_depol_p):
        # the build evolves each distinct preparation and setting once; a
        # shuffled process protocol scatters the circuits that share one
        if family == "shuffled_qpt":
            circuits = list(protocols.qpt_two_level(dim).circuits)
            order = qcore.make_rng(25, f"shuffle-{dim}").permutation(len(circuits))
            protocol = protocols.TomographyProtocol(
                "qpt", dim, [circuits[i] for i in order])
        else:
            protocol = getattr(protocols, family)(dim)
        spam = (None if spam == "ideal" else
                readout.gibbs_cascade_model(dim, 1.0, np.arange(dim), 0.01, 0.02))
        model = recon.build_measurement_model(protocol, spam, gate_depol_p)
        want = per_circuit_operators(protocol, spam, gate_depol_p)
        assert np.array_equal(model.operators.view(np.uint64), want.view(np.uint64))

    def test_true_spam_model_matches_simulator(self):
        # with no gate noise, model probabilities equal simulated ones
        noise = sim.NoiseConfig(spam=THERMAL_SPAM)
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol, spam=THERMAL_SPAM)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(21))), 0.3)
        want = np.stack([sim.circuit_probabilities(c, truth, noise, check=False)
                         for c in protocol.circuits])
        got = model.probabilities(truth)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_folded_gate_noise_matches_simulator(self):
        noise = sim.NoiseConfig(gate_depol_p=0.02)
        protocol = protocols.qpt_two_level(2)
        model = recon.build_measurement_model(protocol, gate_depol_p=0.02)
        choi = qcore.choi_from_unitary(qcore.haar_unitary(2, qcore.make_rng(22)))
        want = np.stack([sim.circuit_probabilities(c, choi, noise, check=False)
                         for c in protocol.circuits])
        got = model.probabilities(choi)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("gate_depol_p", [0.0, 0.02])
    @pytest.mark.parametrize("spam", ["gibbs-cascade", "explicit"])
    @pytest.mark.parametrize("truth_kind", ["none", "state", "choi"])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_simulated_probabilities_match_oracle(self, dim, truth_kind, spam,
                                                  gate_depol_p):
        # the simulator's forward model against the gate-by-gate
        # Schrodinger-picture reference, circuit by circuit
        rng = qcore.make_rng(23, f"oracle-{dim}-{truth_kind}-{spam}")
        if spam == "gibbs-cascade":
            model = readout.gibbs_cascade_model(
                dim, 1.0, np.linspace(0.0, 6.0, dim), 0.01, 0.02)
        else:
            a = rng.uniform(0.05, 1.0, size=dim)
            b = rng.uniform(0.05, 1.0, size=(dim, dim))
            model = readout.DiagonalSpamModel(a / a.sum(),
                                              b / b.sum(axis=0, keepdims=True))
        noise = sim.NoiseConfig(gate_depol_p=gate_depol_p, spam=model)
        if truth_kind == "state":
            protocol = protocols.TomographyProtocol(
                "qst", dim, protocols.qst_two_level(dim).circuits
                + protocols.mub_protocol(dim).circuits[1:])
            truth = qcore.depolarize(
                qcore.projector(qcore.haar_state(dim, rng)), 0.1)
        else:
            protocol = protocols.qpt_two_level(dim)
            truth = None if truth_kind == "none" else qcore.choi_depolarize(
                qcore.choi_from_unitary(qcore.haar_unitary(dim, rng)), 0.1)
        got = sim.outcome_probabilities(protocol, truth, noise)
        want = np.stack([sim.circuit_probabilities(c, truth, noise)
                         for c in protocol.circuits])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    def test_qst_circuits_with_prep_gates_are_rejected(self):
        protocol = protocols.qpt_two_level(2)
        bad = protocols.TomographyProtocol("qst", 2, protocol.circuits[-3:])
        with pytest.raises(ValueError):
            recon.build_measurement_model(bad)

    def test_bad_spam_and_gate_noise_are_rejected(self):
        protocol = protocols.qst_two_level(3)
        with pytest.raises(ValueError, match="SPAM dimension 2 != protocol dimension 3"):
            recon.build_measurement_model(protocol, spam=readout.ideal_spam_model(2))
        for gate_depol_p in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"gate_depol_p must lie in \[0, 1\]"):
                recon.build_measurement_model(protocol, gate_depol_p=gate_depol_p)


class TestLikelihoodFitInputs:
    @pytest.mark.parametrize("fit", ["mle_state", "mle_state_pure", "mle_process"])
    def test_bad_inputs_are_rejected(self, fit, monkeypatch):
        # a model of the other kind, circuits out of order, and no counts
        qst, qpt = protocols.qst_two_level(2), protocols.qpt_two_level(2)
        protocol, other = (qpt, qst) if fit == "mle_process" else (qst, qpt)
        truth = (qcore.choi_from_unitary(np.eye(2)) if fit == "mle_process"
                 else np.eye(2) / 2)
        monkeypatch.setattr(recon, "PROCESS_MAX_ITER" if fit == "mle_process"
                            else "STATE_MAX_ITER", 2)
        fit = getattr(recon, fit)
        model = recon.build_measurement_model(protocol)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 2_000, seed=0)
        assert fit(data, model).iterations == 2
        with pytest.raises(ValueError, match=f"{protocol.kind!r} model"):
            fit(data, recon.build_measurement_model(other))
        reversed_labels = sim.CountsDataset(data.labels[::-1], data.shots,
                                            data.counts)
        with pytest.raises(ValueError, match="circuits do not match"):
            fit(reversed_labels, model)
        empty = sim.CountsDataset(data.labels, np.zeros_like(data.shots),
                                  np.zeros_like(data.counts))
        with pytest.raises(ValueError, match="no counts"):
            fit(empty, model)


class TestMleState:
    def test_exact_counts_recover_the_state(self):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(30))), 0.1)
        report = recon.mle_state(exact_dataset(protocol, truth, sim.NoiseConfig()),
                                 model)
        assert report.converged
        assert qcore.fidelity(report.estimate, truth, check=False) >= 1.0 - 1e-6

    def test_maximally_mixed_truth_at_large_shots(self):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        data = sim.run_protocol(protocol, np.eye(3) / 3, sim.NoiseConfig(),
                                10 ** 6, seed=31)
        report = recon.mle_state(data, model)
        assert qcore.infidelity(report.estimate, np.eye(3) / 3, check=False) <= 1e-3

    def test_estimate_is_a_valid_state(self):
        protocol = protocols.mub_protocol(3)
        model = recon.build_measurement_model(protocol)
        for trial in range(10):
            rng = qcore.make_rng(600, "state-valid", trial)
            truth = qcore.depolarize(qcore.projector(qcore.haar_state(3, rng)), 0.05)
            data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 2_000,
                                    seed=qcore.derive_seed(600, "sv-data", trial))
            report = recon.mle_state(data, model)
            qcore.check_density_matrix(report.estimate)
            assert np.array_equal(report.estimate, report.estimate.conj().T)

    @pytest.mark.parametrize("fit", ["mle_state", "mle_state_pure"])
    def test_loglik_trace_is_monotone_on_fuzzed_datasets(self, fit):
        fit = getattr(recon, fit)
        protocols_by_dim = {2: protocols.qst_two_level(2),
                            3: protocols.qst_two_level(3)}
        models = {d: recon.build_measurement_model(p)
                  for d, p in protocols_by_dim.items()}
        for trial in range(100):
            rng = qcore.make_rng(601, "monotone", trial)
            dim = int(rng.integers(2, 4))
            truth = qcore.depolarize(
                qcore.projector(qcore.haar_state(dim, rng)),
                float(rng.uniform(0, 0.5)))
            data = sim.run_protocol(
                protocols_by_dim[dim], truth, sim.NoiseConfig(),
                int(rng.integers(50, 5_000)),
                seed=qcore.derive_seed(601, "monotone-data", trial))
            report = fit(data, models[dim])
            trace = report.diagnostics["loglik_trace"]
            assert np.all(np.diff(trace) >= -1e-9)
            assert report.converged

    def test_accuracy_improves_with_shots(self):
        # interior truth, so the error scales like 1/N without boundary
        # pile-up and a 100x shot increase must buy at least 10x
        protocol = protocols.qst_two_level(2)
        model = recon.build_measurement_model(protocol)
        medians = []
        for n_shots in (1_000, 100_000):
            infids = []
            for trial in range(20):
                rng = qcore.make_rng(602, f"scale-{n_shots}", trial)
                truth = qcore.depolarize(
                    qcore.projector(qcore.haar_state(2, rng)), 0.2)
                data = sim.run_protocol(
                    protocol, truth, sim.NoiseConfig(), n_shots,
                    seed=qcore.derive_seed(602, f"scale-data-{n_shots}", trial))
                report = recon.mle_state(data, model)
                infids.append(qcore.infidelity(report.estimate, truth, check=False))
            medians.append(np.median(infids))
        assert medians[1] < medians[0] / 10


class TestPureStateFit:
    def test_exact_counts_recover_a_pure_truth(self):
        protocol = protocols.mub_protocol(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.projector(qcore.haar_state(3, qcore.make_rng(40)))
        report = recon.mle_state_pure(
            exact_dataset(protocol, truth, sim.NoiseConfig()), model)
        assert report.converged
        assert qcore.fidelity(report.estimate, truth, check=False) >= 1.0 - 1e-8

    def test_estimate_has_rank_one(self):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(41))), 0.01)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 1_000, seed=41)
        report = recon.mle_state_pure(data, model)
        w = np.linalg.eigvalsh(report.estimate)
        assert w[-1] > 1.0 - 1e-10
        assert np.max(np.abs(w[:-1])) < 1e-10
        qcore.check_density_matrix(report.estimate)
        assert np.array_equal(report.estimate, report.estimate.conj().T)

    def test_restricted_likelihood_never_beats_full(self, monkeypatch):
        # nesting holds at the optima; the full fit runs at a tight
        # tolerance so its stopping error does not mask the inequality
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        for trial in range(20):
            rng = qcore.make_rng(603, "nested", trial)
            truth = qcore.depolarize(
                qcore.projector(qcore.haar_state(3, rng)),
                float(rng.uniform(0, 0.3)))
            data = sim.run_protocol(
                protocol, truth, sim.NoiseConfig(),
                int(rng.integers(500, 20_000)),
                seed=qcore.derive_seed(603, "nested-data", trial))
            with monkeypatch.context() as tight:
                tight.setattr(recon, "STATE_TOL", 1e-13)
                full = recon.mle_state(data, model)
            pure = recon.mle_state_pure(data, model)
            assert pure.log_likelihood <= full.log_likelihood + 1e-6

    def test_rank_selection_prefers_pure_near_the_boundary(self):
        # small samples from a near-pure truth: the restricted fit wins
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(42))), 0.01)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 1_000, seed=42)
        full = recon.mle_state(data, model)
        pure = recon.mle_state_pure(data, model)
        assert recon.select_rank(full, pure) is pure

    def test_rank_selection_rejects_pure_for_mixed_truth(self):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(43))), 0.3)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 10 ** 6, seed=43)
        full = recon.mle_state(data, model)
        pure = recon.mle_state_pure(data, model)
        assert recon.select_rank(full, pure) is full


class TestRankDeficientStates:
    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("build", [protocols.qst_two_level,
                                       protocols.mub_protocol],
                             ids=["two_level", "mub"])
    def test_exact_counts(self, build, dim, rank):
        # exact counts make the truth the maximum-likelihood state, on the
        # boundary of the state set
        protocol = build(dim)
        model = recon.build_measurement_model(protocol)
        vecs = qcore.haar_unitary(dim, qcore.make_rng(611, "rank-deficient", dim))
        weights = (1.0,) if rank == 1 else (0.7, 0.3)
        truth = sum(w * qcore.projector(vecs[:, k]) for k, w in enumerate(weights))
        data = exact_dataset(protocol, truth, sim.NoiseConfig())
        full = recon.mle_state(data, model)
        pure = recon.mle_state_pure(data, model)
        qcore.check_density_matrix(full.estimate)
        # the full fit approaches a boundary maximum slowly and stops up to
        # 4e-4 short of it in infidelity
        assert qcore.fidelity(full.estimate, truth, check=False) >= 1.0 - 1e-3
        gap = full.diagnostics["gap_bound"]
        floored = model.probabilities(full.estimate).min() <= recon.PROB_FLOOR
        assert (gap is None) == floored
        if gap is not None:
            counts = np.asarray(data.counts, dtype=float).ravel()
            best = float(counts @ np.log(np.maximum(
                model.probabilities(truth).ravel(), recon.PROB_FLOOR)))
            assert best <= full.log_likelihood + gap + 1e-3
        assert pure.converged
        if rank == 1:
            assert recon.select_rank(full, pure) is pure
            assert qcore.fidelity(pure.estimate, truth, check=False) >= 1.0 - 1e-8


def reference_state_fit(data, model, rank_one=False, pure=None):
    """The diluted state fits in their plain form: the oracle of `mle_state`.

    R = sum_n (c_n / p_n) A_n is symmetrized at every iterate; the full-rank
    candidate is N[R rho R], normalized by its trace and symmetrized, and
    the step is step * cand + (1 - step) * rho.  With `rank_one` it is the
    vector form of `mle_state_pure`, psi <- unit(step * unit(R psi)
    + (1 - step) * psi), started at the top eigenvector of R at I/d.
    Halving, stops and the early rank decision (given `pure`) are those
    documented.  Returns (estimate, log-likelihood, iterations, stop_reason).
    """
    dilution = 0.1
    counts = np.asarray(data.counts, dtype=float).ravel()

    def probs_of(x):
        rho = np.outer(x, x.conj()) if rank_one else x
        return np.maximum(model.probabilities(rho).ravel(), recon.PROB_FLOOR)

    def hermitian_r(p):
        s = model.weighted_sum(counts / p)
        return (s + s.conj().T) / 2

    def unit(v):
        return v / np.linalg.norm(v)

    def mix(step, cand, x):
        x_new = step * cand + (1.0 - step) * x
        return unit(x_new) if rank_one else x_new

    if rank_one:
        p0 = np.maximum(model.probabilities(np.eye(model.dim) / model.dim).ravel(),
                        recon.PROB_FLOOR)
        x = np.linalg.eigh(hermitian_r(p0))[1][:, -1]
    else:
        x = np.eye(model.dim, dtype=complex) / model.dim
    min_gain = recon.STATE_TOL * max(counts.sum(), 1.0)
    p = probs_of(x)
    ll = float(counts @ np.log(p))
    stop_reason, iterations = "max_iter", 0
    for iterations in range(1, recon.STATE_MAX_ITER + 1):
        r = hermitian_r(p)
        if (pure is not None and iterations % 4 == 1
                and recon._keeps_pure(ll, pure)):
            gap = recon._optimality_gap(model, x, p, counts)
            if gap is not None and recon._keeps_pure(ll + gap, pure):
                stop_reason = "pure_kept"
                break
        if rank_one:
            cand = unit(r @ x)
        else:
            cand = r @ x @ r
            cand = cand / cand.trace().real
            cand = (cand + cand.conj().T) / 2
        step = 1.0 - dilution
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
        if gain < min_gain:
            stop_reason = "tol"
            break
    estimate = np.outer(x, x.conj()) if rank_one else x
    ll = float(counts @ np.log(np.maximum(model.probabilities(estimate).ravel(),
                                          recon.PROB_FLOOR)))
    return estimate, ll, iterations, stop_reason


ORACLE_CASES = [(build, dim, n_shots)
                for dim in (2, 3, 5)
                for build in ("qst_two_level", "mub_protocol")
                for n_shots in (1_000, 1_000_000)] + ["zero-count"]


def oracle_dataset(case):
    """(model, data) of an ORACLE_CASES entry: a near-pure truth under gate
    noise, or exact counts from a basis state, which leave zero counts."""
    if case == "zero-count":
        protocol = protocols.qst_two_level(3)
        data = exact_dataset(protocol, qcore.projector(ket(0, 3)),
                             sim.NoiseConfig(), shots=10 ** 4)
        return recon.build_measurement_model(protocol), data
    build, dim, n_shots = case
    protocol = getattr(protocols, build)(dim)
    rng = qcore.make_rng(607, f"oracle-{build}-{dim}-{n_shots}")
    truth = qcore.depolarize(qcore.projector(qcore.haar_state(dim, rng)), 0.01)
    data = sim.run_protocol(protocol, truth, sim.NoiseConfig(gate_depol_p=0.001),
                            n_shots, seed=qcore.derive_seed(
                                607, f"oracle-data-{build}-{dim}", n_shots))
    return recon.build_measurement_model(protocol), data


class TestDilutedAscentOracle:
    # the fits fold the trace normalization into the step and symmetrize
    # only the returned estimate; in float64 that moves no stop and leaves
    # the results within rounding of the plain iteration
    @staticmethod
    def assert_matches(report, want):
        estimate, ll, iterations, stop_reason = want
        assert report.iterations == iterations
        assert report.diagnostics["stop_reason"] == stop_reason
        assert np.max(np.abs(report.estimate - estimate)) <= 1e-12
        assert abs(report.log_likelihood - ll) <= 1e-12 * abs(ll)

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: (
        c if isinstance(c, str) else "-".join(map(str, c))))
    def test_fits_match_the_plain_iteration(self, case):
        model, data = oracle_dataset(case)
        if case == "zero-count":
            assert np.any(data.counts == 0)
        pure = recon.mle_state_pure(data, model)
        self.assert_matches(pure, reference_state_fit(data, model, rank_one=True))
        self.assert_matches(recon.mle_state(data, model),
                            reference_state_fit(data, model))
        self.assert_matches(recon.mle_state(data, model, pure=pure),
                            reference_state_fit(data, model, pure=pure))

    def test_early_rank_stop_matches_the_plain_iteration(self):
        model, data = oracle_dataset(ORACLE_CASES[0])
        pure = recon.mle_state_pure(data, model)
        early = recon.mle_state(data, model, pure=pure)
        assert early.diagnostics["stop_reason"] == "pure_kept"
        self.assert_matches(early, reference_state_fit(data, model, pure=pure))


class TestStateFitReports:
    def test_stop_reason_sets_converged(self, monkeypatch):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(44))), 0.1)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 5_000, seed=44)
        for fit in (recon.mle_state, recon.mle_state_pure):
            done = fit(data, model)
            assert done.converged and done.diagnostics["stop_reason"] == "tol"
            with monkeypatch.context() as short:
                short.setattr(recon, "STATE_MAX_ITER", 3)
                cut = fit(data, model)
            assert cut.iterations == 3 and not cut.converged
            assert cut.diagnostics["stop_reason"] == "max_iter"
        gap = recon.mle_state(data, model).diagnostics["gap_bound"]
        assert gap is not None and gap >= 0.0

    def test_stall_is_not_converged(self, monkeypatch):
        # probabilities that fall by a factor 1000 after the start: no
        # pulled-back step can ascend
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        data = sim.run_protocol(protocol, np.eye(3) / 3, sim.NoiseConfig(), 5_000,
                                seed=44)
        floored = recon._floored_probs
        calls = []

        def falling(model, x):
            calls.append(x)
            return floored(model, x) * (1.0 if len(calls) == 1 else 1e-3)

        monkeypatch.setattr(recon, "_floored_probs", falling)
        report = recon.mle_state(data, model)
        assert report.diagnostics["stop_reason"] == "stalled"
        assert not report.converged and report.iterations == 1

    def test_rank_threshold_is_the_chi2_quantile(self):
        # exact 0.95 quantiles of chi-squared with (d - 1)^2 degrees of
        # freedom, computed with mpmath 1.3.0 at 40 digits
        exact = {2: 3.8414588206941244691, 3: 9.4877290367811546009,
                 4: 16.918977604620447059, 5: 26.296227604864236145,
                 6: 37.652484133482774355, 7: 50.998460165710641649}
        for dim, quantile in exact.items():
            tail = recon._chi2_tail(quantile, (dim - 1) ** 2)
            assert abs(tail - (1.0 - recon.RANK_SIGNIFICANCE)) <= 1e-15
            # the test keeps pure just below the quantile, rejects it just above
            pure = SimpleNamespace(log_likelihood=0.0, estimate=np.eye(dim))
            below = SimpleNamespace(log_likelihood=quantile * (1 - 1e-9) / 2)
            above = SimpleNamespace(log_likelihood=quantile * (1 + 1e-9) / 2)
            assert recon.select_rank(below, pure) is pure
            assert recon.select_rank(above, pure) is above
            # an early-stopped full fit can lie below pure; the statistic is
            # clamped at 0, whose square root the odd-dof tail takes
            stopped = SimpleNamespace(log_likelihood=-5.0)
            assert recon.select_rank(stopped, pure) is pure

    def test_chi2_tail_matches_scipy(self):
        for dof in range(1, 37):
            x = np.linspace(0.0, 3 * dof + 30, 201)
            got = [recon._chi2_tail(float(v), dof) for v in x]
            np.testing.assert_allclose(got, scipy.stats.chi2.sf(x, dof), rtol=1e-13)


def _rank_datasets():
    """(dim, model, data) over both protocols, d = 2, 3, 5 and N = 1e3..1e5."""
    for dim in (2, 3, 5):
        for build in (protocols.qst_two_level, protocols.mub_protocol):
            protocol = build(dim)
            model = recon.build_measurement_model(protocol)
            for n_shots in (1_000, 10_000, 100_000):
                for trial in range(3):
                    rng = qcore.make_rng(604, f"rank-{dim}-{build.__name__}-{n_shots}",
                                         trial)
                    truth = qcore.depolarize(
                        qcore.projector(qcore.haar_state(dim, rng)),
                        float(rng.choice([0.0, 0.01, 0.1])))
                    data = sim.run_protocol(
                        protocol, truth, sim.NoiseConfig(gate_depol_p=0.001),
                        n_shots, seed=qcore.derive_seed(604, "rank-data", trial))
                    yield dim, model, data


class TestEarlyRankDecision:
    def test_selection_matches_a_full_run(self):
        decisions = []
        early_stops = 0
        for dim, model, data in _rank_datasets():
            pure = recon.mle_state_pure(data, model)
            plain = recon.mle_state(data, model)
            early = recon.mle_state(data, model, pure=pure)
            want = recon.select_rank(plain, pure)
            got = recon.select_rank(early, pure)
            assert (got is pure) == (want is pure)
            assert np.array_equal(got.estimate, want.estimate)
            assert got.log_likelihood == want.log_likelihood
            if early.diagnostics["stop_reason"] == "pure_kept":
                early_stops += 1
                assert got is pure and not early.converged
                assert early.iterations < plain.iterations
            else:
                assert np.array_equal(early.estimate, plain.estimate)
                assert early.iterations == plain.iterations
            decisions.append(want is pure)
        assert len(decisions) >= 40
        assert early_stops > 0
        assert 0 < sum(decisions) < len(decisions)

    def test_bound_covers_a_tight_fit(self, monkeypatch):
        # every iterate's ll + gap bounds the best attainable likelihood
        for dim, build, n_shots, depol in ((2, protocols.qst_two_level, 1_000, 0.0),
                                           (3, protocols.qst_two_level, 100_000, 0.05),
                                           (3, protocols.mub_protocol, 10_000, 0.01),
                                           (5, protocols.mub_protocol, 10_000, 0.1)):
            protocol = build(dim)
            model = recon.build_measurement_model(protocol)
            rng = qcore.make_rng(605, "bound", dim)
            truth = qcore.depolarize(qcore.projector(qcore.haar_state(dim, rng)),
                                     depol)
            data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), n_shots,
                                    seed=qcore.derive_seed(605, "bound-data", dim))
            with monkeypatch.context() as tight:
                tight.setattr(recon, "STATE_TOL", 1e-13)
                best = recon.mle_state(data, model).log_likelihood
            for k in (1, 2, 5, 20, 100, 400):
                with monkeypatch.context() as short:
                    short.setattr(recon, "STATE_MAX_ITER", k)
                    cut = recon.mle_state(data, model)
                gap = cut.diagnostics["gap_bound"]
                assert gap is not None
                assert cut.log_likelihood + gap >= best - 1e-6

    def test_clipped_probabilities_never_certify(self):
        # a readout level that never fires puts a zero operator in the
        # model: its probability sits on PROB_FLOOR at every iterate, the
        # concavity bound is not taken there, and the fit runs to its tol
        protocol = protocols.qst_two_level(3)
        spam = readout.DiagonalSpamModel(
            [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        model = recon.build_measurement_model(protocol, spam=spam)
        rng = qcore.make_rng(606)
        for depol in (0.0, 0.3):
            truth = qcore.depolarize(qcore.projector(qcore.haar_state(3, rng)), depol)
            probs = np.clip(model.probabilities(truth), 0.0, None)
            counts = np.stack([rng.multinomial(20_000, q / q.sum()) for q in probs])
            data = sim.CountsDataset(model.labels, counts.sum(axis=1), counts)
            assert np.all(counts[:, 2] == 0)
            pure = recon.mle_state_pure(data, model)
            plain = recon.mle_state(data, model)
            early = recon.mle_state(data, model, pure=pure)
            assert early.diagnostics["stop_reason"] == "tol"
            assert early.diagnostics["gap_bound"] is None
            assert early.iterations == plain.iterations
            assert np.array_equal(early.estimate, plain.estimate)

    def test_zero_count_cells_keep_the_decision(self, monkeypatch):
        # a basis-state truth leaves zero-count cells whose probabilities
        # the tight fit drives below PROB_FLOOR; a stop may fire only from
        # an unclipped iterate, and the selection is that of a full run
        monkeypatch.setattr(recon, "STATE_TOL", 1e-13)
        for build in (protocols.qst_two_level, protocols.mub_protocol):
            protocol = build(3)
            model = recon.build_measurement_model(protocol)
            data = exact_dataset(protocol, qcore.projector(ket(0, 3)),
                                 sim.NoiseConfig(), shots=10 ** 4)
            assert np.any(data.counts == 0)
            pure = recon.mle_state_pure(data, model)
            plain = recon.mle_state(data, model)
            assert model.probabilities(plain.estimate).min() <= recon.PROB_FLOOR
            assert plain.diagnostics["gap_bound"] is None
            early = recon.mle_state(data, model, pure=pure)
            assert early.diagnostics["stop_reason"] == "pure_kept"
            assert model.probabilities(early.estimate).min() > recon.PROB_FLOOR
            assert early.diagnostics["gap_bound"] is not None
            want = recon.select_rank(plain, pure)
            assert want is pure and recon.select_rank(early, pure) is pure


class TestMleProcess:
    def test_exact_counts_recover_the_identity_channel(self):
        protocol = protocols.qpt_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_from_unitary(np.eye(3))
        report = recon.mle_process(
            exact_dataset(protocol, truth, sim.NoiseConfig(), shots=10 ** 5), model)
        assert report.converged
        assert qcore.process_fidelity(report.estimate, truth) >= 1.0 - 1e-5

    def test_estimate_is_trace_preserving(self):
        protocol = protocols.qpt_two_level(2)
        model = recon.build_measurement_model(protocol)
        rng = qcore.make_rng(50)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(2, rng)), 0.01)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 20_000, seed=50)
        report = recon.mle_process(data, model)
        tp = qcore.choi_output_trace(report.estimate)
        assert np.max(np.abs(tp - np.eye(2))) < 1e-6

    def test_estimates_are_cptp_under_fuzzing(self):
        protocol = protocols.qpt_two_level(2)
        model = recon.build_measurement_model(protocol)
        for trial in range(10):
            rng = qcore.make_rng(604, "cptp", trial)
            truth = qcore.choi_depolarize(
                qcore.choi_from_unitary(qcore.haar_unitary(2, rng)),
                float(rng.uniform(0, 0.2)))
            data = sim.run_protocol(
                protocol, truth, sim.NoiseConfig(),
                int(rng.integers(100, 5_000)),
                seed=qcore.derive_seed(604, "cptp-data", trial))
            report = recon.mle_process(data, model)
            qcore.check_choi(report.estimate, atol_tp=1e-6)

    def test_report_gives_stop_reason_and_feasibility(self, monkeypatch):
        protocol = protocols.qpt_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_from_unitary(np.eye(3))
        data = exact_dataset(protocol, truth, sim.NoiseConfig(), shots=10 ** 5)
        report = recon.mle_process(data, model)
        diag = report.diagnostics
        assert diag["stop_reason"] == "tol" and report.converged
        assert diag["tp_residual"] <= 1e-12
        assert diag["min_eigenvalue"] >= -1e-12
        # the identity channel leaves zero-probability outcomes, which the
        # fit drives onto PROB_FLOOR, so the bound does not apply
        assert diag["gap_bound"] is None
        # on exact data the least-squares start is already the answer, so
        # the iteration cap is checked on sampled data
        sampled = sim.run_protocol(protocol, qcore.choi_depolarize(truth, 0.05),
                                   sim.NoiseConfig(), 10 ** 5, seed=56)
        monkeypatch.setattr(recon, "PROCESS_MAX_ITER", 3)
        short = recon.mle_process(sampled, model)
        assert short.diagnostics["stop_reason"] == "max_iter"
        assert not short.converged and short.iterations == 3
        # a projection that takes no Newton step leaves the iterates off
        # the trace-preserving set, where the gap bound does not hold
        monkeypatch.undo()
        monkeypatch.setattr(recon, "CPTP_MAX_ITER", 0)
        off = recon.mle_process(sampled, model)
        assert off.diagnostics["stop_reason"] == "infeasible" and not off.converged
        assert off.diagnostics["tp_residual"] > qcore.ATOL_TRACE_PRESERVING
        assert off.diagnostics["gap_bound"] is None

    @pytest.mark.parametrize("dim,shots,seed", [(2, 2_000, 52), (2, 20_000, 53),
                                                (3, 100_000, 54)])
    def test_gap_bound_covers_a_tight_refit(self, dim, shots, seed, monkeypatch):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            0.05)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        report = recon.mle_process(data, model)
        monkeypatch.setattr(recon, "PROCESS_TOL", 1e-3)
        tight = recon.mle_process(data, model)
        gap = report.diagnostics["gap_bound"]
        assert gap is not None and gap <= 1e-4 * data.counts.sum()
        assert tight.log_likelihood - report.log_likelihood <= gap
        assert tight.diagnostics["gap_bound"] <= gap

    @pytest.mark.parametrize("dim,shots,seed,tol", [(2, 5_000, 56, 0.5),
                                                    (3, 10 ** 6, 57, 0.5),
                                                    (3, 100_000, 58, 0.05)])
    def test_tol_stop_certifies_its_gap(self, dim, shots, seed, tol, monkeypatch):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            0.02)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        monkeypatch.setattr(recon, "PROCESS_TOL", tol)
        report = recon.mle_process(data, model)
        gap = report.diagnostics["gap_bound"]
        assert report.diagnostics["stop_reason"] == "tol" and report.converged
        assert gap is not None and gap <= tol
        monkeypatch.setattr(recon, "PROCESS_TOL", 1e-3)
        refit = recon.mle_process(data, model)
        assert refit.log_likelihood - report.log_likelihood <= gap

    def test_d5_fit_certifies_and_is_cptp(self):
        protocol = protocols.qpt_two_level(5)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(5, qcore.make_rng(59))),
            0.02)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 100_000, seed=59)
        report = recon.mle_process(data, model)
        diag = report.diagnostics
        assert diag["stop_reason"] == "tol" and report.converged
        assert diag["gap_bound"] is not None and diag["gap_bound"] <= 0.5
        assert diag["tp_residual"] <= 1e-12
        assert diag["min_eigenvalue"] >= -1e-12

    def test_stall_is_not_converged(self, monkeypatch):
        # a projection that gives no usable point fails every step test
        protocol = protocols.qpt_two_level(2)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_from_unitary(qcore.haar_unitary(2, qcore.make_rng(52)))
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 2_000, seed=52)
        # the first projection (the start) is real, every later one fails
        project = recon.project_cptp
        calls = []

        def failing(g, *args, **kwargs):
            calls.append(g)
            return (project(g, *args, **kwargs) if len(calls) == 1
                    else np.full_like(g, np.nan))

        monkeypatch.setattr(recon, "project_cptp", failing)
        report = recon.mle_process(data, model)
        assert report.diagnostics["stop_reason"] == "stalled"
        assert not report.converged and report.iterations == 1

    @pytest.mark.parametrize("dim,shots,unmeasured", [(2, 7, 5), (3, 40, 23)])
    def test_circuits_without_shots_leave_a_feasible_fit(self, dim, shots,
                                                         unmeasured):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(55))),
            0.05)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=55)
        assert np.count_nonzero(data.shots == 0) == unmeasured
        report = recon.mle_process(data, model)
        diag = report.diagnostics
        assert diag["stop_reason"] == "tol" and report.converged
        assert diag["tp_residual"] <= 1e-12
        assert diag["min_eigenvalue"] >= -1e-12
        assert np.isfinite(report.max_residual)

    @pytest.mark.parametrize("dim,shots,seed,depol", [
        (2, 2_000, 61, 0.02), (3, 100_000, 61, 0.02), (5, 100_000, 61, 0.02),
        # the datasets of test_circuits_without_shots_leave_a_feasible_fit
        (2, 7, 55, 0.05), (3, 40, 55, 0.05)])
    def test_least_squares_start_is_cptp_and_off_the_floor(self, dim, shots,
                                                            seed, depol):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            depol)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        start = recon._process_start(data, model)
        assert np.max(np.abs(start - qcore.dagger(start))) <= 1e-12
        assert np.linalg.eigvalsh(start)[0] >= -1e-12
        tp = qcore.choi_output_trace(start)
        assert np.max(np.abs(tp - np.eye(dim))) <= 1e-12
        assert model.probabilities(start).min() > recon.PROB_FLOOR

    @pytest.mark.parametrize("dim,shots,seed", [(2, 2_000, 61), (3, 100_000, 61),
                                                (3, 10 ** 6, 62), (3, 40, 55)])
    def test_least_squares_start_matches_lsqr(self, dim, shots, seed):
        # lsqr also converges to the minimum-norm least-squares solution;
        # at its default tolerances it stops up to 1e-5 short of it on
        # the starved dataset, so it runs to convergence here
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            0.02)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        rows = np.repeat(data.shots > 0, model.n_outcomes)
        x = scipy.sparse.linalg.lsqr(model.matrix[rows],
                                     data.frequencies().ravel()[rows],
                                     atol=0.0, btol=0.0, iter_lim=10_000)[0]
        dd = dim * dim
        oracle = ((1.0 - recon.START_MIX)
                  * recon.project_cptp(x.view(complex).reshape(dd, dd))
                  + recon.START_MIX * np.eye(dd) / dim)
        assert np.max(np.abs(recon._process_start(data, model) - oracle)) <= 1e-8

    def test_true_spam_model_beats_ideal_model_on_noisy_data(self):
        noise = sim.NoiseConfig(gate_depol_p=0.001, spam=THERMAL_SPAM)
        protocol = protocols.qpt_two_level(3)
        rng = qcore.make_rng(51)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(3, rng)), 0.01)
        data = sim.run_protocol(protocol, truth, noise, 10 ** 6, seed=51)
        ideal = recon.mle_process(data, recon.build_measurement_model(protocol))
        informed = recon.mle_process(
            data, recon.build_measurement_model(protocol, spam=THERMAL_SPAM))
        infid_ideal = 1.0 - qcore.process_fidelity(ideal.estimate, truth)
        infid_true = 1.0 - qcore.process_fidelity(informed.estimate, truth)
        assert infid_true < infid_ideal


class TestCptpProjection:
    def test_valid_choi_is_a_fixed_point(self):
        choi = qcore.choi_from_unitary(qcore.haar_unitary(3, qcore.make_rng(60)))
        out = recon.project_cptp(choi)
        assert np.max(np.abs(out - choi)) < 1e-8

    @staticmethod
    def spread_input(trial):
        """A d = 2 Hermitian input with eigenvalues spread over 24 decades."""
        rng = qcore.make_rng(608, "cptp-spread", trial)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        w = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-12, 12, 4)
        g = (q * w) @ qcore.dagger(q)
        return (g + qcore.dagger(g)) / 2

    @pytest.mark.parametrize("trial", [22, 26])
    def test_a_solve_without_progress_stops_before_its_cap(self, trial,
                                                           monkeypatch):
        # eigenvalues spread over 24 decades: rounding leaves no step that
        # passes either test, so the solve stops short of trace
        # preservation, on its positive part
        g = self.spread_input(trial)
        out = recon.project_cptp(g)
        assert np.all(np.isfinite(out))
        eig = np.linalg.eigvalsh(out)
        assert eig[0] >= -1e-12 * eig[-1]
        tp = qcore.choi_output_trace(out)
        assert np.max(np.abs(tp - np.eye(2))) > recon.CPTP_TOL
        # a solve stopped by its cap would go on under a larger one
        monkeypatch.setattr(recon, "CPTP_MAX_ITER", 10 * recon.CPTP_MAX_ITER)
        assert np.array_equal(recon.project_cptp(g), out)

    def test_random_hermitian_projects_to_cptp(self):
        for trial in range(20):
            rng = qcore.make_rng(605, "project", trial)
            dim = int(rng.integers(2, 4))
            raw = rng.standard_normal((dim * dim, dim * dim))
            raw = raw + 1j * rng.standard_normal((dim * dim, dim * dim))
            raw = (raw + qcore.dagger(raw)) / 2
            out = recon.project_cptp(raw)
            qcore.check_choi(out, atol_tp=1e-5)

    @staticmethod
    def assert_kkt(g, out):
        """`out` is the Euclidean projection of `g` onto the CPTP set.

        The projection is the unique P >= 0 with Tr_out P = I for which
        some Hermitian L makes S = P - G + L (x) I >= 0 with Tr(S P) = 0.
        L is recovered from (G - P) V = (L (x) I) V on the range V of P
        by least squares over an orthonormal Hermitian basis.
        """
        dim = int(round(np.sqrt(g.shape[0])))
        w, v = np.linalg.eigh(out)
        assert w[0] >= -1e-12
        tp = qcore.choi_output_trace(out)
        assert np.max(np.abs(tp - np.eye(dim))) <= 1e-11
        basis = []
        for i in range(dim):
            for j in range(dim):
                e = np.zeros((dim, dim), dtype=complex)
                if i == j:
                    e[i, i] = 1.0
                elif i < j:
                    e[i, j] = e[j, i] = np.sqrt(0.5)
                else:
                    e[i, j], e[j, i] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
                basis.append(e)
        rng_p = v[:, w > 1e-9]
        cols = np.stack([(np.kron(e, np.eye(dim)) @ rng_p).ravel()
                         for e in basis], axis=1)
        rhs = ((g - out) @ rng_p).ravel()
        coef = np.linalg.lstsq(np.concatenate([cols.real, cols.imag]),
                               np.concatenate([rhs.real, rhs.imag]), rcond=None)[0]
        lam = np.einsum("k,kij->ij", coef, np.stack(basis))
        slack = out - g + np.kron(lam, np.eye(dim))
        assert np.linalg.eigvalsh((slack + qcore.dagger(slack)) / 2)[0] >= -1e-10
        assert abs(np.trace(slack @ out)) <= 1e-10

    @pytest.mark.parametrize("dim,inputs", [(2, 200), (3, 40), (5, 10)])
    def test_projection_meets_the_kkt_conditions(self, dim, inputs):
        # a Choi matrix plus Hermitian noise; at d = 2 a feasibility-only
        # stop lands on CPTP points up to 0.02 farther from G than this
        for trial in range(inputs):
            rng = qcore.make_rng(606, f"kkt-{dim}", trial)
            choi = qcore.choi_from_unitary(qcore.haar_unitary(dim, rng))
            noise = rng.standard_normal((dim * dim, dim * dim))
            noise = noise + 1j * rng.standard_normal((dim * dim, dim * dim))
            g = choi + (0.05, 0.2)[trial % 2] * (noise + qcore.dagger(noise)) / 2
            self.assert_kkt(g, recon.project_cptp(g))

    def test_raw_hermitian_inputs_meet_the_kkt_conditions(self):
        # at ten times the scale a full Newton step can fail both step
        # tests (trial 1), so that solve backtracks
        for scale in (1.0, 10.0):
            for trial in range(6):
                rng = qcore.make_rng(607, "kkt-raw", trial)
                dim = (2, 3, 5)[trial % 3]
                raw = rng.standard_normal((dim * dim, dim * dim))
                raw = raw + 1j * rng.standard_normal((dim * dim, dim * dim))
                raw = scale * (raw + qcore.dagger(raw)) / 2
                self.assert_kkt(raw, recon.project_cptp(raw))

    @staticmethod
    def near_input(dim, seed):
        """A Choi matrix plus Hermitian noise."""
        rng = qcore.make_rng(609, f"warm-{dim}", seed)
        choi = qcore.choi_from_unitary(qcore.haar_unitary(dim, rng))
        noise = rng.standard_normal((dim * dim, dim * dim))
        noise = noise + 1j * rng.standard_normal((dim * dim, dim * dim))
        return choi + 0.05 * (noise + qcore.dagger(noise)) / 2

    @staticmethod
    def counted_projection(g, warm, monkeypatch):
        """`project_cptp(g, warm)` and the number of its `eigh` calls."""
        eigh, calls = np.linalg.eigh, []

        def counted(a):
            calls.append(a)
            return eigh(a)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            return recon.project_cptp(g, warm), len(calls)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_warm_path_matches_the_cold_projections(self, dim, monkeypatch):
        # as in the process fit: gradient steps from one point, the step
        # halved once and then grown by 1.2 after every step
        rng = qcore.make_rng(609, f"warm-path-{dim}", 0)
        base = self.near_input(dim, 0)
        grad = rng.standard_normal((dim * dim, dim * dim))
        grad = grad + 1j * rng.standard_normal((dim * dim, dim * dim))
        grad = (grad + qcore.dagger(grad)) / 2
        warm = {}
        for k, step in enumerate(0.05 * 0.5 * 1.2 ** np.arange(-1, 12)):
            g = base + step * grad
            out, warm_evals = self.counted_projection(g, warm, monkeypatch)
            cold, cold_evals = self.counted_projection(g, None, monkeypatch)
            self.assert_kkt(g, out)
            assert np.max(np.abs(out - cold)) <= 1e-10
            assert np.array_equal(warm["g"], (g + qcore.dagger(g)) / 2)
            # every record but the first (empty) one saves evaluations
            assert k == 0 or warm_evals < cold_evals

    @pytest.mark.parametrize("dim,trial", [(2, 0), (3, 1), (5, 2)])
    def test_an_unusable_record_gives_the_cold_projection(self, dim, trial):
        g = self.near_input(dim, 1)
        cold = recon.project_cptp(g)
        record = {}
        recon.project_cptp(self.near_input(dim, 2), record)
        nan = {"g": np.full_like(record["g"], np.nan),
               "lam": np.full_like(record["lam"], np.nan),
               "linear": tuple(np.full_like(a, np.nan) for a in record["linear"])}
        assert np.array_equal(recon.project_cptp(g, nan), cold)
        # a record from a raw Hermitian input at ten times the scale of
        # test_raw_hermitian_inputs_meet_the_kkt_conditions predicts a
        # start farther from trace preservation than J = 0
        rng = qcore.make_rng(607, "kkt-raw", trial)
        raw = rng.standard_normal((dim * dim, dim * dim))
        raw = raw + 1j * rng.standard_normal((dim * dim, dim * dim))
        far = {}
        recon.project_cptp(10.0 * (raw + qcore.dagger(raw)) / 2, far)
        assert far
        assert np.array_equal(recon.project_cptp(g, far), cold)

    @pytest.mark.parametrize("trial", [22, 26])
    def test_a_solve_short_of_tolerance_leaves_the_record(self, trial):
        # the inputs of test_a_solve_without_progress_stops_before_its_cap
        g = self.spread_input(trial)
        empty = {}
        out = recon.project_cptp(g, empty)
        assert not empty
        record = {}
        recon.project_cptp(self.near_input(2, 3), record)
        kept = dict(record)
        assert np.array_equal(recon.project_cptp(g, record), out)
        assert record.keys() == kept.keys()
        assert all(record[k] is kept[k] for k in kept)


OMEGAS = {2: (0.0, 4.0), 3: (0.0, 4.0, 6.0), 4: (0.0, 4.0, 6.0, 7.0),
          5: (0.0, 4.0, 6.0, 7.0, 8.0), 7: (0.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0)}
# root seed of the calibration streams the command-line drivers would draw
STREAM_SEED = 46000


def calibration_noise(dim):
    spam = readout.gibbs_cascade_model(dim, 1.0, OMEGAS[dim], 0.01, 0.02)
    return sim.NoiseConfig(gate_depol_p=0.001, spam=spam)


def exact_calibration(dim, shots=10 ** 6):
    """Calibration counts equal to shots times the exact probabilities."""
    circuits = protocols.spam_calibration_circuits(dim).circuits
    probs = np.stack([
        sim.circuit_probabilities(c, None, calibration_noise(dim), check=False)
        for c in circuits])
    data = sim.CountsDataset(tuple(c.label for c in circuits),
                             np.full(dim, float(shots)), probs * shots)
    return data, probs


def calibration_stream(dim, trial):
    """Calibration counts and level reads of one `qpt-models` trial.

    Drawn as the command line draws them for this dimension at its
    default SPAM and gate noise, from the root seed STREAM_SEED.
    """
    noise = calibration_noise(dim)
    data = sim.run_protocol(
        protocols.spam_calibration_circuits(dim), None, noise, 10 ** 6,
        seed=qcore.derive_seed(STREAM_SEED, "qpt-calibration", trial))
    clicks = readout.level_clicks(noise.spam.populations, 0.01, 0.02)
    reads = sim.simulate_level_reads(
        clicks, 10 ** 6, seed=qcore.derive_seed(STREAM_SEED, "qpt-level-reads", trial))
    return data, reads


def slsqp_general(data, gate_depol_p):
    """Oracle of the general fit's max-tr B solve, by scipy's SLSQP.

    Returns (populations, response, converged) at the solver's end, before
    clipping.
    """
    counts = np.asarray(data.counts, dtype=float)
    dim = counts.shape[0]
    freq = counts / counts.sum(axis=1)[:, None]
    # the transfer matrix is affine in a: dmaps[j, m, i] = d v_j[m] / d x_i
    levels = [calibration_transfer(e, gate_depol_p, dim) for e in np.eye(dim)]
    dmaps = np.stack([v - levels[0] for v in levels[1:]], axis=2).transpose(1, 0, 2)

    def response(x):
        a = np.concatenate([[1.0 - x.sum()], x])
        vinv = np.linalg.inv(calibration_transfer(a, gate_depol_p, dim))
        return freq.T @ vinv, vinv

    def negative_trace(x):
        b, vinv = response(x)
        return -np.trace(b), np.einsum("km,jmi,jk->i", b, dmaps, vinv)

    def response_jacobian(x):
        b, vinv = response(x)
        return -np.einsum("km,jmi,jl->kli", b, dmaps, vinv).reshape(dim * dim, -1)

    res = scipy.optimize.minimize(
        negative_trace, np.zeros(dim - 1), jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * (dim - 1),
        constraints=[
            {"type": "ineq", "fun": lambda x: response(x)[0].ravel(),
             "jac": response_jacobian},
            {"type": "ineq", "fun": lambda x: np.array([1.0 - x.sum()]),
             "jac": lambda x: -np.ones((1, dim - 1))}],
        options={"ftol": 1e-12, "maxiter": 200})
    return (np.concatenate([[1.0 - res.x.sum()], res.x]), response(res.x)[0],
            res.status == 0)


def brent_gibbs(data, omegas):
    """Oracle of the thermal fit: bounded Brent on the profile in log T.

    Searches the same grid bracket as `estimate_spam_gibbs`; returns
    (T, b0, b1).
    """
    omegas = np.asarray(omegas, dtype=float)
    counts = np.asarray(data.counts, dtype=float)
    dark, clicks = counts[:, 0], counts[:, 1]

    def fit_rates(log_temps, rates):
        pops = np.stack([readout.gibbs_populations(np.exp(t), omegas)
                         for t in log_temps])
        return recon._fit_rates(dark, clicks, pops, rates)

    grid = np.linspace(np.log(1e-6), np.log(100.0), 41)
    rates, ll, _, _ = fit_rates(grid, np.full((grid.size, 2), recon.RATE_MAX / 2))
    i = int(np.argmax(ll))
    rates = rates[i:i + 1]

    def negative_profile(log_temp):
        nonlocal rates
        rates, ll, _, _ = fit_rates([log_temp], rates)
        return -ll[0]

    outer = scipy.optimize.minimize_scalar(
        negative_profile, method="bounded",
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        options={"xatol": 1e-10, "maxiter": 500})
    negative_profile(outer.x)
    return float(np.exp(outer.x)), float(rates[0, 0]), float(rates[0, 1])


def calibration_transfer(populations, gate_depol_p, dim):
    """Columns v_j: the populations seen by the readout in circuit j."""
    cols = []
    for j in range(dim):
        v = np.array(populations, dtype=float)
        if j > 0:
            v[[0, j]] = v[[j, 0]]
            v = (1.0 - gate_depol_p) * v + gate_depol_p / dim
        cols.append(v)
    return np.stack(cols, axis=1)


def calibration_probs(model, gate_depol_p, dim):
    """Oracle for calibration-circuit probabilities of a diagonal model.

    Circuit j swaps populations 0 and j, then the per-gate channel pulls
    the diagonal toward uniform, then the response matrix maps levels to
    outcomes.
    """
    return (model.response @ calibration_transfer(
        model.populations, gate_depol_p, dim)).T


class TestSpamGeneral:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    @pytest.mark.parametrize("gate_depol_p", [0.0, 1e-3, 0.3])
    def test_calibration_maps_match_the_swap_oracle(self, dim, gate_depol_p):
        # the maps read off the forward model swap levels 0 and j, then
        # depolarize, on every basis state and on random mixtures
        maps = recon._calibration_maps(
            protocols.spam_calibration_circuits(dim), gate_depol_p)
        rng = qcore.make_rng(91, "calibration-maps", dim)
        for a in [*np.eye(dim), *rng.dirichlet(np.ones(dim), size=3)]:
            want = calibration_transfer(a, gate_depol_p, dim)
            assert np.max(np.abs((maps @ a).T - want)) <= 1e-14

    def test_exact_ideal_counts_recover_ideal_parameters(self):
        circuits = protocols.spam_calibration_circuits(3).circuits
        probs = np.stack([sim.circuit_probabilities(c, None, sim.NoiseConfig())
                          for c in circuits])
        data = sim.CountsDataset(tuple(c.label for c in circuits),
                                 np.full(3, 1e6), probs * 1e6)
        report = recon.estimate_spam_general(data)
        assert np.max(np.abs(report.estimate.populations - [1, 0, 0])) < 1e-3
        assert np.max(np.abs(report.estimate.response - np.eye(3))) < 1e-3

    def test_noisy_scenario_predicts_probabilities(self):
        noise = sim.NoiseConfig(gate_depol_p=0.001, spam=THERMAL_SPAM)
        calibration = protocols.spam_calibration_circuits(3)
        data = sim.run_protocol(calibration, None, noise, 10 ** 6, seed=70)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        true_probs = np.stack([
            sim.circuit_probabilities(c, None, noise, check=False)
            for c in calibration.circuits])
        predicted = np.asarray(report.diagnostics["predicted_probs"])
        assert np.max(np.abs(predicted - true_probs)) <= 0.01
        diag = report.diagnostics
        assert diag["branch"] == "closed_form" and abs(diag["min_response"]) < 1e-9
        assert report.converged and diag["stop_reason"] == "tol"
        assert report.iterations >= 1 and diag["evaluations"] >= 1

    def test_likelihood_is_flat_along_the_gauge(self):
        # moving depolarizing weight between preparation and readout
        # leaves the calibration likelihood unchanged
        noise = sim.NoiseConfig(gate_depol_p=0.001, spam=THERMAL_SPAM)
        circuits = protocols.spam_calibration_circuits(3)
        data = sim.run_protocol(circuits, None, noise, 10 ** 6, seed=71)
        truth = THERMAL_SPAM
        moved = readout.gauge_transform(truth, 0.9 * 3 * truth.populations.min())

        def loglik(model):
            probs = np.clip(calibration_probs(model, 0.001, 3),
                            recon.PROB_FLOOR, None)
            return float(np.sum(data.counts * np.log(probs)))

        gap = abs(loglik(truth) - loglik(moved)) / data.total_shots
        assert gap <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_flat_set_has_dimension_d_minus_one(self, dim):
        # d^2 - 1 parameters, d(d - 1) identified frequencies: the
        # maximizers form a (d - 1)-dimensional set, larger than the
        # one-dimensional depolarizing gauge for d > 2
        data, _ = exact_calibration(dim)
        fit = recon.estimate_spam_general(data, gate_depol_p=0.001).estimate

        def probs(theta):
            a = np.concatenate([[1.0 - theta[:dim - 1].sum()], theta[:dim - 1]])
            rest = theta[dim - 1:].reshape(dim - 1, dim)
            b = np.vstack([1.0 - rest.sum(axis=0), rest])
            return calibration_probs(SimpleNamespace(populations=a, response=b),
                                     0.001, dim).ravel()

        theta = np.concatenate([fit.populations[1:], fit.response[1:].ravel()])
        assert theta.size == dim * dim - 1
        # probabilities are bilinear in (a, B), so central differences
        # along one parameter are exact up to rounding
        step = 1e-3
        jac = np.stack([(probs(theta + step * e) - probs(theta - step * e)) / (2 * step)
                        for e in np.eye(theta.size)], axis=1)
        sv = np.linalg.svd(jac, compute_uv=False)
        assert np.sum(sv > 1e-8 * sv[0]) == dim * (dim - 1)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_exact_counts_land_on_the_max_trace_boundary(self, dim):
        data, probs = exact_calibration(dim)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        fit = report.estimate
        assert report.diagnostics["branch"] == "closed_form"
        assert np.max(np.abs(calibration_probs(fit, 0.001, dim) - probs)) <= 1e-9
        # the truth reproduces the data as well, so it bounds the maximum
        truth = calibration_noise(dim).spam
        assert np.trace(fit.response) >= np.trace(truth.response) - 1e-12
        # no feasible neighbour in the flat set has a larger trace
        rng = qcore.make_rng(92)
        feasible = 0
        for _ in range(400):
            a = fit.populations + rng.uniform(-1, 1, dim) * 10 ** rng.uniform(-5, -2)
            a[0] = 1.0 - a[1:].sum()
            b = probs.T @ np.linalg.inv(calibration_transfer(a, 0.001, dim))
            if a.min() >= 0 and b.min() >= 0:
                feasible += 1
                assert np.trace(b) <= np.trace(fit.response) + 1e-9
        assert feasible >= 10
        again = recon.estimate_spam_general(data, gate_depol_p=0.001)
        assert json.dumps(again.to_dict()) == json.dumps(report.to_dict())

    def test_exact_counts_converge_at_d7(self):
        # a prime d >= 5 beyond the streams below; too few random
        # neighbours of this vertex are feasible for the boundary test
        data, probs = exact_calibration(7)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        assert report.diagnostics["branch"] == "closed_form"
        assert report.converged and report.diagnostics["stop_reason"] == "tol"
        predicted = report.diagnostics["predicted_probs"]
        assert np.max(np.abs(predicted - calibration_probs(
            report.estimate, 0.001, 7))) <= 1e-9
        assert np.max(np.abs(predicted - probs)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 5])
    def test_calibration_streams_converge(self, dim):
        # SLSQP stalled on 21 of these 40 calibrations at d = 2
        for trial in range(40):
            data, _ = calibration_stream(dim, trial)
            report = recon.estimate_spam_general(data, gate_depol_p=0.001)
            if report.diagnostics["branch"] == "closed_form":
                assert report.converged, (trial, report.diagnostics["stop_reason"])

    @pytest.mark.parametrize("dim,shots,trial", [(4, 1_000, 0), (5, 10_000, 4)])
    def test_starved_streams_do_not_raise(self, dim, shots, trial):
        # SLSQP stepped onto a singular transfer matrix on these and
        # raised LinAlgError
        data = sim.run_protocol(protocols.spam_calibration_circuits(dim), None,
                                calibration_noise(dim), shots,
                                seed=qcore.derive_seed(1, "qpt-calibration", trial))
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        assert report.converged
        json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_the_slsqp_oracle(self, dim):
        compared = 0
        for trial in range(10):
            data, _ = calibration_stream(dim, trial)
            report = recon.estimate_spam_general(data, gate_depol_p=0.001)
            a, b, converged = slsqp_general(data, 0.001)
            if not converged:
                continue
            compared += 1
            assert report.converged
            assert np.trace(report.estimate.response) >= np.trace(b) - 1e-9
            assert np.max(np.abs(report.estimate.populations - a)) <= 1e-8
        assert compared >= 3

    @staticmethod
    def zero_count_calibration():
        data, _ = exact_calibration(3, shots=10 ** 4)
        counts = np.round(data.counts)
        counts[1, 2] = 0.0  # after flip (0,1) outcome 2 was never seen
        return sim.CountsDataset(data.labels, counts.sum(axis=1), counts)

    def test_zero_count_cell_takes_the_fallback(self):
        data = self.zero_count_calibration()
        counts = data.counts
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        diag = report.diagnostics
        assert diag["branch"] == "fallback" and diag["min_response"] < -1e-9
        assert report.converged and diag["stop_reason"] == "tol"
        fit = report.estimate
        v = calibration_transfer(fit.populations, 0.001, 3)

        def loglik(b):
            return float(np.sum(counts * np.log(np.clip((b @ v).T, 1e-300, None))))

        # the likelihood is concave in B at fixed populations: no mixture
        # toward another readout does better than the fitted one
        assert loglik(fit.response) == pytest.approx(report.log_likelihood, abs=1e-6)
        rng = qcore.make_rng(93)
        for _ in range(100):
            other = rng.dirichlet(np.ones(3), size=3).T
            t = 10 ** rng.uniform(-4, -1)
            assert loglik((1 - t) * fit.response + t * other) <= loglik(fit.response) + 1e-6

    def test_fallback_at_its_cap_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(recon, "EM_MAX_ITER", 1)
        report = recon.estimate_spam_general(self.zero_count_calibration(),
                                             gate_depol_p=0.001)
        assert report.diagnostics["branch"] == "fallback"
        assert report.diagnostics["stop_reason"] == "max_iter"
        assert not report.converged

    @pytest.mark.parametrize("settings", [
        # the path ends after its first centering, before a vertex certifies
        {"BARRIER_T_MAX": recon.BARRIER_T0},
        # one centering at a weight so large that rounding soon leaves no
        # step that passes the line search
        {"BARRIER_T0": 1e20, "BARRIER_T_MAX": 1e20}], ids=["path_end", "no_step"])
    def test_uncertified_path_is_stalled(self, settings, monkeypatch):
        data, _ = calibration_stream(5, 0)
        for name, value in settings.items():
            monkeypatch.setattr(recon, name, value)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        assert report.diagnostics["branch"] == "closed_form"
        assert report.diagnostics["stop_reason"] == "stalled"
        assert not report.converged

    @pytest.mark.parametrize("shots, seed", [(2, 94), (30, 95)])
    def test_starved_data_is_reported(self, shots, seed):
        # 2 shots leave one circuit unmeasured; 30 leave zero-count cells
        circuits = protocols.spam_calibration_circuits(3)
        data = sim.run_protocol(circuits, None, calibration_noise(3), shots, seed=seed)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        diag = report.diagnostics
        assert diag["branch"] == "fallback"
        if shots == 2:
            assert diag["min_response"] is None
            assert report.iterations == diag["evaluations"] >= 1
        else:
            assert diag["min_response"] < -1e-9
        assert diag["stop_reason"] in ("tol", "stalled", "max_iter")
        assert report.converged == (diag["stop_reason"] == "tol")
        json.dumps(report.to_dict(), allow_nan=False)

    def test_rejects_degenerate_data(self):
        circuits = protocols.spam_calibration_circuits(3).circuits
        labels = tuple(c.label for c in circuits)
        zero = sim.CountsDataset(labels, np.zeros(3, dtype=int),
                                 np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            recon.estimate_spam_general(zero)
        wrong_shape = sim.CountsDataset(labels[:2], np.full(2, 9),
                                        np.full((2, 3), 3))
        with pytest.raises(ValueError):
            recon.estimate_spam_general(wrong_shape)
        data = sim.CountsDataset(labels, np.full(3, 9), np.full((3, 3), 3))
        with pytest.raises(ValueError, match=r"gate_depol_p must lie in \[0, 1\]"):
            recon.estimate_spam_general(data, gate_depol_p=1.5)
        # right shape, wrong circuits
        other = sim.CountsDataset(("ry90(0,1)", "ry90(0,2)", "ry90(1,2)"),
                                  np.full(3, 9), np.full((3, 3), 3))
        with pytest.raises(ValueError, match="do not match the calibration circuits"):
            recon.estimate_spam_general(other)


def gibbs_grid_oracle(counts, omegas):
    """Largest level-read log-likelihood over a dense (log T, b0, b1) grid."""
    rates = np.linspace(0.0, 0.5, 101)
    b0, b1 = rates[:, None, None], rates[None, :, None]
    best = -np.inf
    for log_temp in np.linspace(np.log(1e-6), np.log(100.0), 400):
        a = readout.gibbs_populations(np.exp(log_temp), np.asarray(omegas))
        p = np.clip((1.0 - b0) * a + b1 * (1.0 - a),
                    recon.PROB_FLOOR, 1.0 - recon.PROB_FLOOR)
        ll = np.sum(counts[:, 1] * np.log(p) + counts[:, 0] * np.log1p(-p), axis=-1)
        best = max(best, float(ll.max()))
    return best


class TestSpamGibbs:
    def test_exact_click_probabilities_recover_parameters(self):
        shots = 10 ** 6
        counts = np.empty((3, 2))
        for j in range(3):
            p = float(THERMAL_CLICKS[j])
            counts[j] = ((1 - p) * shots, p * shots)
        data = sim.CountsDataset(("read0", "read1", "read2"),
                                 np.full(3, float(shots)), counts)
        report = recon.estimate_spam_gibbs(data, np.array([0.0, 4.0, 6.0]))
        assert abs(report.estimate["temperature"] - 1.0) < 1e-4
        assert abs(report.estimate["b0"] - 0.01) < 1e-4
        assert abs(report.estimate["b1"] - 0.02) < 1e-4
        assert report.converged and report.diagnostics["stop_reason"] == "tol"
        assert 1 <= report.iterations <= report.diagnostics["evaluations"]

    def test_sampled_run_lands_near_truth(self):
        reads = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 6, seed=72)
        report = recon.estimate_spam_gibbs(reads, np.array([0.0, 4.0, 6.0]))
        assert abs(report.estimate["temperature"] - 1.0) <= 0.05
        assert abs(report.estimate["b0"] - 0.01) <= 0.005
        assert abs(report.estimate["b1"] - 0.02) <= 0.005

    @pytest.mark.parametrize("seed", [72, 73, 74])
    def test_predicted_clicks_are_the_simulators_model(self, seed):
        # the fit predicts with the model the reads are simulated from
        reads = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 5, seed=seed)
        report = recon.estimate_spam_gibbs(reads, np.array([0.0, 4.0, 6.0]))
        est, diag = report.estimate, report.diagnostics
        want = readout.level_clicks(diag["populations"], est["b0"], est["b1"])
        assert np.array_equal(diag["predicted_click_probs"].view(np.uint64),
                              want.view(np.uint64))

    def test_noiseless_boundary_solution(self):
        # perfect reads click exactly on the populated levels
        clicks = readout.gibbs_populations(0.5, np.array([0.0, 4.0, 6.0]))
        shots = 10 ** 6
        counts = np.empty((3, 2))
        for j in range(3):
            p = float(clicks[j])
            counts[j] = ((1 - p) * shots, p * shots)
        data = sim.CountsDataset(("read0", "read1", "read2"),
                                 np.full(3, float(shots)), counts)
        report = recon.estimate_spam_gibbs(data, np.array([0.0, 4.0, 6.0]))
        assert report.estimate["b0"] <= 1e-4
        assert report.estimate["b1"] <= 1e-4

    def test_level_read_with_zero_clicks(self):
        reads = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 4, seed=74)
        counts = np.asarray(reads.counts, dtype=float)
        counts[2] = (counts[2].sum(), 0.0)
        data = sim.CountsDataset(reads.labels, reads.shots, counts)
        report = recon.estimate_spam_gibbs(data, np.array([0.0, 4.0, 6.0]))
        assert report.converged and np.isfinite(report.log_likelihood)
        assert 0.0 <= report.estimate["b0"] <= 0.5
        assert 0.0 <= report.estimate["b1"] <= 0.5
        assert report.log_likelihood >= gibbs_grid_oracle(counts, (0.0, 4.0, 6.0)) - 1e-9

    def test_beats_a_dense_grid_oracle(self):
        reads = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 4, seed=75)
        report = recon.estimate_spam_gibbs(reads, np.array([0.0, 4.0, 6.0]))
        oracle = gibbs_grid_oracle(np.asarray(reads.counts, dtype=float),
                                   (0.0, 4.0, 6.0))
        assert report.log_likelihood >= oracle - 1e-9

    @pytest.mark.parametrize("dim", [3, 5])
    def test_matches_the_brent_oracle(self, dim):
        # Brent compares profile values, which are flat to rounding within
        # about 2e-8 of the maximum in log T, so it locates the maximum
        # only that well (up to 3.7e-7 relative in b0 on these streams);
        # the slope at the fit's own estimate vanishes to rounding
        for trial in range(5):
            _, reads = calibration_stream(dim, trial)
            report = recon.estimate_spam_gibbs(reads, OMEGAS[dim])
            est = report.estimate
            temp, b0, b1 = brent_gibbs(reads, OMEGAS[dim])
            assert report.converged
            assert abs(np.log(est["temperature"] / temp)) <= 1e-7
            assert abs(est["b0"] / b0 - 1.0) <= 2e-6
            assert abs(est["b1"] / b1 - 1.0) <= 2e-6
            counts = np.asarray(reads.counts, dtype=float)
            rates = np.array([[est["b0"], est["b1"]]])
            pops = readout.gibbs_populations(est["temperature"],
                                             np.asarray(OMEGAS[dim]))[None]
            slope = recon._profile_slopes(counts[:, 0], counts[:, 1],
                                          np.asarray(OMEGAS[dim]),
                                          np.log([est["temperature"]]), pops, rates)
            assert abs(slope[0]) <= 1e-11

    @pytest.mark.parametrize("dataset,corner", [("sampled", False),
                                                ("boundary", False),
                                                ("sampled", True)])
    def test_batched_rate_fit_matches_rows_and_meets_kkt(self, dataset, corner):
        if dataset == "sampled":
            counts = np.asarray(sim.simulate_level_reads(
                THERMAL_CLICKS, 10 ** 6, seed=72).counts, dtype=float)
        else:
            # the noiseless reads of test_noiseless_boundary_solution
            perfect = readout.gibbs_populations(0.5, np.array([0.0, 4.0, 6.0]))
            counts = np.stack([1.0 - perfect, perfect], axis=1) * 10 ** 6
        dark, clicks = counts[:, 0], counts[:, 1]
        pops = np.stack([readout.gibbs_populations(t, np.array([0.0, 4.0, 6.0]))
                         for t in np.geomspace(1e-6, 100.0, 41)])
        # from the corner (0, 0) the cold rows start where the data are
        # impossible, and move to the middle of the box
        start = np.full((len(pops), 2), 0.0 if corner else 0.25)
        rates, ll, iterations, converged = recon._fit_rates(dark, clicks, pops, start)
        assert converged.all() and iterations.min() >= 1
        for r in range(len(pops)):
            one = recon._fit_rates(dark, clicks, pops[r:r + 1], start[r:r + 1])
            assert np.array_equal(one[0][0], rates[r]) and one[1][0] == ll[r]
            assert one[2][0] == iterations[r]
        # box KKT conditions of the per-shot likelihood: the gradient
        # vanishes on a free rate and points outward on a rate at a bound
        p = (1.0 - rates[:, :1]) * pops + rates[:, 1:] * (1.0 - pops)
        w = clicks / p - dark / (1.0 - p)
        grad = np.stack([-(w * pops).sum(axis=1), (w * (1.0 - pops)).sum(axis=1)],
                        axis=1) / counts.sum()
        assert ((rates >= 0.0) & (rates <= recon.RATE_MAX)).all()
        violation = np.where(rates <= 0.0, np.maximum(grad, 0.0),
                             np.where(rates >= recon.RATE_MAX,
                                      np.maximum(-grad, 0.0), np.abs(grad)))
        assert violation.max() <= 1e-7

    def test_flat_profile_is_stalled(self):
        # ten reads, every one of level 0 a click and none of level 2: the
        # profile is flat to rounding toward T = 0, and the slope at the best
        # grid point does not change sign at its neighbour
        data = sim.CountsDataset(("read0", "read1", "read2"), np.array([4, 3, 3]),
                                 np.array([[0, 4], [2, 1], [3, 0]]))
        report = recon.estimate_spam_gibbs(data, np.array([0.0, 4.0, 6.0]))
        assert report.diagnostics["stop_reason"] == "stalled"
        assert not report.converged

    def test_unsettled_rates_are_max_iter(self, monkeypatch):
        # reads that click half the time on every level put the best point
        # at the grid's end, unrefined, with rates one Newton step old
        data = sim.CountsDataset(("read0", "read1", "read2"), np.full(3, 1000),
                                 np.full((3, 2), 500))
        monkeypatch.setattr(recon, "RATE_MAX_ITER", 1)
        report = recon.estimate_spam_gibbs(data, np.array([0.0, 4.0, 6.0]))
        assert report.diagnostics["stop_reason"] == "max_iter"
        assert not report.converged

    def test_rejects_empty_data(self):
        zero = sim.CountsDataset(("read0", "read1", "read2"),
                                 np.zeros(3, dtype=int),
                                 np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError):
            recon.estimate_spam_gibbs(zero, np.array([0.0, 4.0, 6.0]))

    def test_rejects_reads_of_another_level_count(self):
        reads = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 4, seed=76)
        with pytest.raises(ValueError,
                           match=r"counts shape \(3, 2\) does not match \(4, 2\)"):
            recon.estimate_spam_gibbs(reads, np.array([0.0, 4.0, 6.0, 9.0]))

    def test_rejects_the_general_calibration_data(self):
        # at d = 2 the calibration circuits (bare, flip(0,1)) have the shape
        # of two level reads, but they are not level reads
        circuits = protocols.spam_calibration_circuits(2)
        data = sim.run_protocol(circuits, None, calibration_noise(2), 10 ** 4, seed=77)
        with pytest.raises(ValueError, match="do not match the level reads"):
            recon.estimate_spam_gibbs(data, np.array(OMEGAS[2]))


class TestFitReportSerialization:
    def test_reports_round_trip_through_json(self):
        protocol = protocols.qst_two_level(2)
        model = recon.build_measurement_model(protocol)
        data = sim.run_protocol(protocol, np.eye(2) / 2, sim.NoiseConfig(),
                                3_000, seed=80)
        report = recon.mle_state(data, model)
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        est = np.asarray(back["estimate"]["re"]) + 1j * np.asarray(back["estimate"]["im"])
        assert np.max(np.abs(est - report.estimate)) < 1e-15
        assert back["converged"] is True


def fitted_table(fit):
    """Run `fit` on sampled data; return (report, data, predicted table).

    The table is what the report's estimate predicts for every circuit
    and outcome, computed here from the estimate; for the general fit it
    is the `predicted_probs` diagnostic, checked against the oracle
    probabilities of its estimate.
    """
    if fit == "estimate_spam_general":
        circuits = protocols.spam_calibration_circuits(3)
        data = sim.run_protocol(circuits, None, calibration_noise(3), 10 ** 5,
                                seed=96)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        table = report.diagnostics["predicted_probs"]
        oracle = calibration_probs(report.estimate, 0.001, 3)
        assert np.max(np.abs(table - oracle)) <= 1e-12
        return report, data, table
    if fit == "estimate_spam_gibbs":
        data = sim.simulate_level_reads(THERMAL_CLICKS, 10 ** 5, seed=96)
        report = recon.estimate_spam_gibbs(data, np.array(OMEGAS[3]))
        est = report.estimate
        a = readout.gibbs_populations(est["temperature"], np.array(OMEGAS[3]))
        p = (1.0 - est["b0"]) * a + est["b1"] * (1.0 - a)
        return report, data, np.stack([1.0 - p, p], axis=1)
    rng = qcore.make_rng(96)
    if fit == "mle_process":
        protocol = protocols.qpt_two_level(2)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(2, rng)), 0.05)
    else:
        protocol = protocols.qst_two_level(3)
        truth = qcore.depolarize(qcore.projector(qcore.haar_state(3, rng)), 0.1)
    model = recon.build_measurement_model(protocol)
    data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 20_000, seed=96)
    report = getattr(recon, fit)(data, model)
    return report, data, model.probabilities(report.estimate)


class TestReportContract:
    @pytest.mark.parametrize("fit", ["mle_state", "mle_state_pure", "mle_process",
                                     "estimate_spam_general",
                                     "estimate_spam_gibbs"])
    def test_report_is_derived_from_the_predicted_table(self, fit):
        # every fit states the likelihood and residual of its own
        # estimate's predictions, and converges only on "tol"
        report, data, table = fitted_table(fit)
        counts = np.asarray(data.counts, dtype=float).ravel()
        floored = np.maximum(table, recon.PROB_FLOOR).ravel()
        assert report.log_likelihood == float(counts @ np.log(floored))
        mask = data.shots > 0
        freq = data.frequencies()
        assert report.max_residual == float(np.max(np.abs(table[mask] - freq[mask])))
        assert report.converged == (report.diagnostics["stop_reason"] == "tol")

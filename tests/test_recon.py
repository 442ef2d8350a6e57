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
import scipy.stats

from qudittomo import protocols, qcore, readout, recon, sim


# thermal initialization (T = 1) and cascade readout (b0 = 0.01, b1 = 0.02)
THERMAL_SPAM = readout.gibbs_cascade_model(3, 1.0, (0.0, 4.0, 6.0), 0.01, 0.02)
THERMAL_CLICKS = readout.level_reads(3, 0.01, 0.02) @ THERMAL_SPAM.populations


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
        rho0 = qcore.projector(qcore.ket(0, dim))
        for c, circuit in enumerate(protocol.circuits):
            mu = sequence_unitary(circuit.meas)
            pu = sequence_unitary(circuit.prep)
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
        w = rng.uniform(0.0, 2.0, size=model.n_circuits * model.n_outcomes)
        want = np.einsum("n,nij->ij", w, ops.reshape(-1, dd, dd))
        assert np.max(np.abs(model.weighted_sum(w) - want)) < 1e-12

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
            circuits = (protocols.qst_two_level(dim).circuits
                        + protocols.mub_protocol(dim).circuits[1:])
            truth = qcore.depolarize(
                qcore.projector(qcore.haar_state(dim, rng)), 0.1)
        else:
            circuits = protocols.qpt_two_level(dim).circuits
            truth = None if truth_kind == "none" else qcore.choi_depolarize(
                qcore.choi_from_unitary(qcore.haar_unitary(dim, rng)), 0.1)
        got = sim.outcome_probabilities(circuits, truth, noise)
        want = np.stack([sim.circuit_probabilities(c, truth, noise)
                         for c in circuits])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    def test_qst_circuits_with_prep_gates_are_rejected(self):
        protocol = protocols.qpt_two_level(2)
        bad = protocols.TomographyProtocol("qst", 2, protocol.circuits[-3:])
        with pytest.raises(ValueError):
            recon.build_measurement_model(bad)


class TestLikelihoodFitInputs:
    @pytest.mark.parametrize("fit", ["mle_state", "mle_state_pure", "mle_process"])
    def test_bad_inputs_are_rejected(self, fit):
        # a model of the other kind, circuits out of order, and no counts
        qst, qpt = protocols.qst_two_level(2), protocols.qpt_two_level(2)
        protocol, other = (qpt, qst) if fit == "mle_process" else (qst, qpt)
        truth = (qcore.choi_from_unitary(np.eye(2)) if fit == "mle_process"
                 else np.eye(2) / 2)
        fit = getattr(recon, fit)
        model = recon.build_measurement_model(protocol)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 2_000, seed=0)
        assert fit(data, model, max_iter=2).iterations == 2
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

    def test_restricted_likelihood_never_beats_full(self):
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
            full = recon.mle_state(data, model, tol=1e-13)
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


class TestStateFitReports:
    def test_stop_reason_sets_converged(self):
        protocol = protocols.qst_two_level(3)
        model = recon.build_measurement_model(protocol)
        truth = qcore.depolarize(
            qcore.projector(qcore.haar_state(3, qcore.make_rng(44))), 0.1)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), 5_000, seed=44)
        for fit in (recon.mle_state, recon.mle_state_pure):
            done = fit(data, model)
            assert done.converged and done.diagnostics["stop_reason"] == "tol"
            cut = fit(data, model, max_iter=3)
            assert cut.iterations == 3 and not cut.converged
            assert cut.diagnostics["stop_reason"] == "max_iter"
        gap = recon.mle_state(data, model).diagnostics["gap_bound"]
        assert gap is not None and gap >= 0.0

    def test_rank_threshold_is_the_chi2_quantile(self):
        for dim in (2, 3, 5):
            dof = (dim * dim - 1) - (2 * dim - 2)
            want = scipy.stats.chi2.ppf(recon.RANK_SIGNIFICANCE, dof)
            assert recon._rank_threshold(dim) == want
            # the comparison is inclusive at the threshold
            pure = SimpleNamespace(log_likelihood=0.0, estimate=np.eye(dim))
            edge = SimpleNamespace(log_likelihood=want / 2)
            above = SimpleNamespace(log_likelihood=want)
            assert recon.select_rank(edge, pure) is pure
            assert recon.select_rank(above, pure) is above


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

    def test_bound_covers_a_tight_fit(self):
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
            best = recon.mle_state(data, model, tol=1e-13).log_likelihood
            for k in (1, 2, 5, 20, 100, 400):
                cut = recon.mle_state(data, model, max_iter=k)
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

    def test_zero_count_cells_keep_the_decision(self):
        # a basis-state truth leaves zero-count cells whose probabilities
        # the tight fit drives below PROB_FLOOR; a stop may fire only from
        # an unclipped iterate, and the selection is that of a full run
        for build in (protocols.qst_two_level, protocols.mub_protocol):
            protocol = build(3)
            model = recon.build_measurement_model(protocol)
            data = exact_dataset(protocol, qcore.projector(qcore.ket(0, 3)),
                                 sim.NoiseConfig(), shots=10 ** 4)
            assert np.any(data.counts == 0)
            pure = recon.mle_state_pure(data, model, tol=1e-13)
            plain = recon.mle_state(data, model, tol=1e-13)
            assert model.probabilities(plain.estimate).min() <= recon.PROB_FLOOR
            assert plain.diagnostics["gap_bound"] is None
            early = recon.mle_state(data, model, tol=1e-13, pure=pure)
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

    def test_report_gives_stop_reason_and_feasibility(self):
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
        short = recon.mle_process(sampled, model, max_iter=3)
        assert short.diagnostics["stop_reason"] == "max_iter"
        assert not short.converged and short.iterations == 3

    @pytest.mark.parametrize("dim,shots,seed", [(2, 2_000, 52), (2, 20_000, 53),
                                                (3, 100_000, 54)])
    def test_gap_bound_covers_a_tight_refit(self, dim, shots, seed):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            0.05)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        report = recon.mle_process(data, model)
        tight = recon.mle_process(data, model, tol=1e-3)
        gap = report.diagnostics["gap_bound"]
        assert gap is not None and gap <= 1e-4 * data.counts.sum()
        assert tight.log_likelihood - report.log_likelihood <= gap
        assert tight.diagnostics["gap_bound"] <= gap

    @pytest.mark.parametrize("dim,shots,seed,tol", [(2, 5_000, 56, 0.5),
                                                    (3, 10 ** 6, 57, 0.5),
                                                    (3, 100_000, 58, 0.05)])
    def test_tol_stop_certifies_its_gap(self, dim, shots, seed, tol):
        protocol = protocols.qpt_two_level(dim)
        model = recon.build_measurement_model(protocol)
        truth = qcore.choi_depolarize(
            qcore.choi_from_unitary(qcore.haar_unitary(dim, qcore.make_rng(seed))),
            0.02)
        data = sim.run_protocol(protocol, truth, sim.NoiseConfig(), shots, seed=seed)
        report = recon.mle_process(data, model, tol=tol)
        gap = report.diagnostics["gap_bound"]
        assert report.diagnostics["stop_reason"] == "tol" and report.converged
        assert gap is not None and gap <= tol
        refit = recon.mle_process(data, model, tol=1e-3)
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

        def failing(g):
            calls.append(g)
            return project(g) if len(calls) == 1 else np.full_like(g, np.nan)

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
        for trial in range(6):
            rng = qcore.make_rng(607, "kkt-raw", trial)
            dim = (2, 3, 5)[trial % 3]
            raw = rng.standard_normal((dim * dim, dim * dim))
            raw = raw + 1j * rng.standard_normal((dim * dim, dim * dim))
            raw = (raw + qcore.dagger(raw)) / 2
            self.assert_kkt(raw, recon.project_cptp(raw))


OMEGAS = {2: (0.0, 4.0), 3: (0.0, 4.0, 6.0), 5: (0.0, 4.0, 6.0, 7.0, 8.0)}


def calibration_noise(dim):
    spam = readout.gibbs_cascade_model(dim, 1.0, OMEGAS[dim], 0.01, 0.02)
    return sim.NoiseConfig(gate_depol_p=0.001, spam=spam)


def exact_calibration(dim, shots=10 ** 6):
    """Calibration counts equal to shots times the exact probabilities."""
    circuits = protocols.spam_calibration_circuits(dim)
    probs = np.stack([
        sim.circuit_probabilities(c, None, calibration_noise(dim), check=False)
        for c in circuits])
    data = sim.CountsDataset(tuple(c.label for c in circuits),
                             np.full(dim, float(shots)), probs * shots)
    return data, probs


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
    def test_exact_ideal_counts_recover_ideal_parameters(self):
        circuits = protocols.spam_calibration_circuits(3)
        probs = np.stack([sim.circuit_probabilities(c, None, sim.NoiseConfig())
                          for c in circuits])
        data = sim.CountsDataset(tuple(c.label for c in circuits),
                                 np.full(3, 1e6), probs * 1e6)
        report = recon.estimate_spam_general(data)
        assert np.max(np.abs(report.estimate.populations - [1, 0, 0])) < 1e-3
        assert np.max(np.abs(report.estimate.response - np.eye(3))) < 1e-3

    def test_noisy_scenario_predicts_probabilities(self):
        noise = sim.NoiseConfig(gate_depol_p=0.001, spam=THERMAL_SPAM)
        circuits = protocols.spam_calibration_circuits(3)
        data = sim.run_protocol(circuits, None, noise, 10 ** 6, seed=70)
        report = recon.estimate_spam_general(data, gate_depol_p=0.001)
        true_probs = np.stack([
            sim.circuit_probabilities(c, None, noise, check=False)
            for c in circuits])
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

    @pytest.mark.parametrize("dim", [2, 5])
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

    def test_zero_count_cell_takes_the_fallback(self):
        data, _ = exact_calibration(3, shots=10 ** 4)
        counts = np.round(data.counts)
        counts[1, 2] = 0.0  # after flip (0,1) outcome 2 was never seen
        data = sim.CountsDataset(data.labels, counts.sum(axis=1), counts)
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
        circuits = protocols.spam_calibration_circuits(3)
        labels = tuple(c.label for c in circuits)
        zero = sim.CountsDataset(labels, np.zeros(3, dtype=int),
                                 np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            recon.estimate_spam_general(zero)
        wrong_shape = sim.CountsDataset(labels[:2], np.full(2, 9),
                                        np.full((2, 3), 3))
        with pytest.raises(ValueError):
            recon.estimate_spam_general(wrong_shape)


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

    def test_rejects_empty_data(self):
        zero = sim.CountsDataset(("read0", "read1", "read2"),
                                 np.zeros(3, dtype=int),
                                 np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError):
            recon.estimate_spam_gibbs(zero, np.array([0.0, 4.0, 6.0]))


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

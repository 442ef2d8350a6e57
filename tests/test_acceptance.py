"""Acceptance suite: the eight headline claims, one test each.

Each test prints its measured numbers so a verbose run documents the
evidence behind the pass/fail verdict.  The statistical criteria run
the same drivers as the command line at pinned seeds; the structural
and self-consistency criteria are deterministic.
"""

import time

import numpy as np

from qudittomo import cli, protocols, qcore, readout, recon, sim
from qudittomo.circuits import sequence_unitary

from helpers import check_povm


def medians(rows):
    return {(label, n): med for label, n, _, med, _ in cli.summarize(rows)}


def exact_dataset(circuits, truth, noise, shots):
    probs = np.stack([sim.circuit_probabilities(c, truth, noise, check=False)
                      for c in circuits])
    per = np.full(len(circuits), float(shots))
    return sim.CountsDataset(tuple(c.label for c in circuits),
                             per, probs * shots)


def calibration_loglik(data, model, gate_depol_p, dim):
    """Log-likelihood of calibration counts under a diagonal SPAM model."""
    rows = np.empty((dim, dim))
    for j in range(dim):
        v = model.populations.copy()
        if j > 0:
            v[[0, j]] = v[[j, 0]]
            v = (1.0 - gate_depol_p) * v + gate_depol_p / dim
        rows[j] = model.response @ v
    rows = np.clip(rows, recon.PROB_FLOOR, None)
    return float(np.sum(np.asarray(data.counts) * np.log(rows)))


# thermal initialization (T = 1) and cascade readout (b0 = 0.01, b1 = 0.02)
OMEGAS = np.array([0.0, 4.0, 6.0])
SPAM = readout.gibbs_cascade_model(3, 1.0, OMEGAS, 0.01, 0.02)
CLICKS = readout.level_clicks(SPAM.populations, 0.01, 0.02)


def test_criterion_1_protocol_crossover():
    config = cli.ExperimentConfig(experiment="qst_compare", dim=3,
                                  grid=(1_000, 1_000_000), trials=50, seed=1)
    start = time.perf_counter()
    rows = cli.run_qst_compare(config)
    elapsed = time.perf_counter() - start
    med = medians(rows)
    print(f"N=1e3: MUB={med[('MUB', 1_000)]:.6f} "
          f"2-level={med[('2-level', 1_000)]:.6f}; "
          f"N=1e6: MUB={med[('MUB', 1_000_000)]:.3e} "
          f"2-level={med[('2-level', 1_000_000)]:.3e}; "
          f"elapsed {elapsed:.1f}s")
    assert med[("MUB", 1_000)] <= med[("2-level", 1_000)]
    assert med[("2-level", 1_000_000)] < med[("MUB", 1_000_000)]
    assert elapsed < 600.0


def test_criterion_2_statistical_scaling():
    config = cli.ExperimentConfig(experiment="qst_compare", dim=3,
                                  grid=(1_000, 10_000, 100_000), trials=50,
                                  seed=1, gate_depol_p=0.0, truth_depol_p=0.0)
    med = medians(cli.run_qst_compare(config))
    log_n = np.log10(config.grid)
    for label in ("2-level", "MUB"):
        log_med = np.log10([med[(label, n)] for n in config.grid])
        slope = np.polyfit(log_n, log_med, 1)[0]
        print(f"{label}: slope {slope:.4f}")
        assert -1.3 <= slope <= -0.7


def test_criterion_3_process_model_ordering():
    config = cli.ExperimentConfig(experiment="qpt_models", dim=3,
                                  grid=(1_000_000,), trials=25, seed=0)
    start = time.perf_counter()
    rows = cli.run_qpt_models(config)
    elapsed = time.perf_counter() - start
    med = medians(rows)
    true_med = med[("True model", 1_000_000)]
    model2 = med[("SPAM errors model 2", 1_000_000)]
    ideal = med[("Ideal model", 1_000_000)]
    print(f"True={true_med:.5f} model2={model2:.5f} Ideal={ideal:.5f} "
          f"ratio={model2 / true_med:.3f}; elapsed {elapsed:.0f}s")
    assert true_med <= model2 < ideal
    assert model2 <= 3.0 * true_med
    assert elapsed < 1800.0


def test_criterion_4_gibbs_fit_tolerances():
    hits = 0
    for s in range(10):
        reads = sim.simulate_level_reads(
            CLICKS, 10 ** 6, seed=qcore.derive_seed(s, "accept-gibbs"))
        est = recon.estimate_spam_gibbs(reads, OMEGAS).estimate
        ok = (abs(est["temperature"] - 1.0) <= 0.05
              and abs(est["b0"] - 0.01) <= 0.005
              and abs(est["b1"] - 0.02) <= 0.005)
        hits += ok
        print(f"run {s}: T={est['temperature']:.4f} b0={est['b0']:.5f} "
              f"b1={est['b1']:.5f} {'ok' if ok else 'MISS'}")
    assert hits >= 9


def test_criterion_5_general_fit_predictive_accuracy():
    noise = sim.NoiseConfig(gate_depol_p=0.001, spam=SPAM)
    calibration = protocols.spam_calibration_circuits(3)
    data = sim.run_protocol(calibration, None, noise, 10 ** 6,
                            seed=qcore.derive_seed(5, "accept-general"))
    fit = recon.estimate_spam_general(data, gate_depol_p=0.001)
    true_probs = np.stack([
        sim.circuit_probabilities(c, None, noise, check=False)
        for c in calibration.circuits])
    predicted = np.asarray(fit.diagnostics["predicted_probs"])
    residual = float(np.max(np.abs(predicted - true_probs)))

    moved = readout.gauge_transform(SPAM, 0.9 * 3 * SPAM.populations.min())
    gap = abs(calibration_loglik(data, SPAM, 0.001, 3)
              - calibration_loglik(data, moved, 0.001, 3)) / data.total_shots
    print(f"predictive residual {residual:.2e}; gauge gap {gap:.2e} per shot")
    assert residual <= 0.01
    assert gap <= 1e-6


def test_criterion_6_structural_counts():
    qst3 = protocols.qst_two_level(3)
    assert len(qst3) == 7
    assert max(c.gate_count for c in qst3.circuits) <= 1
    qpt3 = protocols.qpt_two_level(3)
    assert len(qpt3) == 63
    assert max(c.gate_count for c in qpt3.circuits) <= 3
    assert len(protocols.qpt_preparations(3)) == 9
    rank_qst, complete_qst = recon.completeness_check(qst3)
    rank_qpt, complete_qpt = recon.completeness_check(qpt3)
    print(f"ranks: qst {rank_qst}, qpt {rank_qpt}")
    assert (rank_qst, complete_qst) == (9, True)
    assert (rank_qpt, complete_qpt) == (81, True)

    qst2 = protocols.qst_two_level(2)
    mats = [sequence_unitary(c.meas, 2) for c in qst2.circuits]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlaps = np.abs(mats[i] @ qcore.dagger(mats[j])) ** 2
            assert np.max(np.abs(overlaps - 0.5)) <= 1e-10


def test_criterion_7_cascade_povm_correctness():
    ideal = readout.cascade_response(readout.level_clicks(np.eye(3), 0.0, 0.0)[1:])
    assert np.array_equal(ideal, np.eye(3))

    noisy = readout.cascade_response(readout.level_clicks(np.eye(3), 0.01, 0.02)[1:])
    frozen = {0: [0.9604, 0.0098, 0.0098],
              1: [0.02, 0.99, 0.02],
              2: [0.0196, 0.0002, 0.9702]}
    for k, diag in frozen.items():
        assert np.max(np.abs(noisy[k] - diag)) <= 1e-12

    # fuzz domain: random click probabilities of every read on every level;
    # the diagonal effects diag(b[k]) must form a valid POVM
    for trial in range(50):
        rng = qcore.make_rng(700, "accept-cascade", trial)
        dim = int(rng.integers(2, 6))
        b = readout.cascade_response(rng.uniform(0, 1, size=(dim - 1, dim)))
        ops = readout.DiagonalSpamModel(np.full(dim, 1.0 / dim), b).povm()
        check_povm(ops)
        assert np.max(np.abs(ops.sum(axis=0) - np.eye(dim))) <= 1e-12


def test_criterion_8_solver_self_consistency():
    protocol = protocols.qst_two_level(3)
    model = recon.build_measurement_model(protocol)
    truth = qcore.depolarize(
        qcore.projector(qcore.haar_state(3, qcore.make_rng(800))), 0.2)
    report = recon.mle_state(
        exact_dataset(protocol.circuits, truth, sim.NoiseConfig(), 10 ** 6),
        model)
    state_fid = qcore.fidelity(report.estimate, truth, check=False)
    assert state_fid >= 1.0 - 1e-6

    qpt = protocols.qpt_two_level(3)
    qpt_model = recon.build_measurement_model(qpt)
    choi_id = qcore.choi_from_unitary(np.eye(3))
    report = recon.mle_process(
        exact_dataset(qpt.circuits, choi_id, sim.NoiseConfig(), 10 ** 5),
        qpt_model)
    proc_fid = qcore.process_fidelity(report.estimate, choi_id)
    assert proc_fid >= 1.0 - 1e-5
    tp = qcore.choi_output_trace(report.estimate)
    assert np.max(np.abs(tp - np.eye(3))) <= 1e-6

    shots = 10 ** 6
    counts = np.empty((3, 2))
    for j in range(3):
        p = float(CLICKS[j])
        counts[j] = ((1 - p) * shots, p * shots)
    reads = sim.CountsDataset(("read0", "read1", "read2"),
                              np.full(3, float(shots)), counts)
    est = recon.estimate_spam_gibbs(reads, OMEGAS).estimate
    gibbs_dev = max(abs(est["temperature"] - 1.0), abs(est["b0"] - 0.01),
                    abs(est["b1"] - 0.02))
    assert gibbs_dev <= 1e-4

    circuits = protocols.spam_calibration_circuits(3).circuits
    ideal_data = exact_dataset(circuits, None, sim.NoiseConfig(), 10 ** 6)
    fit = recon.estimate_spam_general(ideal_data)
    spam_dev = max(float(np.max(np.abs(fit.estimate.populations - [1, 0, 0]))),
                   float(np.max(np.abs(fit.estimate.response - np.eye(3)))))
    assert spam_dev <= 1e-3

    print(f"state fid {state_fid:.10f}; process fid {proc_fid:.8f}; "
          f"gibbs dev {gibbs_dev:.1e}; general dev {spam_dev:.1e}")

    protocols_by_dim = {2: protocols.qst_two_level(2),
                        3: protocols.qst_two_level(3)}
    models = {d: recon.build_measurement_model(p)
              for d, p in protocols_by_dim.items()}
    for trial in range(100):
        rng = qcore.make_rng(801, "accept-monotone", trial)
        dim = int(rng.integers(2, 4))
        mixed = qcore.depolarize(
            qcore.projector(qcore.haar_state(dim, rng)),
            float(rng.uniform(0, 0.5)))
        data = sim.run_protocol(
            protocols_by_dim[dim], mixed, sim.NoiseConfig(),
            int(rng.integers(50, 5_000)),
            seed=qcore.derive_seed(801, "accept-monotone-data", trial))
        report = recon.mle_state(data, models[dim])
        trace = report.diagnostics["loglik_trace"]
        assert np.all(np.diff(trace) >= -1e-9)

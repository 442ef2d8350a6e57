"""Simulator semantics: probabilities, shot allocation, sampling, datasets."""

import numpy as np
import pytest

from qudittomo import protocols, qcore, readout, sim
from qudittomo.circuits import TwoLevelGate, gate_unitary
from qudittomo.protocols import MeasurementCircuit

from helpers import ket


def single_gate_circuit(dim, gate, label="c"):
    return MeasurementCircuit(label, dim, (), (gate,))


# thermal initialization (T = 1) and cascade readout (b0 = 0.01, b1 = 0.02)
THERMAL_SPAM = readout.gibbs_cascade_model(3, 1.0, (0.0, 4.0, 6.0), 0.01, 0.02)


def random_noise_config(rng, dim):
    """One of nine SPAM kinds: populations of |0>, thermal or random, each
    with projective, cascade or random readout, plus random gate noise."""
    a = np.eye(dim)[0]
    roll = rng.integers(3)
    if roll == 1:
        a = readout.gibbs_populations(float(rng.uniform(0.2, 5.0)),
                                      np.sort(rng.uniform(0, 6, size=dim)))
    elif roll == 2:
        a = rng.uniform(0.05, 1.0, size=dim)
        a = a / a.sum()
    b = np.eye(dim)
    roll = rng.integers(3)
    if roll == 1:
        reads = readout.level_clicks(np.eye(dim), float(rng.uniform(0, 0.2)),
                                     float(rng.uniform(0, 0.2)))
        b = readout.cascade_response(reads[1:])
    elif roll == 2:
        b = rng.uniform(0.05, 1.0, size=(dim, dim))
        b = b / b.sum(axis=0, keepdims=True)
    return sim.NoiseConfig(gate_depol_p=float(rng.uniform(0, 0.05)),
                           spam=readout.DiagonalSpamModel(a, b))


class TestPrepState:
    def test_bare_ideal_prep(self):
        circuit = protocols.spam_calibration_circuits(3).circuits[0]
        rho = sim.noisy_prep_state(circuit, sim.NoiseConfig())
        assert np.array_equal(rho, qcore.projector(ket(0, 3)))

    def test_noiseless_flip_moves_population(self):
        circuit = protocols.spam_calibration_circuits(3).circuits[1]
        rho = sim.noisy_prep_state(circuit, sim.NoiseConfig())
        assert abs(rho[1, 1].real - 1.0) < 1e-12

    def test_single_gate_depolarizing_cost(self):
        # one gate at strength p leaves fidelity 1 - p (1 - 1/d)
        circuit = protocols.spam_calibration_circuits(3).circuits[1]
        rho = sim.noisy_prep_state(circuit, sim.NoiseConfig(gate_depol_p=0.001))
        ideal = sim.noisy_prep_state(circuit, sim.NoiseConfig())
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        f = qcore.fidelity(rho, ideal)
        assert abs(f - (1.0 - 0.001 * (1.0 - 1.0 / 3))) < 1e-12


class TestCircuitProbabilities:
    def test_computational_readout_of_ground_state(self):
        circuit = protocols.qst_two_level(3).circuits[0]
        p = sim.circuit_probabilities(circuit, qcore.projector(ket(0, 3)),
                                      sim.NoiseConfig())
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)

    def test_maximally_mixed_state_is_basis_independent(self):
        noise = sim.NoiseConfig()
        for circuit in protocols.qst_two_level(3).circuits:
            p = sim.circuit_probabilities(circuit, np.eye(3) / 3, noise)
            assert np.max(np.abs(p - 1.0 / 3)) < 1e-12

    def test_noise_free_probabilities_match_state_vector_oracle(self):
        # p_k = |<k| U_meas |psi>|^2 without any channel machinery
        for trial in range(50):
            rng = qcore.make_rng(500, "born-oracle", trial)
            dim = int(rng.integers(2, 5))
            psi = qcore.haar_state(dim, rng)
            j = int(rng.integers(0, dim - 1))
            k = int(rng.integers(j + 1, dim))
            axis = "x" if rng.integers(2) else "y"
            gate = TwoLevelGate(axis, float(rng.uniform(0, 2 * np.pi)), (j, k))
            circuit = single_gate_circuit(dim, gate)
            p = sim.circuit_probabilities(circuit, qcore.projector(psi),
                                          sim.NoiseConfig())
            want = np.abs(gate_unitary(gate, dim) @ psi) ** 2
            assert np.max(np.abs(p - want)) < 1e-12

    def test_calibration_probabilities_match_matrix_oracle(self):
        # bare circuit: p = B a with thermal populations a and cascade rows B
        noise = sim.NoiseConfig(spam=THERMAL_SPAM)
        circuit = protocols.spam_calibration_circuits(3).circuits[0]
        p = sim.circuit_probabilities(circuit, None, noise)
        a = readout.gibbs_populations(1.0, np.array([0.0, 4.0, 6.0]))
        b = THERMAL_SPAM.response
        assert np.max(np.abs(p - b @ a)) < 1e-12

    def test_depolarizing_placement_is_irrelevant(self):
        # applying the gate channel before each unitary instead of after
        # it cannot change any outcome probability
        for trial in range(30):
            rng = qcore.make_rng(501, "placement", trial)
            dim = 3
            psi = qcore.haar_state(dim, rng)
            gates = tuple(
                TwoLevelGate("x" if rng.integers(2) else "y",
                             float(rng.uniform(0, np.pi)),
                             (0, int(rng.integers(1, dim))))
                for _ in range(3))
            circuit = MeasurementCircuit("deep", dim, (), gates)
            p_gate = float(rng.uniform(0, 0.1))
            noise = sim.NoiseConfig(gate_depol_p=p_gate)
            got = sim.circuit_probabilities(circuit, qcore.projector(psi), noise)
            rho = qcore.projector(psi)
            for g in gates:
                u = gate_unitary(g, dim)
                rho = qcore.depolarize(rho, p_gate)
                rho = u @ rho @ qcore.dagger(u)
            want = np.real(np.einsum("kij,ji->k", readout.ideal_spam_model(dim).povm(), rho))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_probabilities_sum_to_one_under_fuzzed_noise(self):
        protocol = protocols.qst_two_level(3)
        for trial in range(50):
            rng = qcore.make_rng(502, "prob-sum", trial)
            noise = random_noise_config(rng, 3)
            truth = qcore.depolarize(
                qcore.projector(qcore.haar_state(3, rng)),
                float(rng.uniform(0, 0.5)))
            circuit = protocol.circuits[int(rng.integers(len(protocol)))]
            p = sim.circuit_probabilities(circuit, truth, noise)
            assert abs(p.sum() - 1.0) < 1e-10
            assert p.min() >= 0.0

    def test_truth_state_refuses_prep_gates(self):
        circuit = protocols.qpt_two_level(2).circuits[-1]
        with pytest.raises(ValueError):
            sim.circuit_probabilities(circuit, np.eye(2) / 2, sim.NoiseConfig())

    def test_rejects_shape_mismatch(self):
        circuit = protocols.qst_two_level(3).circuits[0]
        with pytest.raises(ValueError):
            sim.circuit_probabilities(circuit, np.eye(2) / 2, sim.NoiseConfig())


class TestChoiTruth:
    def test_identity_channel_reproduces_state_path(self):
        noise = sim.NoiseConfig(gate_depol_p=0.001)
        choi = qcore.choi_from_unitary(np.eye(3))
        for circuit in protocols.qpt_two_level(3).circuits[:14]:
            got = sim.circuit_probabilities(circuit, choi, noise)
            rho = sim.noisy_prep_state(circuit, noise)
            bare = MeasurementCircuit(circuit.label, 3, (), circuit.meas)
            want = sim.circuit_probabilities(bare, rho, noise, check=False)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_depolarized_unitary_channel(self):
        rng = qcore.make_rng(503, "choi-truth")
        u = qcore.haar_unitary(3, rng)
        choi = qcore.choi_depolarize(qcore.choi_from_unitary(u), 0.3)
        circuit = protocols.qst_two_level(3).circuits[0]
        circuit = MeasurementCircuit("id-prep", 3, (), circuit.meas)
        got = sim.circuit_probabilities(circuit, choi, sim.NoiseConfig())
        rho = qcore.depolarize(u @ qcore.projector(ket(0, 3)) @ qcore.dagger(u), 0.3)
        assert np.max(np.abs(got - np.diagonal(rho).real)) < 1e-12


class TestSampling:
    def test_zero_shots(self):
        counts = sim.sample_counts(np.array([0.3, 0.7]), 0, qcore.make_rng(0))
        assert np.array_equal(counts, [0, 0])

    def test_degenerate_distribution(self):
        counts = sim.sample_counts(np.array([1.0, 0.0, 0.0]), 100, qcore.make_rng(0))
        assert np.array_equal(counts, [100, 0, 0])

    def test_binomial_concentration(self):
        counts = sim.sample_counts(np.array([0.5, 0.5]), 10 ** 6,
                                   qcore.make_rng(77, "concentration"))
        assert abs(int(counts[0]) - 500_000) < 2_500

    def test_rejects_invalid_distribution(self):
        with pytest.raises(ValueError):
            sim.sample_counts(np.array([0.5, 0.4]), 10, qcore.make_rng(0))
        with pytest.raises(ValueError):
            sim.sample_counts(np.array([-0.1, 1.1]), 10, qcore.make_rng(0))
        rows = np.array([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(ValueError):
            sim.sample_counts(rows, np.array([10, 10]), qcore.make_rng(0))

    def test_rows_draw_as_one_call_per_row(self):
        # one call draws the rows in order from the stream, as a loop of
        # single draws does; one row has a zero-probability outcome
        rng = qcore.make_rng(78)
        probs = rng.dirichlet(np.ones(4), size=30)
        probs[3] = (0.0, 0.5, 0.25, 0.25)
        shots = rng.integers(0, 10 ** 6, size=30)
        loop_rng = qcore.make_rng(79)
        want = [loop_rng.multinomial(int(n), p / p.sum()) for p, n in zip(probs, shots)]
        assert np.array_equal(sim.sample_counts(probs, shots, qcore.make_rng(79)), want)
        clicks = rng.uniform(size=5)
        reads = sim.simulate_level_reads(clicks, 10 ** 5 + 3, seed=80)
        loop_rng = qcore.make_rng(80, "level-reads")
        want = [loop_rng.binomial(int(n), c) for n, c in zip(reads.shots, clicks)]
        assert np.array_equal(reads.counts[:, 1], want)
        assert np.array_equal(reads.counts.sum(axis=1), reads.shots)

    def test_allocation_arithmetic(self):
        shots = sim.allocate_shots(10 ** 6, 7)
        assert shots[0] == 142_858 and np.all(shots[1:] == 142_857)
        assert shots.sum() == 10 ** 6
        assert np.array_equal(sim.allocate_shots(7, 7), np.ones(7, dtype=int))
        with pytest.raises(ValueError):
            sim.allocate_shots(0, 3)
        with pytest.raises(ValueError):
            sim.allocate_shots(10, 0)


class TestRunProtocol:
    def test_dataset_invariants_and_determinism(self):
        protocol = protocols.qst_two_level(3)
        truth = qcore.projector(qcore.haar_state(3, qcore.make_rng(1)))
        noise = sim.NoiseConfig(gate_depol_p=0.001)
        data = sim.run_protocol(protocol, truth, noise, 10_000, seed=42)
        assert data.n_circuits == 7
        assert data.total_shots == 10_000
        assert np.array_equal(data.counts.sum(axis=1), data.shots)
        again = sim.run_protocol(protocol, truth, noise, 10_000, seed=42)
        assert np.array_equal(data.counts, again.counts)
        other = sim.run_protocol(protocol, truth, noise, 10_000, seed=43)
        assert not np.array_equal(data.counts, other.counts)

    def test_rejects_a_truth_that_does_not_fit_the_protocol(self):
        qst, qpt = protocols.qst_two_level(3), protocols.qpt_two_level(3)
        state = np.eye(3) / 3
        choi = qcore.choi_from_unitary(np.eye(3))
        for protocol, truth, shape in (
                (qpt, state, r"\(3, 3\)"), (qst, choi, r"\(9, 9\)"),
                (qst, None, r"\(\)"), (qst, np.eye(2) / 2, r"\(2, 2\)"),
                (qpt, qcore.choi_from_unitary(np.eye(2)), r"\(4, 4\)")):
            with pytest.raises(ValueError, match=f"{shape} does not fit a "
                               f"'{protocol.kind}' protocol in dimension 3"):
                sim.run_protocol(protocol, truth, sim.NoiseConfig(), 1_000, seed=7)

    def test_rejects_a_protocol_without_circuits(self):
        empty = protocols.TomographyProtocol("qst", 3, ())
        with pytest.raises(ValueError, match="protocol has no circuits"):
            sim.outcome_probabilities(empty, np.eye(3) / 3, sim.NoiseConfig())

    def test_rejects_fewer_shots_than_circuits(self):
        protocol = protocols.qst_two_level(3)
        with pytest.raises(ValueError):
            sim.run_protocol(protocol, np.eye(3) / 3, sim.NoiseConfig(), 0, seed=0)

    def test_dataset_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            sim.CountsDataset(("a",), np.array([10]), np.array([[4, 5]]))
        with pytest.raises(ValueError, match="do not line up"):
            sim.CountsDataset(("a", "b"), np.array([9]), np.array([[4, 5]]))
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            sim.CountsDataset(("a",), np.array([0]), np.array([[2, -2]]))
        # five counts short of a million shots is not a rounding error
        with pytest.raises(ValueError, match="must sum to the recorded shots"):
            sim.CountsDataset(("a",), [1_000_000], [[999_995, 0]])


class TestSpamModel:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_no_spam_is_ideal(self, dim):
        got = sim.NoiseConfig().spam_model(dim)
        assert np.array_equal(got.populations, np.eye(dim)[0])
        assert np.array_equal(got.response, np.eye(dim))

    def test_configured_spam_is_used_as_given(self):
        assert sim.NoiseConfig(spam=THERMAL_SPAM).spam_model(3) is THERMAL_SPAM

    def test_mismatched_dimension_names_both(self):
        # a qubit SPAM model used with qutrit circuits
        spam = readout.gibbs_cascade_model(2, 1.0, (0.0, 4.0), 0.01, 0.02)
        noise = sim.NoiseConfig(spam=spam)
        protocol = protocols.qst_two_level(3)
        match = r"dimension 2 != circuit dimension 3"
        with pytest.raises(ValueError, match=match):
            sim.run_protocol(protocol, np.eye(3) / 3, noise, 1_000, seed=0)
        with pytest.raises(ValueError, match=match):
            sim.circuit_probabilities(protocol.circuits[0], np.eye(3) / 3, noise)
        with pytest.raises(ValueError, match=match):
            sim.circuit_probabilities(protocol.circuits[0], None, noise)

    def test_models_and_configs_compare_by_identity(self):
        spam, twin = readout.ideal_spam_model(3), readout.ideal_spam_model(3)
        assert spam == spam and spam != twin
        assert hash(spam) == hash(spam)
        noise = sim.NoiseConfig(spam=spam)
        assert noise == sim.NoiseConfig(spam=spam)
        assert noise != sim.NoiseConfig(spam=twin)
        assert hash(noise) == hash(sim.NoiseConfig(spam=spam))

    def test_rejects_invalid_settings(self):
        with pytest.raises(ValueError):
            sim.NoiseConfig(gate_depol_p=1.5)
        with pytest.raises(ValueError):
            sim.NoiseConfig(gate_depol_p=-0.1)
        with pytest.raises(TypeError):
            sim.NoiseConfig(spam=np.eye(3))


class TestLevelReads:
    def test_click_statistics_match_the_effect(self):
        a = THERMAL_SPAM.populations
        clicks = readout.level_clicks(a, 0.01, 0.02)
        data = sim.simulate_level_reads(clicks, 3 * 10 ** 6, seed=11)
        assert data.counts.shape == (3, 2)
        assert data.labels == ("read0", "read1", "read2")
        for j in range(3):
            want = (1 - 0.01) * a[j] + 0.02 * (1 - a[j])
            got = data.counts[j, 1] / data.shots[j]
            assert abs(got - want) < 5 * np.sqrt(want * (1 - want) / data.shots[j])

    def test_deterministic_under_seed(self):
        clicks = readout.level_clicks(np.eye(3)[0], 0.05, 0.01)
        a = sim.simulate_level_reads(clicks, 1_000, seed=5)
        b = sim.simulate_level_reads(clicks, 1_000, seed=5)
        assert np.array_equal(a.counts, b.counts)


class TestGaugeEndToEnd:
    def test_gauged_model_generates_identical_datasets(self):
        # identical probability tables force identical draws per seed
        model = readout.gibbs_cascade_model(3, 1.0, np.array([0.0, 4.0, 6.0]),
                                            0.01, 0.02)
        moved = readout.gauge_transform(model, 0.9 * 3 * model.populations.min())
        # the QST circuits measuring the prepared state: the identity channel
        protocol = protocols.TomographyProtocol(
            "qpt", 3, protocols.qst_two_level(3).circuits)
        noise_a = sim.NoiseConfig(gate_depol_p=0.001, spam=model)
        noise_b = sim.NoiseConfig(gate_depol_p=0.001, spam=moved)
        data_a = sim.run_protocol(protocol, None, noise_a, 50_000, seed=19)
        data_b = sim.run_protocol(protocol, None, noise_b, 50_000, seed=19)
        assert np.array_equal(data_a.counts, data_b.counts)

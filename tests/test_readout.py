"""Readout cascade, thermal initialization, and the diagonal error gauge.

The cascade response values here are checked against hand-expanded
products of the binary-read click probabilities, and the gauge
transformation is checked by the only property that matters for it:
equality of predicted outcome probabilities across every unitary circuit.
"""

import numpy as np
import pytest

from qudittomo import qcore, readout


class TestLevelReadout:
    def test_noiseless_read_is_a_projector(self):
        # read j clicks exactly on level j
        for dim in (2, 3, 5):
            assert np.array_equal(readout.level_reads(dim, 0.0, 0.0), np.eye(dim))

    def test_qubit_example(self):
        r = readout.level_reads(2, 0.01, 0.02)
        assert np.allclose(r[1], [0.02, 0.99], atol=1e-15)

    def test_qutrit_example(self):
        r = readout.level_reads(3, 0.01, 0.02)
        assert np.allclose(r[2], [0.02, 0.02, 0.99], atol=1e-15)

    def test_rejects_out_of_range_inputs(self):
        for dim in (2, 3, 5):
            with pytest.raises(ValueError):
                readout.level_reads(dim, -0.1, 0.0)
            with pytest.raises(ValueError):
                readout.level_reads(dim, 0.0, 1.2)


class TestCascadePovm:
    def test_projective_effects_give_projectors(self):
        for dim in (2, 3, 5):
            b = readout.cascade_response(readout.level_reads(dim, 0.0, 0.0)[1:])
            assert np.array_equal(b, np.eye(dim))

    def test_qutrit_noisy_diagonals(self):
        # hand expansion of b[1] = r_1, b[2] = r_2 (1 - r_1),
        # b[0] = (1 - r_2)(1 - r_1) at b0 = 0.01, b1 = 0.02
        b = readout.cascade_response(readout.level_reads(3, 0.01, 0.02)[1:])
        want = {
            1: [0.02, 0.99, 0.02],
            2: [0.0196, 0.0002, 0.9702],
            0: [0.9604, 0.0098, 0.0098],
        }
        for k, row in want.items():
            assert np.max(np.abs(b[k] - row)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_response_is_the_first_click_distribution(self, dim):
        # outcome k: reads 1 .. k-1 miss and read k clicks; outcome 0: all miss
        b0, b1 = 0.03, 0.07
        r = readout.level_reads(dim, b0, b1)
        b = readout.cascade_response(r[1:])
        for j in range(dim):
            stay = 1.0
            for k in range(1, dim):
                assert abs(b[k, j] - stay * r[k, j]) < 1e-15
                stay *= 1.0 - r[k, j]
            assert abs(b[0, j] - stay) < 1e-15

    def test_sums_to_identity_for_random_diagonal_effects(self):
        for trial in range(100):
            rng = qcore.make_rng(300, "cascade-fuzz", trial)
            dim = int(rng.integers(2, 7))
            b = readout.cascade_response(rng.uniform(0, 1, size=(dim - 1, dim)))
            assert np.max(np.abs(b.sum(axis=0) - 1.0)) < 1e-10
            assert b.min() >= 0.0

    def test_rejects_invalid_effects(self):
        with pytest.raises(ValueError):
            readout.cascade_response(np.array([[1.5, 0.0]]))
        with pytest.raises(ValueError):
            readout.cascade_response(np.array([[0.5, np.nan]]))
        with pytest.raises(ValueError):
            # wrong read count for the dimension
            readout.cascade_response(np.full((1, 3), 0.5))
        with pytest.raises(ValueError):
            readout.cascade_response(np.full(2, 0.5))


class TestGibbsPopulations:
    def test_infinite_temperature_is_uniform(self):
        a = readout.gibbs_populations(1e9, np.array([0.0, 4.0, 6.0]))
        assert np.max(np.abs(a - 1.0 / 3)) < 1e-8

    def test_reference_point(self):
        # Z = 1 + e^-4 + e^-6 at T = 1
        a = readout.gibbs_populations(1.0, np.array([0.0, 4.0, 6.0]))
        z = 1.0 + np.exp(-4.0) + np.exp(-6.0)
        want = np.array([1.0, np.exp(-4.0), np.exp(-6.0)]) / z
        assert np.max(np.abs(a - want)) < 1e-14
        assert np.allclose(a, [0.97963, 0.01794, 0.00243], atol=1e-5)

    def test_degenerate_levels_are_uniform(self):
        a = readout.gibbs_populations(1.0, np.zeros(3))
        assert np.allclose(a, 1.0 / 3)

    def test_monotone_for_increasing_energies(self):
        for trial in range(50):
            rng = qcore.make_rng(301, "gibbs-monotone", trial)
            dim = int(rng.integers(2, 7))
            omegas = np.sort(rng.uniform(0, 10, size=dim))
            a = readout.gibbs_populations(float(rng.uniform(0.05, 20)), omegas)
            assert np.all(np.diff(a) <= 1e-15)
            assert abs(a.sum() - 1.0) < 1e-12

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            readout.gibbs_populations(0.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            readout.gibbs_populations(-1.0, np.array([0.0, 1.0]))


class TestDiagonalModels:
    def test_pure_population_state(self):
        rho = readout.DiagonalSpamModel(np.array([1.0, 0.0, 0.0]),
                                        np.eye(3)).initial_state()
        assert np.array_equal(rho, qcore.projector(qcore.ket(0, 3)))

    def test_identity_response_is_projective(self):
        ops = readout.DiagonalSpamModel(np.array([1.0, 0.0, 0.0]), np.eye(3)).povm()
        assert np.array_equal(
            ops, np.stack([qcore.projector(qcore.ket(k, 3)) for k in range(3)]))

    def test_realistic_fit_values_form_a_valid_model(self):
        a = np.array([0.97, 0.03, 0.0])
        b = np.array([[0.98, 0.0, 0.01],
                      [0.0, 1.0, 0.0],
                      [0.02, 0.0, 0.99]])
        model = readout.DiagonalSpamModel(a, b)
        qcore.check_povm(model.povm())
        qcore.check_density_matrix(model.initial_state())

    def test_every_accepted_model_gives_a_valid_povm(self):
        # `povm` skips check_povm; the constructor's bounds must imply it,
        # right up to entries of -1e-12 and column sums off by 0.9e-10
        for trial in range(200):
            rng = qcore.make_rng(304, "spam-model-fuzz", trial)
            dim = int(rng.integers(2, 7))
            b = rng.dirichlet(np.ones(dim), size=dim).T
            for j in range(dim):
                top = int(np.argmax(b[:, j]))
                low = int(rng.choice([k for k in range(dim) if k != top]))
                b[top, j] += b[low, j] + 1e-12
                b[low, j] = -1e-12
                b[top, j] += rng.choice([-0.9e-10, 0.9e-10])
            model = readout.DiagonalSpamModel(rng.dirichlet(np.ones(dim)), b)
            ops = model.povm()
            qcore.check_povm(ops)
            assert np.array_equal(np.diagonal(ops, axis1=1, axis2=2), b)

    def test_model_rejects_broken_simplexes(self):
        with pytest.raises(ValueError):
            readout.DiagonalSpamModel(np.array([0.6, 0.6]), np.eye(2))
        with pytest.raises(ValueError):
            readout.DiagonalSpamModel(np.array([1.0, 0.0]),
                                      np.array([[0.5, 0.0], [0.2, 1.0]]))
        with pytest.raises(ValueError):
            readout.DiagonalSpamModel(np.array([1.0, 0.0]), np.eye(3))

    def test_cold_noiseless_limit_is_ideal(self):
        model = readout.gibbs_cascade_model(3, 1e-4, np.array([0.0, 4.0, 6.0]),
                                            0.0, 0.0)
        ideal = readout.ideal_spam_model(3)
        assert np.max(np.abs(model.populations - ideal.populations)) < 1e-12
        assert np.max(np.abs(model.response - ideal.response)) < 1e-12


class TestGaugeTransform:
    def test_zero_weight_is_identity(self):
        model = readout.gibbs_cascade_model(3, 1.0, np.array([0.0, 4.0, 6.0]),
                                            0.01, 0.02)
        out = readout.gauge_transform(model, 0.0)
        assert np.max(np.abs(out.populations - model.populations)) < 1e-15
        assert np.max(np.abs(out.response - model.response)) < 1e-15

    def test_uniform_populations_are_a_fixed_point(self):
        model = readout.DiagonalSpamModel(np.array([0.5, 0.5]), np.eye(2))
        out = readout.gauge_transform(model, 0.2)
        assert np.allclose(out.populations, [0.5, 0.5], atol=1e-15)

    def test_preserves_probabilities_for_every_unitary(self):
        # Tr(U rho0 U^dag P_k) must agree between the two models
        model = readout.gibbs_cascade_model(3, 1.0, np.array([0.0, 4.0, 6.0]),
                                            0.01, 0.02)
        p = 0.9 * 3 * model.populations.min()
        moved = readout.gauge_transform(model, p)
        rho, povm = model.initial_state(), model.povm()
        rho2, povm2 = moved.initial_state(), moved.povm()
        for trial in range(100):
            u = qcore.haar_unitary(3, qcore.make_rng(303, "gauge", trial))
            evolved = u @ rho @ qcore.dagger(u)
            evolved2 = u @ rho2 @ qcore.dagger(u)
            want = np.real(np.einsum("kij,ji->k", povm, evolved))
            got = np.real(np.einsum("kij,ji->k", povm2, evolved2))
            assert np.max(np.abs(want - got)) < 1e-12

    def test_rejects_weight_beyond_population_budget(self):
        model = readout.ideal_spam_model(3)  # min population is zero
        with pytest.raises(ValueError):
            readout.gauge_transform(model, 0.1)
        with pytest.raises(ValueError):
            readout.gauge_transform(model, 1.0)

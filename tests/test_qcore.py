"""Core primitives: channels, fidelities, Choi calculus, seeded sampling."""

import numpy as np
import pytest

from qudittomo import qcore

from helpers import ket


def random_state(dim, rng):
    return qcore.projector(qcore.haar_state(dim, rng))


def random_mixed(dim, rng):
    # convex mixture of two pure states, full support after a floor
    rho = 0.6 * random_state(dim, rng) + 0.4 * random_state(dim, rng)
    return 0.9 * rho + 0.1 * np.eye(dim) / dim


class TestDepolarize:
    def test_zero_strength_is_identity(self):
        rho = random_mixed(3, qcore.make_rng(11))
        assert np.allclose(qcore.depolarize(rho, 0.0), rho)

    def test_full_strength_gives_maximally_mixed(self):
        rho = qcore.projector(ket(0, 2))
        assert np.allclose(qcore.depolarize(rho, 1.0), np.eye(2) / 2)

    def test_pure_state_fidelity_closed_form(self):
        # (1 - p) + p/d exactly, for any pure input
        psi = qcore.haar_state(3, qcore.make_rng(5))
        rho = qcore.projector(psi)
        f = qcore.fidelity(qcore.depolarize(rho, 0.01), rho)
        assert abs(f - (0.99 + 0.01 / 3)) < 1e-12

    def test_commutes_with_unitary_conjugation(self):
        for trial in range(50):
            rng = qcore.make_rng(100, "depol-commute", trial)
            dim = int(rng.integers(2, 6))
            rho = random_mixed(dim, rng)
            u = qcore.haar_unitary(dim, rng)
            p = float(rng.uniform(0, 1))
            lhs = qcore.depolarize(u @ rho @ qcore.dagger(u), p)
            rhs = u @ qcore.depolarize(rho, p) @ qcore.dagger(u)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        for trial in range(50):
            rng = qcore.make_rng(101, "depol-trace", trial)
            rho = random_mixed(4, rng)
            out = qcore.depolarize(rho, float(rng.uniform(0, 1)))
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert qcore.is_hermitian(out)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            qcore.depolarize(np.eye(2) / 2, p)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = random_mixed(3, qcore.make_rng(7))
        assert abs(qcore.fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure_states(self):
        a = qcore.projector(ket(0, 2))
        b = qcore.projector(ket(1, 2))
        assert qcore.fidelity(a, b) == 0.0

    def test_pure_versus_maximally_mixed(self):
        rho = qcore.projector(ket(0, 2))
        assert abs(qcore.fidelity(rho, np.eye(2) / 2) - 0.5) < 1e-12

    def test_symmetric_in_arguments(self):
        for trial in range(30):
            rng = qcore.make_rng(102, "fid-symm", trial)
            a = random_mixed(3, rng)
            b = random_mixed(3, rng)
            assert abs(qcore.fidelity(a, b) - qcore.fidelity(b, a)) < 1e-10

    def test_pure_inputs_match_overlap(self):
        # against the inner-product formula |<psi|phi>|^2
        for trial in range(50):
            rng = qcore.make_rng(103, "fid-overlap", trial)
            psi = qcore.haar_state(3, rng)
            phi = qcore.haar_state(3, rng)
            want = abs(np.vdot(psi, phi)) ** 2
            got = qcore.fidelity(qcore.projector(psi), qcore.projector(phi))
            assert abs(got - want) < 1e-12

    def test_bounded_in_unit_interval(self):
        for trial in range(30):
            rng = qcore.make_rng(104, "fid-range", trial)
            f = qcore.fidelity(random_mixed(4, rng), random_mixed(4, rng))
            assert 0.0 <= f <= 1.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.fidelity(np.eye(2) / 2, np.eye(3) / 3)


class TestHaarSampling:
    def test_state_is_normalized(self):
        psi = qcore.haar_state(5, qcore.make_rng(0))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_state_first_component_moment(self):
        # mean |<0|psi>|^2 over many draws approaches 1/d
        rng = qcore.make_rng(42, "haar-moment")
        vals = [abs(qcore.haar_state(3, rng)[0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(vals) - 1.0 / 3) < 0.01

    def test_state_deterministic_under_seed(self):
        a = qcore.haar_state(3, qcore.make_rng(9, "same"))
        b = qcore.haar_state(3, qcore.make_rng(9, "same"))
        assert np.array_equal(a, b)

    def test_unitary_is_unitary(self):
        for trial in range(20):
            u = qcore.haar_unitary(4, qcore.make_rng(12, "haar-u", trial))
            assert qcore.is_unitary(u)

    def test_unitary_column_moment(self):
        rng = qcore.make_rng(43, "haar-u-moment")
        vals = [abs(qcore.haar_unitary(3, rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(vals) - 1.0 / 3) < 0.01

    def test_unitary_deterministic_under_seed(self):
        a = qcore.haar_unitary(3, qcore.make_rng(9, "u-same"))
        b = qcore.haar_unitary(3, qcore.make_rng(9, "u-same"))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_rejects_tiny_dimensions(self, dim):
        with pytest.raises(ValueError):
            qcore.haar_state(dim, qcore.make_rng(0))
        with pytest.raises(ValueError):
            qcore.haar_unitary(dim, qcore.make_rng(0))


class TestChoi:
    def test_identity_channel_is_identity(self):
        choi = qcore.choi_from_unitary(np.eye(3))
        rho = random_mixed(3, qcore.make_rng(3))
        assert np.max(np.abs(qcore.apply_choi(choi, rho) - rho)) < 1e-12

    def test_full_depolarization_after_identity(self):
        choi = qcore.choi_depolarize(qcore.choi_from_unitary(np.eye(3)), 1.0)
        rho = random_mixed(3, qcore.make_rng(4))
        assert np.max(np.abs(qcore.apply_choi(choi, rho) - np.eye(3) / 3)) < 1e-12

    def test_apply_matches_direct_conjugation(self):
        for trial in range(50):
            rng = qcore.make_rng(105, "choi-conj", trial)
            dim = int(rng.integers(2, 5))
            u = qcore.haar_unitary(dim, rng)
            rho = random_mixed(dim, rng)
            got = qcore.apply_choi(qcore.choi_from_unitary(u), rho)
            want = u @ rho @ qcore.dagger(u)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_unitary_choi_is_trace_preserving(self):
        for trial in range(20):
            rng = qcore.make_rng(106, "choi-tp", trial)
            choi = qcore.choi_from_unitary(qcore.haar_unitary(3, rng))
            qcore.check_choi(choi)
            assert np.max(np.abs(qcore.choi_output_trace(choi) - np.eye(3))) < 1e-10

    def test_depolarized_choi_acts_like_depolarize(self):
        for trial in range(20):
            rng = qcore.make_rng(107, "choi-depol", trial)
            u = qcore.haar_unitary(3, rng)
            rho = random_mixed(3, rng)
            p = float(rng.uniform(0, 1))
            choi = qcore.choi_depolarize(qcore.choi_from_unitary(u), p)
            want = qcore.depolarize(u @ rho @ qcore.dagger(u), p)
            assert np.max(np.abs(qcore.apply_choi(choi, rho) - want)) < 1e-12

    def test_apply_rejects_non_trace_preserving(self):
        bad = qcore.choi_from_unitary(np.eye(2)) * 1.5
        with pytest.raises(ValueError):
            qcore.apply_choi(bad, np.eye(2) / 2)

    def test_rejects_non_unitary_input(self):
        with pytest.raises(ValueError):
            qcore.choi_from_unitary(np.ones((2, 2)))


class TestProcessFidelity:
    def test_identical_channels(self):
        choi = qcore.choi_from_unitary(qcore.haar_unitary(3, qcore.make_rng(8)))
        assert abs(qcore.process_fidelity(choi, choi) - 1.0) < 1e-10

    def test_unitary_versus_depolarized_self(self):
        # closed form 1 - p (1 - 1/d^2) for d = 3, p = 0.01
        u = qcore.haar_unitary(3, qcore.make_rng(13))
        choi = qcore.choi_from_unitary(u)
        f = qcore.process_fidelity(choi, qcore.choi_depolarize(choi, 0.01))
        assert abs(f - (1.0 - 0.01 * (1.0 - 1.0 / 9))) < 1e-10

    def test_invariant_under_shared_post_rotation(self):
        for trial in range(20):
            rng = qcore.make_rng(108, "pf-invariance", trial)
            u = qcore.haar_unitary(3, rng)
            w = qcore.haar_unitary(3, rng)
            v = qcore.haar_unitary(3, rng)
            p = float(rng.uniform(0, 0.3))
            f0 = qcore.process_fidelity(
                qcore.choi_depolarize(qcore.choi_from_unitary(u), p),
                qcore.choi_from_unitary(w))
            f1 = qcore.process_fidelity(
                qcore.choi_depolarize(qcore.choi_from_unitary(v @ u), p),
                qcore.choi_from_unitary(v @ w))
            assert abs(f0 - f1) < 1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.process_fidelity(qcore.choi_from_unitary(np.eye(2)),
                                   qcore.choi_from_unitary(np.eye(3)))


class TestValidation:
    def test_density_matrix_checks(self):
        qcore.check_density_matrix(np.eye(3) / 3)
        with pytest.raises(ValueError):
            qcore.check_density_matrix(np.eye(3))  # trace 3
        with pytest.raises(ValueError):
            qcore.check_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(ValueError):
            qcore.check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


class TestSeedDerivation:
    def test_same_triple_same_seed(self):
        assert qcore.derive_seed(5, "x", 2) == qcore.derive_seed(5, "x", 2)

    def test_distinct_labels_and_indices_split_streams(self):
        seeds = {qcore.derive_seed(5, label, idx)
                 for label in ("a", "b", "c") for idx in range(10)}
        assert len(seeds) == 30

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            qcore.derive_seed(5, "x", -1)

"""The test helpers: basis kets and the POVM check."""

import numpy as np
import pytest

from helpers import check_povm, ket


def test_ket_is_a_basis_vector():
    assert np.array_equal(ket(1, 3), [0, 1, 0])
    with pytest.raises(ValueError):
        ket(3, 3)


def test_povm_checks():
    ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    check_povm(ops)
    with pytest.raises(ValueError):
        check_povm(ops * 0.5)  # sums to I/2
    with pytest.raises(ValueError):
        check_povm(np.stack([np.diag([1.5, 0.0]),
                             np.diag([-0.5, 1.0])]).astype(complex))

import numpy as np
import pytest

from hypctrl.bmatrix import (
    boundary_elimination,
    class_report,
    in_class_B,
    in_class_Be,
    trailing_minor_invertible,
)
from hypctrl.core import IndexOutOfRange, NotInClassB


def test_trailing_minor_examples():
    ok, _ = trailing_minor_invertible([[1.0, 2.0], [3.0, 4.0]], 1)
    assert ok  # entry 4
    ok, _ = trailing_minor_invertible([[1.0, 2.0], [3.0, 0.0]], 1)
    assert not ok
    # hand determinant: 1*4 - 2*3 = -2 != 0
    ok, rcond = trailing_minor_invertible([[1.0, 2.0], [3.0, 4.0]], 2)
    assert ok
    assert 0 < rcond < 1


def test_trailing_minor_index_range():
    with pytest.raises(IndexOutOfRange):
        trailing_minor_invertible([[1.0, 2.0]], 2)


def test_class_examples():
    assert in_class_B([[0.0]])  # range 1..min(1, 0) is empty
    assert not in_class_Be([[0.0]])
    assert not in_class_B([[1.0, 0.0]])  # trailing 1x1 entry is 0
    assert in_class_Be([[1.0, 1.0]])
    assert not in_class_Be(np.ones((2, 1)))  # m < k cannot hold


def test_be_implies_b():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(k, 5))
        B = rng.standard_normal((k, m))
        if in_class_Be(B):
            assert in_class_B(B)


def test_gaussian_matrices_almost_surely_admissible():
    rng = np.random.default_rng(5)
    hits = sum(in_class_B(rng.standard_normal((2, 3))) for _ in range(200))
    assert hits == 200


def test_elimination_single_row():
    em = boundary_elimination([[1.0, 2.0]])
    mp = em.by_level(1)
    assert mp.control_component == 3
    assert mp.coef == pytest.approx([-0.5])
    assert mp(np.array([2.0])) == pytest.approx(-1.0)


def test_elimination_identity_reflection():
    em = boundary_elimination(np.eye(2))
    for mp in em.maps:
        args = np.ones(mp.coef.size)
        assert mp(args) == 0.0


def test_elimination_substitution_residual():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((2, 3))
    while not in_class_B(B):
        B = rng.standard_normal((2, 3))
    em = boundary_elimination(B)
    k, m = 2, 3
    for j in range(1, len(em.maps) + 1):
        u = rng.standard_normal(m - j)
        w_plus = em.stacked_boundary_values(u, j)
        residual = B[k - j :, :] @ w_plus  # rows with w_- pinned to zero
        assert np.max(np.abs(residual)) < 1e-12 * max(1.0, np.max(np.abs(w_plus)))


def test_substitution_identity_property():
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        B = rng.standard_normal((k, m))
        if not in_class_B(B):
            continue
        em = boundary_elimination(B)
        for j in range(1, len(em.maps) + 1):
            u = rng.standard_normal(m - j)
            w_plus = em.stacked_boundary_values(u, j)
            residual = B[k - j :, :] @ w_plus
            scale = max(1.0, float(np.max(np.abs(w_plus))))
            assert np.max(np.abs(residual), initial=0.0) < 1e-12 * scale


def test_not_in_class_raises():
    with pytest.raises(NotInClassB):
        boundary_elimination([[1.0, 0.0]])


def test_class_report_note_for_wide_k():
    rep = class_report(np.ones((3, 2)))
    assert rep["in_class_Be"] is False
    assert "m >= k" in rep["note"]

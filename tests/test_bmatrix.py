import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypctrl.bmatrix import (
    boundary_elimination,
    class_report,
    in_class_B,
    in_class_Be,
    stacked_boundary_values,
    trailing_minor_invertible,
)
from hypctrl.core import IndexOutOfRange, NotInClassB, ValidationError


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
    # level 1 of a 1x2 B: w_3(t,0) = -0.5 w_2(t,0)
    rows = boundary_elimination([[1.0, 2.0]])
    assert len(rows) == 1
    assert rows[0] == pytest.approx([-0.5])
    assert rows[0] @ np.array([2.0]) == pytest.approx(-1.0)


def test_elimination_identity_reflection():
    rows = boundary_elimination(np.eye(2))
    assert [row.size for row in rows] == [1, 0]
    for row in rows:
        assert row @ np.ones(row.size) == 0.0


def test_elimination_substitution_residual():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((2, 3))
    while not in_class_B(B):
        B = rng.standard_normal((2, 3))
    rows = boundary_elimination(B)
    k, m = 2, 3
    for j in range(1, len(rows) + 1):
        u = rng.standard_normal(m - j)
        w_plus = stacked_boundary_values(rows, u, j)
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
        rows = boundary_elimination(B)
        for j in range(1, len(rows) + 1):
            u = rng.standard_normal(m - j)
            w_plus = stacked_boundary_values(rows, u, j)
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_report_verdicts_and_rows_agree_with_each_minor(k, m, data):
    """On small-integer B, where singular minors are common, the report's
    minors and verdicts are those of trailing_minor_invertible order by order,
    and the elimination rows exist exactly for class B and solve the
    boundary relation level by level."""
    entries = st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0])
    B = np.array(data.draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    minors = [trailing_minor_invertible(B, i) for i in range(1, min(k, m) + 1)]
    invertible = [ok for ok, _ in minors]
    rep = class_report(B)
    assert [(info["invertible"], info["rcond"]) for info in rep["minors"].values()] == minors
    assert list(rep["minors"]) == list(range(1, min(k, m) + 1))
    assert rep["in_class_B"] == in_class_B(B) == all(invertible[: min(k, m - 1)])
    assert rep["in_class_Be"] == in_class_Be(B) == (m >= k and all(invertible[:k]))
    if not in_class_B(B):
        with pytest.raises(NotInClassB):
            boundary_elimination(B)
        return
    rows = boundary_elimination(B)
    assert len(rows) == min(k, m - 1) + (k >= m and invertible[m - 1])
    for j, row in enumerate(rows, start=1):
        assert row.shape == (m - j,)
        u = np.linspace(-1.0, 1.0, m - j) + 0.3
        w_plus = stacked_boundary_values(rows, u, j)
        assert np.array_equal(w_plus[: m - j], u)
        # the last j rows of w_- = B w_+, with w_- pinned to zero there
        residual = B[k - j :] @ w_plus
        assert np.max(np.abs(residual)) < 1e-12 * max(1.0, float(np.max(np.abs(w_plus))))
        with pytest.raises(ValidationError, match="free values"):
            stacked_boundary_values(rows, np.zeros(m - j + 1), j)

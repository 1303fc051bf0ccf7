import numpy as np
import pytest

from cograd import (
    DimensionError,
    LayoutEntry,
    LayoutError,
    OracleError,
    ParamVector,
    finite_diff_gradient,
    finite_diff_hvp,
    hvp_default_eps,
)


def test_param_vector_rejects_mismatched_layout():
    layout = (LayoutEntry("a", (3,), 0),)
    with pytest.raises(LayoutError):
        ParamVector(np.zeros(5), layout)
    layout = (LayoutEntry("W", (2, 2), 0), LayoutEntry("b", (), 4))
    assert [e.size for e in layout] == [4, 1]
    assert len(ParamVector(np.zeros(5), layout)) == 5


def test_fd_gradient_quadratic_exact():
    grad = finite_diff_gradient(lambda v: 0.5 * float(v @ v), np.array([1.0, -2.0]), eps=1e-3)
    assert np.max(np.abs(grad - np.array([1.0, -2.0]))) < 1e-9


def test_fd_gradient_bilinear():
    grad = finite_diff_gradient(lambda v: float(v[0] * v[1]), np.array([3.0, 5.0]), eps=1e-3)
    assert np.max(np.abs(grad - np.array([5.0, 3.0]))) < 1e-9


def test_fd_gradient_constant_loss_is_zero():
    grad = finite_diff_gradient(lambda v: 4.2, np.array([0.3, -0.1, 2.0]))
    assert np.array_equal(grad, np.zeros(3))


def test_fd_gradient_names_offending_index():
    def loss(v):
        return float("nan") if v[1] > 1.0 else float(v @ v)

    with pytest.raises(OracleError, match="index 1"):
        finite_diff_gradient(loss, np.array([0.0, 1.0]), eps=1e-3)


def test_fd_gradient_second_order_convergence_on_softplus():
    # Halving eps should shrink the truncation error about 4x.
    theta = np.array([0.3, -0.7, 1.1])

    def loss(v):
        return float(np.sum(np.log1p(np.exp(v))))

    exact = 1.0 / (1.0 + np.exp(-theta))
    err_coarse = np.linalg.norm(finite_diff_gradient(loss, theta, eps=1e-2) - exact)
    err_fine = np.linalg.norm(finite_diff_gradient(loss, theta, eps=5e-3) - exact)
    assert 3.5 < err_coarse / err_fine < 4.5


def test_fd_hvp_diagonal_quadratic():
    h = np.array([1.0, 2.0])

    def grad(v):
        return h * v

    got = finite_diff_hvp(grad, np.array([0.4, -1.3]), np.array([1.0, 1.0]))
    assert np.max(np.abs(got - h)) < 1e-9


def test_fd_hvp_zero_direction():
    got = finite_diff_hvp(lambda v: v, np.array([1.0, 2.0]), np.zeros(2))
    assert np.array_equal(got, np.zeros(2))


def test_fd_hvp_identity_hessian():
    got = finite_diff_hvp(lambda v: v, np.array([0.0, 0.0]), np.array([3.0, -4.0]))
    assert np.max(np.abs(got - np.array([3.0, -4.0]))) < 1e-9


def test_fd_hvp_linear_in_direction():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = rng.uniform(0.5, 3.0, size=6)
        x = rng.standard_normal(6)
        v1 = rng.standard_normal(6)
        v2 = rng.standard_normal(6)

        def grad(v):
            return h * v

        joint = finite_diff_hvp(grad, x, v1 + v2)
        parts = finite_diff_hvp(grad, x, v1) + finite_diff_hvp(grad, x, v2)
        assert np.linalg.norm(joint - parts) <= 1e-6 * max(np.linalg.norm(parts), 1.0)


def test_fd_hvp_length_mismatch():
    with pytest.raises(DimensionError):
        finite_diff_hvp(lambda v: v, np.zeros(3), np.zeros(2))


def test_hvp_default_eps_is_scale_aware():
    assert hvp_default_eps(np.array([2.0, -5.0])) == pytest.approx(6e-4)
    assert hvp_default_eps(np.zeros(3)) == pytest.approx(1e-4)


def test_param_vector_asarray_view():
    pv = ParamVector(np.array([1.0, 2.0]), (LayoutEntry("x", (2,), 0),))
    assert np.asarray(pv).tolist() == [1.0, 2.0]
    assert np.asarray(pv) is pv.values

import numpy as np
import pytest

from kpff.fusion import KpffLayer, fusion_inputs, kpff_forward, kpff_backward
from kpff.gradcheck import (
    check_adam_first_step,
    check_kpff_instance,
    check_value,
    finite_diff_grad,
    kpff_dense_jacobians,
    relative_error,
    run_suite,
)
from kpff.rng import Stream


def test_finite_diff_quadratic():
    f = lambda t: float(np.sum(t**2))
    g = finite_diff_grad(f, np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0], atol=1e-8)


def test_finite_diff_constant():
    g = finite_diff_grad(lambda t: 3.5, np.array([0.3, -2.0, 10.0]))
    assert np.allclose(g, 0.0, atol=1e-9)


def test_finite_diff_linear():
    s = Stream(2)
    c = s.uniform(size=(6,), low=-3, high=3)
    g = finite_diff_grad(lambda t: float(c @ t), s.uniform(size=(6,)))
    assert np.allclose(g, c, atol=1e-9)


def test_finite_diff_rejects_nonfinite_loss():
    theta = np.array([1.0])
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: float("nan"), theta)
    assert theta.tolist() == [1.0]


def test_finite_diff_perturbs_in_place_and_restores_exactly():
    # 1e-10 - 1e-6 + 1e-6 != 1e-10 in float64: restoring by arithmetic would show
    theta = np.array([[1e-10, -3e5], [7.0, 0.0]])
    before = theta.tobytes()
    seen = []

    def f(t):
        assert t is theta
        seen.append(t.copy())
        return float(np.sum(t))

    g = finite_diff_grad(f, theta)
    assert theta.tobytes() == before
    assert g.shape == (4,)
    # one coordinate at a time in flat order, +step then -step, with step
    # 1e-6 * max(1, |theta_k|)
    steps = [s - theta for s in seen]
    assert [np.flatnonzero(d).tolist() for d in steps] == [[0], [0], [1], [1], [2], [2], [3], [3]]
    assert steps[6].flat[3] == 1e-6 and steps[7].flat[3] == -1e-6
    assert steps[2].flat[1] == pytest.approx(0.3) and steps[3].flat[1] == pytest.approx(-0.3)
    assert np.allclose(g, 1.0, rtol=1e-4)  # roundoff of the sum with -3e5 in it


def test_finite_diff_restores_when_the_loss_raises():
    theta = np.array([0.1, 0.2])

    def f(t):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        finite_diff_grad(f, theta)
    assert theta.tolist() == [0.1, 0.2]


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    # both tiny: pass via the absolute floor even if the ratio is large
    rep = check_value("tiny", 1e-13, -1e-13)
    assert rep.passed


def test_dense_jacobian_single_input():
    layer = KpffLayer([[0.75]])
    inputs = fusion_inputs([[1.0, 2.0, 3.0]])
    _, J_x = kpff_dense_jacobians(layer, inputs)
    assert np.allclose(J_x, 0.75 * np.eye(3))


def test_dense_jacobian_sparsity():
    s = Stream(9)
    n, r = 3, 5
    layer = KpffLayer([s.uniform(size=(n,), low=-1, high=1) for _ in range(n)])
    inputs = fusion_inputs([s.uniform(size=(r,), low=0.1, high=1) for _ in range(n)])
    J_w, J_x = kpff_dense_jacobians(layer, inputs)
    # each row of J_w has exactly n nonzeros, one per input at column (i, b)
    for a in range(n * r):
        row = J_w[a]
        assert np.count_nonzero(row) == n
        b = a // r
        for i in range(n):
            assert row[i * n + b] != 0
    # J_x: column group j has exactly n nonzeros per column
    for col in range(n * r):
        assert np.count_nonzero(J_x[:, col]) <= n


def test_jacobians_match_backward_on_random_instances():
    s = Stream(31)
    for n in (1, 2, 4, 6):
        for r in (1, 3, 6):
            layer = KpffLayer([s.uniform(size=(n,), low=-1, high=1) for _ in range(n)])
            inputs = fusion_inputs([s.uniform(size=(r,), low=-1, high=1) for _ in range(n)])
            up = s.uniform(size=(n * r,), low=-1, high=1)
            kpff_forward(layer, inputs)
            dX = kpff_backward(layer, up)
            J_w, J_x = kpff_dense_jacobians(layer, inputs)
            assert np.allclose(np.concatenate(layer.grad_ws), J_w.T @ up,
                               rtol=1e-15, atol=1e-15)
            assert np.allclose(dX.ravel(), J_x.T @ up,
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("m", [1, 5])
def test_jacobians_match_backward_at_n_by_m_weights(m):
    # an n x m layer: J_w is (m*r) x (n*m) and J_x (m*r) x (n*r)
    s = Stream(37 + m)
    for n, r in ((1, 3), (2, 5), (3, 4)):
        layer = KpffLayer(s.uniform(size=(n, m), low=-1, high=1))
        inputs = fusion_inputs(s.uniform(size=(n, r), low=-1, high=1))
        up = s.uniform(size=(m * r,), low=-1, high=1)
        kpff_forward(layer, inputs)
        dX = kpff_backward(layer, up)
        J_w, J_x = kpff_dense_jacobians(layer, inputs)
        assert J_w.shape == (m * r, n * m) and J_x.shape == (m * r, n * r)
        assert np.allclose(layer.grad_ws.ravel(), J_w.T @ up, rtol=1e-15, atol=1e-15)
        assert np.allclose(dX.ravel(), J_x.T @ up, rtol=1e-15, atol=1e-15)


def test_kpff_instance_checks_pass():
    reports = check_kpff_instance(3, 5, seed=17)
    assert all(r.passed for r in reports)


def test_adam_first_step_check():
    assert all(r.passed for r in check_adam_first_step())


def test_run_suite_passes():
    reports = run_suite(seed=1, sizes=((2, 3),), with_model=False)
    assert reports and all(r.passed for r in reports)

"""Independent derivative oracles: central finite differences and the
explicit dense Jacobians of the fusion layer.

These stay deliberately naive (entry-by-entry construction, no reuse of
the analytic code paths) so they can catch index bugs in the fast paths.
"""

from dataclasses import dataclass
import math

import numpy as np

from .fusion import FusionInputs, KpffLayer, fusion_inputs, kpff_forward, kpff_backward
from .rng import stream

REL_TOL = 1e-6  # fusion instances, entry by entry
MODEL_TOL = 1e-5  # model parameters, through the whole network's forward
JACOBIAN_TOL = 1e-15  # fusion backward against the dense Jacobians, relative to max(1, scale)
ADAM_TOL = 1e-9  # the first Adam step against its closed form
ABS_FLOOR = 1e-9
DENOM_FLOOR = 1e-12
FD_STEP = 1e-6  # central differences step at |theta_k| <= 1, relative above


@dataclass
class GradCheckReport:
    name: str
    analytic: float
    numeric: float
    rel_error: float
    passed: bool


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(DENOM_FLOOR, abs(a) + abs(n))


def check_value(name: str, analytic: float, numeric: float, tol: float = REL_TOL) -> GradCheckReport:
    rel = relative_error(analytic, numeric)
    # 0/0 guard: treat both-tiny as agreement
    passed = rel < tol or (abs(analytic) < ABS_FLOOR and abs(numeric) < ABS_FLOOR)
    return GradCheckReport(name, analytic, numeric, rel, passed)


def finite_diff_grad(f, theta: np.ndarray) -> np.ndarray:
    """Central differences of the scalar f at theta, at every flat
    coordinate, as a 1-D array in that order.

    theta is perturbed in place, one coordinate at a time by the step
    FD_STEP * max(1, |theta_k|), and f is called with theta itself; each
    value is restored exactly after its two calls.
    """
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        old = theta.flat[k]
        step = FD_STEP * max(1.0, abs(old))
        try:
            theta.flat[k] = old + step
            fp = f(theta)
            theta.flat[k] = old - step
            fm = f(theta)
        finally:
            theta.flat[k] = old
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError("loss returned non-finite value during finite differences")
        grad[k] = (fp - fm) / (2.0 * step)
    return grad


def kpff_dense_jacobians(layer: KpffLayer, inputs: FusionInputs):
    """Explicit dense Jacobians of y = sum_i w_i (x) x_i for an n x m layer.

    J_w: (m*r) x (n*m), column (i*m + b) is dy/dw_i[b].
    J_x: (m*r) x (n*r), column (j*r + c) is dy/dx_j[c].
    Built entry-by-entry from the two case formulas (0-based): row a sits
    in block b = a // r with offset c = a - b*r, and
      dy_a/dw_i[b'] = x_i[c] if b' == b else 0
      dy_a/dx_j[c'] = w_j[b] if c' == c else 0
    """
    n, m, r = inputs.n, layer.W.shape[1], inputs.r
    J_w = np.zeros((m * r, n * m))
    J_x = np.zeros((m * r, n * r))
    for a in range(m * r):
        b = a // r
        c = a - b * r
        for i in range(n):
            J_w[a, i * m + b] = inputs.xs[i][c]
        for j in range(n):
            J_x[a, j * r + c] = layer.W[j, b]
    return J_w, J_x


# ---------------------------------------------------------------------------
# runnable check suite (backs the `gradcheck` CLI subcommand)


def _quadratic_loss(coef_lin, coef_quad):
    def f(y):
        return float(coef_lin @ y + 0.5 * coef_quad @ (y * y))

    def grad(y):
        return coef_lin + coef_quad * y

    return f, grad


def check_kpff_instance(n, r, seed):
    """One random fusion instance: analytic backward vs finite differences
    and vs the dense-Jacobian oracle."""
    s = stream(seed, f"gradcheck/kpff/{n}x{r}")
    ws = [s.uniform(size=(n,), low=-1, high=1) for _ in range(n)]
    xs = [s.uniform(size=(r,), low=-1, high=1) for _ in range(n)]
    coef_lin = s.uniform(size=(n * r,), low=-1, high=1)
    coef_quad = s.uniform(size=(n * r,), low=-1, high=1)
    loss, loss_grad = _quadratic_loss(coef_lin, coef_quad)

    layer = KpffLayer(ws)
    inputs = fusion_inputs(xs)
    up = loss_grad(kpff_forward(layer, inputs))
    layer.zero_grads()
    dX = kpff_backward(layer, up)

    # finite differences on the scalar loss, parameter by parameter: each
    # w_i and x_j is perturbed in place inside ws and xs
    def f(_):
        return loss(kpff_forward(KpffLayer(ws), fusion_inputs(xs)))

    reports = []
    for i in range(n):
        num = finite_diff_grad(f, ws[i])
        for b in range(n):
            reports.append(
                check_value(f"kpff({n}x{r}).w{i}[{b}]", layer.grad_ws[i][b], num[b])
            )
    for j in range(n):
        num = finite_diff_grad(f, xs[j])
        for c in range(r):
            reports.append(
                check_value(f"kpff({n}x{r}).x{j}[{c}]", dX[j, c], num[c])
            )

    # dense-Jacobian oracle cross-check
    J_w, J_x = kpff_dense_jacobians(layer, inputs)
    for name, analytic, oracle in (
        ("Jw", layer.grad_ws.ravel(), J_w.T @ up),
        ("Jx", dX.ravel(), J_x.T @ up),
    ):
        err = np.max(np.abs(analytic - oracle))
        scale = np.max(np.abs(oracle))
        reports.append(GradCheckReport(
            f"kpff({n}x{r}).{name}-oracle", float(np.max(np.abs(analytic))), float(scale),
            float(err), bool(err <= JACOBIAN_TOL * max(1.0, scale)),
        ))
    return reports


def check_adam_first_step():
    """Closed form: bias correction makes the first Adam update lr * sign(g)."""
    from .net import OptimizerState

    opt = OptimizerState("adam", lr=0.01, weight_decay=0.0)
    theta = np.array([1.0, -2.0, 3.0])
    grad = np.array([0.5, -0.25, 4.0])
    expected = theta - 0.01 * np.sign(grad)
    opt.apply(theta, grad)
    err = float(np.max(np.abs(theta - expected)))
    return [GradCheckReport("adam.first-step", 0.0, err, err, err < ADAM_TOL)]


def check_model(model, x, labels):
    """Finite-difference check of every coordinate of every model parameter
    (dropout off)."""
    _, grads = model.forward_backward(x, labels, train=False)
    reports = []
    for name, arr in model.params().items():
        num = finite_diff_grad(lambda _: model.evaluate(x, labels)[0], arr)
        g = grads[name].ravel()
        reports.extend(check_value(f"{name}[{k}]", float(g[k]), float(d), MODEL_TOL)
                       for k, d in enumerate(num))
    return reports


def run_suite(seed=0, sizes=((1, 1), (2, 3), (3, 4), (4, 8)), with_model=True):
    """The default gradcheck run: fusion instances, Adam, and a toy model."""
    from .net import Model

    reports = []
    for n, r in sizes:
        reports.extend(check_kpff_instance(n, r, seed))
    reports.extend(check_adam_first_step())
    if with_model:
        model = Model(seed=seed, image_size=8, channels=(3, 4), activation="sigmoid",
                      fusion="kpff", num_classes=3, dropout_p=0.0)
        s = stream(seed, "gradcheck/model-data")
        x = s.uniform(size=(4, 1, 8, 8))
        labels = np.array([0, 1, 2, 0])
        reports.extend(check_model(model, x, labels))
    return reports


def format_report_table(reports, max_rows):
    lines = [f"{'check':<40} {'analytic':>14} {'numeric':>14} {'rel err':>10}  status"]
    for rep in reports[:max_rows]:
        lines.append(
            f"{rep.name:<40} {rep.analytic:>14.6g} {rep.numeric:>14.6g} "
            f"{rep.rel_error:>10.2e}  {'ok' if rep.passed else 'FAIL'}"
        )
    if len(reports) > max_rows:
        lines.append(f"... {len(reports) - max_rows} more rows")
    failures = [rep for rep in reports if not rep.passed]
    lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    return "\n".join(lines)

import warnings

import numpy as np
import pytest

from hencler import gradients as ad


def make_params(**arrays):
    ps = ad.ParamSet()
    for name, value in arrays.items():
        ps.add(name, value)
    return ps


def dense_grad_check(builder, ps, step=1e-6):
    """All-coordinate central-difference comparison (absolute + relative)."""
    loss = builder(ps)
    grads = ad.backward(loss, wrt=ps.trainable().values())
    worst = 0.0
    for name, var in ps.trainable().items():
        flat = var.value.reshape(-1)
        analytic = grads.get(id(var))
        analytic = (np.zeros(flat.size) if analytic is None
                    else analytic.reshape(-1))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = float(builder(ps).value)
            flat[i] = orig - step
            lm = float(builder(ps).value)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * step)
            worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1.0))
    return worst


def grad(loss, var):
    return ad.backward(loss, wrt=[var])[id(var)]


def test_square_scalar():
    ps = make_params(x=np.array(3.0))
    loss = ad.square(ps["x"])
    assert float(loss.value) == 9.0
    assert grad(loss, ps["x"]) == pytest.approx(6.0)


def test_trace_bilinear_identity():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    ps = make_params(u=u, v=v)

    def builder(p):
        return ad.trace(ad.matmul(ad.transpose(p["u"]), p["v"]))

    loss = builder(ps)
    assert float(loss.value) == pytest.approx(np.trace(u.T @ v))
    np.testing.assert_allclose(grad(loss, ps["u"]), v, atol=1e-12)
    np.testing.assert_allclose(grad(loss, ps["v"]), u, atol=1e-12)

def test_matmul_add_mul_chain_fd():
    rng = np.random.default_rng(2)
    ps = make_params(a=rng.normal(size=(4, 3)), b=rng.normal(size=(3, 2)),
                     c=rng.normal(size=2))

    def builder(p):
        return ad.reduce_sum(ad.square(ad.matmul(p["a"], p["b"]) + p["c"]))

    assert dense_grad_check(builder, ps) < 1e-8


def test_batchnorm_fd():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(7, 4))  # fixed mixing so the loss depends on x
    ps = make_params(x=rng.normal(size=(7, 4)),
                     gamma=rng.uniform(0.5, 1.5, 4), beta=rng.normal(size=4))

    def builder(p):
        normed = ad.batchnorm(p["x"], p["gamma"], p["beta"])
        return ad.reduce_sum(ad.mul(ad.square(normed), ad.constant(w)))

    assert dense_grad_check(builder, ps) < 1e-7


def test_batchnorm_stats_are_functions_of_input():
    # A constant column shift must not change the output (mean is recomputed).
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    gamma, beta = np.ones(3), np.zeros(3)
    a = ad.batchnorm(ad.constant(x), ad.constant(gamma), ad.constant(beta))
    b = ad.batchnorm(ad.constant(x + 5.0), ad.constant(gamma),
                     ad.constant(beta))
    np.testing.assert_allclose(a.value, b.value, atol=1e-10)


def test_softmax_softplus_sigmoid_chain_fd():
    rng = np.random.default_rng(5)
    w = rng.normal(size=6)
    ps = make_params(x=rng.normal(size=6))

    def builder(p):
        mix = ad.mul(ad.softmax(p["x"]), ad.constant(w))
        return ad.reduce_sum(ad.softplus(ad.sigmoid(mix)))

    assert dense_grad_check(builder, ps) < 1e-8


def test_log_sigmoid_matches_log_of_sigmoid():
    x = np.linspace(-30, 30, 101)
    got = ad.log_sigmoid(ad.constant(x)).value
    want = np.log(1.0 / (1.0 + np.exp(-x)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_sigmoid_family_exact_tails_without_warnings():
    # exp(-800) underflows to 0, so the tails are exact; a variant that
    # evaluates exp(-x) would overflow (a RuntimeWarning) yet stay finite
    ps = make_params(x=np.array([-800.0, -745.0, 745.0, 800.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = {op.__name__: op(ps["x"])
                for op in (ad.sigmoid, ad.softplus, ad.log_sigmoid)}
        for out in outs.values():
            assert np.all(np.isfinite(out.value))
            assert np.all(np.isfinite(grad(ad.reduce_sum(out), ps["x"])))
    sig, soft, logsig = (outs[k].value
                         for k in ("sigmoid", "softplus", "log_sigmoid"))
    assert sig[0] == 0.0 and sig[3] == 1.0
    assert soft[0] == 0.0 and soft[3] == 800.0
    assert logsig[3] == 0.0 and logsig[0] == -800.0


def test_gather_rows_accumulates_duplicates():
    ps = make_params(x=np.arange(6.0).reshape(3, 2))
    idx = np.array([1, 1, 0])

    def builder(p):
        return ad.reduce_sum(ad.gather_rows(p["x"], idx))

    np.testing.assert_allclose(grad(builder(ps), ps["x"]),
                               [[1, 1], [2, 2], [0, 0]])


def test_clamp_min_passes_gradient_only_above_floor():
    ps = make_params(x=np.array([0.5, 2.0]))
    loss = ad.reduce_sum(ad.clamp_min(ps["x"], 1.0))
    np.testing.assert_allclose(grad(loss, ps["x"]), [0.0, 1.0])


def test_reduce_sum_axes_and_reshape_fd():
    rng = np.random.default_rng(6)
    ps = make_params(x=np.abs(rng.normal(size=(5, 3))) + 0.5)

    def builder(p):
        rows = ad.reduce_sum(p["x"], axis=1)
        cols = ad.reduce_sum(p["x"], axis=0)
        colsum = ad.reshape(cols, (3, 1))
        return ad.reduce_sum(ad.sqrt(rows)) \
            + ad.reduce_sum(ad.reciprocal(ad.matmul(p["x"], colsum)))

    assert dense_grad_check(builder, ps) < 1e-7


def test_linear_map_grad_error_tiny():
    # dyadic weights and a power-of-two step keep the finite differences
    # exact, so the check measures only the analytic gradient
    rng = np.random.default_rng(7)
    w = rng.integers(32, 128, size=(4, 3)) / 64.0
    ps = make_params(a=rng.integers(-64, 64, size=(4, 3)) / 64.0)

    def builder(p):
        return ad.reduce_sum(ad.mul(p["a"], ad.constant(w)))

    assert ad.grad_check(builder, ps, step=2.0 ** -17, seed=0) < 1e-10


def test_leaky_relu_network_away_from_kinks():
    rng = np.random.default_rng(8)
    # keep every pre-activation at least 1e-3 from zero
    x = rng.normal(size=(6, 4))
    x += np.where(x >= 0, 1e-2, -1e-2)
    w = rng.normal(size=(4, 3))
    ps = make_params(w=w)

    def builder(p):
        hidden = ad.leaky_relu(ad.matmul(ad.constant(x), p["w"]))
        return ad.reduce_sum(ad.square(hidden))

    assert ad.grad_check(builder, ps, step=1e-5, seed=0) < 1e-6


def test_grad_of_sum_is_sum_of_grads():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 3))
    w1 = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(3, 3))
    ps = make_params(x=x)

    def part(p, w):
        return ad.reduce_sum(ad.square(ad.matmul(p["x"], ad.constant(w))))

    g1 = grad(part(ps, w1), ps["x"])
    g2 = grad(part(ps, w2), ps["x"])
    g12 = grad(part(ps, w1) + part(ps, w2), ps["x"])
    np.testing.assert_allclose(g12, g1 + g2, rtol=1e-12)


def test_backward_is_pure():
    rng = np.random.default_rng(10)
    ps = make_params(x=rng.normal(size=(4, 2)))
    loss = ad.reduce_sum(ad.square(ad.softplus(ps["x"])))
    first = ad.backward(loss, wrt=[ps["x"]])[id(ps["x"])]
    second = ad.backward(loss, wrt=[ps["x"]])[id(ps["x"])]
    np.testing.assert_array_equal(first, second)


def test_nonfinite_reports_primitive():
    ps = make_params(x=np.array([1.0, 0.0]))
    with pytest.raises(ad.NonFiniteError) as err:
        ad.reciprocal(ps["x"])
    assert err.value.primitive == "reciprocal"


def test_matmul_rejects_non_2d():
    ps = make_params(x=np.ones(3))
    with pytest.raises(ValueError):
        ad.matmul(ps["x"], ps["x"])


def test_duplicate_param_name_rejected():
    ps = ad.ParamSet()
    ps.add("w", np.ones(2))
    with pytest.raises(ValueError):
        ps.add("w", np.ones(2))


def test_unused_parameter_gets_zero_gradient():
    # backward leaves unreached parameters out of its result; the trainer
    # then skips them, which is the zero gradient
    ps = make_params(used=np.ones(2), unused=np.ones(3))
    loss = ad.reduce_sum(ad.square(ps["used"]))
    grads = ad.backward(loss, wrt=ps.trainable().values())
    assert id(ps["unused"]) not in grads
    np.testing.assert_array_equal(grads[id(ps["used"])], [2.0, 2.0])


def test_grad_check_skips_kink_crossings():
    # A pre-activation exactly at the step size would flip sign under
    # perturbation; grad_check must not report a spurious mismatch.
    ps = make_params(x=np.array([5e-6, 1.0]))

    def builder(p):
        return ad.reduce_sum(ad.leaky_relu(p["x"]))

    assert ad.grad_check(builder, ps, step=1e-5, seed=0) < 1e-8

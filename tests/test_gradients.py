import gc
import warnings
import weakref

import mpmath
import numpy as np
import pytest

from hencler import gradients as ad
from reference import grad_check


def make_params(**arrays):
    return {name: ad.Var(np.array(value, dtype=np.float64), op="param")
            for name, value in arrays.items()}


def dense_grad_check(builder, ps, step=1e-6):
    """All-coordinate central-difference comparison (absolute + relative)."""
    loss = builder(ps)
    grads = ad.backward(loss, wrt=ps)
    worst = 0.0
    for name, var in ps.items():
        flat = var.value.reshape(-1)
        analytic = grads.get(name)
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
    return ad.backward(loss, wrt={"var": var})["var"]


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
        return ad.reduce_sum(ad.mul(ad.square(normed), w))

    assert dense_grad_check(builder, ps) < 1e-7


def test_batchnorm_stats_are_functions_of_input():
    # A per-column shift b of the input changes neither the output (the mean
    # is recomputed) nor any loss of it, so b's gradient is zero to rounding:
    # a bias before batchnorm is a dead parameter.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    ps = make_params(b=5.0 * rng.normal(size=3), gamma=np.ones(3),
                     beta=np.zeros(3))
    plain = ad.batchnorm(x, ps["gamma"], ps["beta"])
    shifted = ad.batchnorm(ad.add(x, ps["b"]), ps["gamma"], ps["beta"])
    np.testing.assert_allclose(plain.value, shifted.value, atol=1e-10)
    loss = ad.reduce_sum(ad.mul(shifted, rng.normal(size=(6, 3))))
    grads = ad.backward(loss, wrt=ps)
    scale = np.max(np.abs(grads["gamma"]))
    assert scale > 0.1
    assert np.max(np.abs(grads["b"])) < 1e-12 * scale


def test_softplus_sigmoid_chain_fd():
    rng = np.random.default_rng(5)
    w = rng.normal(size=6)
    ps = make_params(x=rng.normal(size=6))

    def builder(p):
        mix = ad.mul(p["x"], w)
        return ad.reduce_sum(ad.softplus(ad.log_sigmoid(mix)))

    assert dense_grad_check(builder, ps) < 1e-8


def test_log_sigmoid_matches_log_of_sigmoid():
    x = np.linspace(-30, 30, 101)
    got = ad.log_sigmoid(x).value
    want = np.log(1.0 / (1.0 + np.exp(-x)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_sigmoid_family_exact_tails_without_warnings():
    # exp(-800) underflows to 0, so the tails are exact; a variant that
    # evaluates exp(-x) would overflow (a RuntimeWarning) yet stay finite
    ps = make_params(x=np.array([-800.0, -745.0, 745.0, 800.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = {op.__name__: op(ps["x"])
                for op in (ad.softplus, ad.log_sigmoid)}
        for out in outs.values():
            assert np.all(np.isfinite(out.value))
            assert np.all(np.isfinite(grad(ad.reduce_sum(out), ps["x"])))
    soft, logsig = outs["softplus"].value, outs["log_sigmoid"].value
    assert soft[0] == 0.0 and soft[3] == 800.0
    assert logsig[3] == 0.0 and logsig[0] == -800.0


def test_gather_rows_accumulates_duplicates():
    ps = make_params(x=np.arange(6.0).reshape(3, 2))
    idx = np.array([1, 1, 0])

    def builder(p):
        return ad.reduce_sum(ad.gather_rows(p["x"], idx))

    np.testing.assert_allclose(grad(builder(ps), ps["x"]),
                               [[1, 1], [2, 2], [0, 0]])


@pytest.mark.parametrize("idx", [[3, 1, 3, 3, 0, 1], [-1, 4, -5, 0, -1],
                                 [1, 2, 3], list(range(6)), [2], []],
                         ids=["repeated", "negative", "contiguous", "all",
                              "single", "empty"])
@pytest.mark.parametrize("shape", [(6, 3), (6,)], ids=["rows", "vector"])
def test_gather_rows_backward_has_the_bits_of_add_at(idx, shape):
    """The backward's scatter equals `np.add.at` into zeros bit for bit,
    signed zeros included, on every index pattern the fast paths split."""
    rng = np.random.default_rng(len(idx))
    out = ad.gather_rows(ad.Var(rng.normal(size=shape)), idx)
    g = rng.normal(size=out.value.shape) * 1e3
    g.reshape(-1)[::3] = -0.0
    ((_, back),) = out.parents
    expected = np.zeros(shape)
    np.add.at(expected, np.asarray(idx, dtype=np.intp), g)
    assert np.array_equal(back(g).view(np.int64), expected.view(np.int64))


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
        return ad.reduce_sum(ad.mul(p["a"], w))

    assert grad_check(builder, ps, step=2.0 ** -17, seed=0) < 1e-10


def test_leaky_relu_network_away_from_kinks():
    rng = np.random.default_rng(8)
    # keep every pre-activation at least 1e-3 from zero
    x = rng.normal(size=(6, 4))
    x += np.where(x >= 0, 1e-2, -1e-2)
    w = rng.normal(size=(4, 3))
    ps = make_params(w=w)

    def builder(p):
        hidden = ad.leaky_relu(ad.matmul(x, p["w"]))
        return ad.reduce_sum(ad.square(hidden))

    assert grad_check(builder, ps, step=1e-5, seed=0) < 1e-6


def test_grad_of_sum_is_sum_of_grads():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 3))
    w1 = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(3, 3))
    ps = make_params(x=x)

    def part(p, w):
        return ad.reduce_sum(ad.square(ad.matmul(p["x"], w)))

    g1 = grad(part(ps, w1), ps["x"])
    g2 = grad(part(ps, w2), ps["x"])
    g12 = grad(part(ps, w1) + part(ps, w2), ps["x"])
    np.testing.assert_allclose(g12, g1 + g2, rtol=1e-12)


def test_array_operands_are_not_parents():
    # an array operand is read by the op's closures only, so backward never
    # computes a gradient for it
    ps = make_params(w=np.ones((3, 2)))
    out = ad.matmul(np.ones((4, 3)), ps["w"])
    assert len(out.parents) == 1 and out.parents[0][0] is ps["w"].node
    np.testing.assert_array_equal(out.value, np.full((4, 2), 3.0))


def test_array_only_subexpressions_are_dropped_with_their_captures():
    # no gradient reaches a leaf through an op on plain arrays, nor through
    # one on Vars built from plain arrays alone, so neither is kept as a
    # parent, and the arrays their rules captured are freed with them
    rng = np.random.default_rng(16)
    ps = make_params(w=rng.normal(size=(4, 3)))
    a, b, c = (rng.normal(size=(4, 5)), rng.normal(size=(5, 3)),
               rng.normal(size=(4, 3)))
    product = ad.matmul(a, b)
    branch = ad.mul(product, c)
    assert product.parents == () and branch.parents == ()
    refs = [weakref.ref(x) for x in (a, b, c, product.value)]
    square = ad.square(ps["w"])
    out = ad.mul(square, branch)
    assert [node for node, _ in out.parents] == [square.node]
    plain = branch.value.copy()
    del a, b, c, product, branch
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
    # a Var without parents is kept only as a leaf
    assert [node for node, _ in ad.add(ps["w"], plain).parents] \
        == [ps["w"].node]
    got = ad.backward(ad.reduce_sum(out), wrt=ps)["w"]
    want = ad.backward(ad.reduce_sum(ad.mul(ad.square(ps["w"]), plain)),
                       wrt=ps)["w"]
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_backward_is_pure():
    rng = np.random.default_rng(10)
    ps = make_params(x=rng.normal(size=(4, 2)))
    loss = ad.reduce_sum(ad.square(ad.softplus(ps["x"])))
    first = ad.backward(loss, wrt=ps)["x"]
    second = ad.backward(loss, wrt=ps)["x"]
    np.testing.assert_array_equal(first, second)


# Each op applied to an intermediate operand `mid`, with the leaves `ps`
# for its other arguments. reshape and transpose are in neither table: their
# value is a view whose base is the operand, so the operand legitimately
# lives as long as the view.
READS_NO_OPERAND = {
    "add": lambda mid, ps: ad.add(mid, ps["p"]),
    "sub": lambda mid, ps: ad.sub(mid, ps["p"]),
    "scale": lambda mid, ps: ad.scale(mid, 3.0),
    "reduce_sum": lambda mid, ps: ad.reduce_sum(mid, axis=0),
    "concat": lambda mid, ps: ad.concat(mid, ps["p"], axis=1),
    "gather_rows": lambda mid, ps: ad.gather_rows(mid, [0, 2, 2]),
    "leaky_relu": lambda mid, ps: ad.leaky_relu(mid),
    "softplus": lambda mid, ps: ad.softplus(mid),
    "log_sigmoid": lambda mid, ps: ad.log_sigmoid(mid),
    "clamp_min": lambda mid, ps: ad.clamp_min(mid, 1.0),
    "batchnorm": lambda mid, ps: ad.batchnorm(mid, ps["gamma"], ps["beta"]),
    "trace": lambda mid, ps: ad.trace(mid),
    "reciprocal": lambda mid, ps: ad.reciprocal(mid),
    "sqrt": lambda mid, ps: ad.sqrt(mid),
}

READS_OPERAND = {
    "matmul": lambda mid, ps: ad.matmul(mid, ps["p"]),
    "mul": lambda mid, ps: ad.mul(mid, ps["p"]),
    "square": lambda mid, ps: ad.square(mid),
}


def _operand_after_op(build):
    """Apply `build` to an intermediate, drop the intermediate's Var, and
    return a weak reference to its value, the op's output (whose node keeps
    the tape alive) and the leaves' gradients through that output."""
    rng = np.random.default_rng(12)
    ps = make_params(x=rng.uniform(0.5, 1.5, size=(3, 3)),
                     p=rng.uniform(0.5, 1.5, size=(3, 3)),
                     gamma=rng.uniform(0.5, 1.5, 3), beta=rng.normal(size=3))
    mid = ad.scale(ps["x"], 2.0)
    ref = weakref.ref(mid.value)
    out = build(mid, ps)
    del mid
    gc.collect()
    return ref, out, ad.backward(ad.reduce_sum(out), wrt=ps)


@pytest.mark.parametrize("op", sorted(READS_NO_OPERAND))
def test_operand_no_backward_rule_reads_is_freed(op):
    ref, out, grads = _operand_after_op(READS_NO_OPERAND[op])
    assert ref() is None
    assert "x" in grads  # the tape still reaches the leaf


@pytest.mark.parametrize("op", sorted(READS_OPERAND))
def test_operand_a_backward_rule_reads_stays(op):
    ref, out, grads = _operand_after_op(READS_OPERAND[op])
    assert ref() is not None
    assert "x" in grads


def test_nonfinite_reports_primitive():
    ps = make_params(x=np.array([1.0, 0.0]))
    with pytest.raises(ad.NonFiniteError) as err:
        ad.reciprocal(ps["x"])
    assert err.value.primitive == "reciprocal"


def test_matmul_rejects_non_2d():
    ps = make_params(x=np.ones(3))
    with pytest.raises(ValueError):
        ad.matmul(ps["x"], ps["x"])


def test_unused_parameter_gets_zero_gradient():
    # backward leaves unreached parameters out of its result; the trainer
    # then skips them, which is the zero gradient
    ps = make_params(used=np.ones(2), unused=np.ones(3))
    loss = ad.reduce_sum(ad.square(ps["used"]))
    grads = ad.backward(loss, wrt=ps)
    assert list(grads) == ["used"]
    np.testing.assert_array_equal(grads["used"], [2.0, 2.0])


def test_grad_check_skips_kink_crossings():
    # A pre-activation exactly at the step size would flip sign under
    # perturbation; grad_check must not report a spurious mismatch.
    ps = make_params(x=np.array([5e-6, 1.0]))

    def builder(p):
        return ad.reduce_sum(ad.leaky_relu(p["x"]))

    assert grad_check(builder, ps, step=1e-5, seed=0) < 1e-8


# The np.where formulas the element-wise ops used before their branch-free
# forms; each returns (value, gradient for the incoming gradient g).
def _where_sigmoid(x):
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return e, np.where(x >= 0, 1.0 / denom, e / denom)


def _where_leaky_relu(x, g):
    pos = x >= 0
    return np.where(pos, x, 0.01 * x), np.where(pos, g, 0.01 * g)


def _where_softplus(x, g):
    e, sig = _where_sigmoid(x)
    return np.maximum(x, 0.0) + np.log1p(e), g * sig


def _where_log_sigmoid(x, g):
    e, sig_neg = _where_sigmoid(-x)
    tail = np.log1p(e)
    return np.where(x >= 0, -tail, x - tail), g * sig_neg


WHERE_FORMS = {
    "leaky_relu": (ad.leaky_relu, _where_leaky_relu),
    "softplus": (ad.softplus, _where_softplus),
    "log_sigmoid": (ad.log_sigmoid, _where_log_sigmoid),
}

EDGE_VALUES = [0.0, 5e-324, 1e-300, 1.0, 36.0, 709.0, 745.0, 800.0, 1e300]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("op", sorted(WHERE_FORMS))
def test_branch_free_ops_match_where_forms_bitwise(op, sign):
    rng = np.random.default_rng(13)
    edges = np.array(EDGE_VALUES)
    x = np.concatenate([edges, -edges, rng.normal(size=200),
                        10.0 * rng.normal(size=200)])
    g = sign * rng.uniform(0.1, 3.0, size=x.size)
    fn, where_form = WHERE_FORMS[op]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want_value, want_grad = where_form(x, g)
        out = fn(ad.Var(x.copy(), op="param"))
        (_, back), = out.parents
        got_grad = back(g)
    np.testing.assert_array_equal(out.value.view(np.int64),
                                  want_value.view(np.int64))
    if op == "softplus":
        return  # its backward reads its output instead: see the next test
    np.testing.assert_array_equal(got_grad.view(np.int64),
                                  want_grad.view(np.int64))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_softplus_backward_is_sigmoid_from_its_output(sign):
    # sigmoid(x) = -expm1(-softplus(x)), read from the output the tape keeps;
    # it differs from the stable-sigmoid form by up to 2 ulp
    rng = np.random.default_rng(13)
    edges = np.array(EDGE_VALUES)
    x = np.concatenate([edges, -edges, rng.normal(size=200),
                        10.0 * rng.normal(size=200),
                        rng.uniform(-745.0, 40.0, size=200)])
    g = sign * rng.uniform(0.1, 3.0, size=x.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.softplus(ad.Var(x.copy(), op="param"))
        (_, back), = out.parents
        got = back(g)
        sig = back(np.ones_like(x))
        want = g * -np.expm1(-out.value)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    with mpmath.workdps(60):
        exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v)))))
                          for v in x])
    # relative error, with an absolute floor in the subnormal range; at most
    # 1.0 eps measured over these inputs, 1.06 eps for the stable sigmoid
    tiny = np.finfo(np.float64).tiny
    err = np.abs(sig - exact) / np.maximum(np.abs(exact), tiny)
    assert err.max() <= 2 * np.finfo(np.float64).eps


def test_batchnorm_in_place_matches_expression_form_bitwise():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(50, 6)) * rng.uniform(0.1, 10.0, size=6)
    gamma, beta = rng.uniform(0.5, 1.5, 6), rng.normal(size=6)
    g = rng.normal(size=(50, 6))
    n, eps = x.shape[0], 1e-5
    centered = x - x.mean(axis=0)
    inv = 1.0 / np.sqrt(np.mean(centered * centered, axis=0) + eps)
    gxhat = g * gamma
    gvar = np.sum(gxhat * centered, axis=0) * (-0.5) * inv ** 3
    gmean = -inv * np.sum(gxhat, axis=0)
    want = {"value": gamma * (centered * inv) + beta,
            "x": gxhat * inv + gvar * (2.0 / n) * centered + gmean / n,
            "gamma": np.sum(g * (centered * inv), axis=0),
            "beta": np.sum(g, axis=0)}
    ps = make_params(x=x, gamma=gamma, beta=beta)
    out = ad.batchnorm(ps["x"], ps["gamma"], ps["beta"])
    got = {"value": out.value}
    for name, (_, back) in zip(("x", "gamma", "beta"), out.parents):
        got[name] = back(g)
    for name in want:
        np.testing.assert_array_equal(got[name].view(np.int64),
                                      want[name].view(np.int64))


# reshape and transpose return views of their operand, and their rules
# views of g; neither may be written to by the op's consumers.
VIEW_OPS = {
    "reshape": lambda mid, ps: ad.reshape(mid, (9,)),
    "transpose": lambda mid, ps: ad.transpose(mid),
}
ALL_OPS = {**READS_NO_OPERAND, **READS_OPERAND, **VIEW_OPS}


@pytest.mark.parametrize("operand", ["var", "array"])
@pytest.mark.parametrize("op", sorted(ALL_OPS))
def test_ops_write_only_into_arrays_they_allocate(op, operand):
    # operands may be parameters or model inputs, and add, sub, reshape,
    # transpose and concat hand g (or views of it) on to other rules, so
    # neither a forward nor a backward rule may write into them
    rng = np.random.default_rng(15)
    ps = make_params(p=rng.uniform(0.5, 1.5, size=(3, 3)),
                     gamma=rng.uniform(0.5, 1.5, 3), beta=rng.normal(size=3))
    # mixed signs, so a piecewise op that wrote into its operand would show
    value = rng.uniform(0.5, 1.5, size=(3, 3)) * rng.choice([-1.0, 1.0], (3, 3))
    if op == "sqrt":
        value = np.abs(value)
    mid = ad.Var(value, op="param") if operand == "var" else value
    before = {name: var.value.copy() for name, var in ps.items()}
    value_before = value.copy()
    out = ALL_OPS[op](mid, ps)
    np.testing.assert_array_equal(value, value_before)
    for name, var in ps.items():
        np.testing.assert_array_equal(var.value, before[name])
    assert out.parents or operand == "array"
    for _, back in out.parents:
        g = rng.normal(size=out.value.shape)
        g_before = g.copy()
        back(g)
        np.testing.assert_array_equal(g, g_before)

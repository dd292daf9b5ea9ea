"""Minimal reverse-mode differentiation over the primitives the model needs.

The tape is a DAG of `Var` nodes built implicitly by calling the op
functions below. Leaves live in a `ParamSet`; `backward` is pure (it never
mutates node state, so re-running it yields identical gradients), and
`grad_check` validates any loss builder against central finite differences
with per-coordinate kink rejection.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Var",
    "ParamSet",
    "NonFiniteError",
    "constant",
    "add",
    "sub",
    "scale",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "leaky_relu",
    "sigmoid",
    "softplus",
    "log_sigmoid",
    "softmax",
    "batchnorm",
    "reduce_sum",
    "trace",
    "square",
    "reciprocal",
    "sqrt",
    "clamp_min",
    "backward",
    "grad_check",
]


class NonFiniteError(ArithmeticError):
    """A forward primitive produced a NaN or infinity."""

    def __init__(self, primitive: str):
        super().__init__(f"non-finite value produced by primitive '{primitive}'")
        self.primitive = primitive


class Var:
    """One node of the tape: a value plus backward rules to its parents."""

    __slots__ = ("value", "parents", "op", "trainable", "name", "kink_mask")

    def __init__(self, value, parents=(), op="leaf", trainable=False, name=None,
                 kink_mask=None):
        self.value = value
        self.parents = parents  # tuple of (Var, fn: out_grad -> parent_grad)
        self.op = op
        self.trainable = trainable
        self.name = name
        # Boolean branch pattern for piecewise-linear ops; used by grad_check
        # to reject finite-difference coordinates that cross a kink.
        self.kink_mask = kink_mask

    @property
    def shape(self):
        return self.value.shape

    @property
    def T(self):
        return transpose(self)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.value.shape})"


class ParamSet:
    """Named trainable leaves. Names are unique; shapes are fixed at creation."""

    def __init__(self):
        self._vars: dict[str, Var] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> Var:
        if name in self._vars:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(value, copy=True)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self._vars[name] = Var(arr, op="param", trainable=trainable, name=name)
        return self._vars[name]

    def __getitem__(self, name: str) -> Var:
        return self._vars[name]

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def names(self) -> list[str]:
        return list(self._vars)

    def trainable(self) -> dict[str, Var]:
        return {k: v for k, v in self._vars.items() if v.trainable}

    def value(self, name: str) -> np.ndarray:
        return self._vars[name].value


def _as_float(x) -> np.ndarray:
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def constant(x) -> Var:
    """Wrap an array as a non-trainable leaf; floating dtypes are kept."""
    return Var(_as_float(x), op="const")


def _lift(x) -> Var:
    if isinstance(x, Var):
        return x
    return Var(_as_float(x), op="const")


def _check(out: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(op)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing the broadcast axes."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    out = _check(a.value + b.value, "add")
    return Var(out, ((a, lambda g: _unbroadcast(g, a.value.shape)),
                     (b, lambda g: _unbroadcast(g, b.value.shape))), op="add")


def sub(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    out = _check(a.value - b.value, "sub")
    return Var(out, ((a, lambda g: _unbroadcast(g, a.value.shape)),
                     (b, lambda g: _unbroadcast(-g, b.value.shape))), op="sub")


def scale(a, c: float) -> Var:
    a = _lift(a)
    c = float(c)
    out = _check(a.value * c, "scale")
    return Var(out, ((a, lambda g: g * c),), op="scale")


def mul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    out = _check(a.value * b.value, "mul")
    return Var(out, ((a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
                     (b, lambda g: _unbroadcast(g * a.value, b.value.shape))), op="mul")


def matmul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D operands "
                         f"(got {a.value.shape} @ {b.value.shape})")
    out = _check(a.value @ b.value, "matmul")
    return Var(out, ((a, lambda g: g @ b.value.T),
                     (b, lambda g: a.value.T @ g)), op="matmul")


def transpose(a) -> Var:
    a = _lift(a)
    return Var(a.value.T, ((a, lambda g: g.T),), op="transpose")


def reshape(a, shape) -> Var:
    a = _lift(a)
    out = a.value.reshape(shape)
    return Var(out, ((a, lambda g: g.reshape(a.value.shape)),), op="reshape")


def concat(a, b, axis: int = 1) -> Var:
    a, b = _lift(a), _lift(b)
    out = np.concatenate([a.value, b.value], axis=axis)
    na = a.value.shape[axis]

    def back_a(g):
        return np.take(g, range(na), axis=axis)

    def back_b(g):
        return np.take(g, range(na, g.shape[axis]), axis=axis)

    return Var(out, ((a, back_a), (b, back_b)), op="concat")


def gather_rows(a, idx) -> Var:
    """Select rows a[idx]; backward scatter-adds (duplicate indices accumulate)."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.value[idx]

    def back(g):
        acc = np.zeros_like(a.value)
        np.add.at(acc, idx, g)
        return acc

    return Var(out, ((a, back),), op="gather_rows")


def leaky_relu(a, slope: float = 0.01) -> Var:
    a = _lift(a)
    pos = a.value >= 0
    out = np.where(pos, a.value, slope * a.value)
    return Var(out, ((a, lambda g: np.where(pos, g, slope * g)),),
               op="leaky_relu", kink_mask=pos)


def _stable_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-|x|), sigmoid(x)) from one exp; neither overflows for any x."""
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return e, np.where(x >= 0, 1.0 / denom, e / denom)


def sigmoid(a) -> Var:
    a = _lift(a)
    out = _check(_stable_sigmoid(a.value)[1], "sigmoid")
    return Var(out, ((a, lambda g: g * out * (1.0 - out)),), op="sigmoid")


def softplus(a) -> Var:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)); smooth and stable."""
    a = _lift(a)
    e, sig = _stable_sigmoid(a.value)
    out = _check(np.maximum(a.value, 0.0) + np.log1p(e), "softplus")
    return Var(out, ((a, lambda g: g * sig),), op="softplus")


def log_sigmoid(a) -> Var:
    """log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), with derivative
    sigmoid(-x); avoids the 1-p cancellation in BCE tails."""
    a = _lift(a)
    x = a.value
    e, sig_neg = _stable_sigmoid(-x)
    tail = np.log1p(e)
    out = _check(np.where(x >= 0, -tail, x - tail), "log_sigmoid")
    return Var(out, ((a, lambda g: g * sig_neg),), op="log_sigmoid")


def softmax(a) -> Var:
    """Softmax over the last axis."""
    a = _lift(a)
    shifted = a.value - np.max(a.value, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)
    out = _check(out, "softmax")

    def back(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return out * (g - dot)

    return Var(out, ((a, back),), op="softmax")


def batchnorm(x, gamma, beta, eps: float = 1e-5) -> Var:
    """Training-mode batch normalization over axis 0 with learnable affine."""
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    xv = x.value
    n = xv.shape[0]
    mean = xv.mean(axis=0)
    centered = xv - mean
    var = np.mean(centered * centered, axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = _check(gamma.value * xhat + beta.value, "batchnorm")

    def back_x(g):
        gxhat = g * gamma.value
        gvar = np.sum(gxhat * centered, axis=0) * (-0.5) * inv ** 3
        gmean = -inv * np.sum(gxhat, axis=0)
        return gxhat * inv + gvar * (2.0 / n) * centered + gmean / n

    def back_gamma(g):
        return np.sum(g * xhat, axis=0)

    def back_beta(g):
        return np.sum(g, axis=0)

    return Var(out, ((x, back_x), (gamma, back_gamma), (beta, back_beta)),
               op="batchnorm")


def reduce_sum(a, axis: int | None = None) -> Var:
    a = _lift(a)
    out = np.asarray(a.value.sum(axis=axis))

    def back(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy()

    return Var(out, ((a, back),), op="sum")


def trace(a) -> Var:
    a = _lift(a)
    if a.value.ndim != 2 or a.value.shape[0] != a.value.shape[1]:
        raise ValueError(f"trace expects a square matrix, got {a.value.shape}")
    out = np.asarray(np.trace(a.value))
    eye = np.eye(a.value.shape[0], dtype=a.value.dtype)
    return Var(out, ((a, lambda g: g * eye),), op="trace")


def square(a) -> Var:
    a = _lift(a)
    out = a.value * a.value
    return Var(out, ((a, lambda g: 2.0 * a.value * g),), op="square")


def reciprocal(a) -> Var:
    a = _lift(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _check(1.0 / a.value, "reciprocal")
    return Var(out, ((a, lambda g: -g * out * out),), op="reciprocal")


def sqrt(a) -> Var:
    a = _lift(a)
    with np.errstate(invalid="ignore"):
        out = _check(np.sqrt(a.value), "sqrt")
    return Var(out, ((a, lambda g: 0.5 * g / out),), op="sqrt")


def clamp_min(a, floor: float) -> Var:
    """max(a, floor); gradient flows only through the unclamped branch."""
    a = _lift(a)
    keep = a.value >= floor
    out = np.where(keep, a.value, floor)
    return Var(out, ((a, lambda g: np.where(keep, g, 0.0)),),
               op="clamp_min", kink_mask=keep)


def _topo_order(root: Var) -> list[Var]:
    """Iterative DFS topological order (parents before children)."""
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def kink_signature(root: Var) -> list[np.ndarray]:
    """Branch patterns of all piecewise ops reachable from `root`, in topo order."""
    return [node.kink_mask for node in _topo_order(root)
            if node.kink_mask is not None]


def backward(loss: Var, wrt: Iterable[Var] | None = None) -> dict[int, np.ndarray]:
    """Accumulate gradients of a scalar loss; returns {id(var): grad}.

    Pure: node state is never mutated, so calling this twice on the same
    tape gives bit-identical results.
    """
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    want = None if wrt is None else {id(v) for v in wrt}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, back_fn in node.parents:
            contrib = back_fn(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
        if node.parents and (want is None or id(node) not in want):
            del grads[id(node)]  # free intermediates early
    return grads


def _signatures_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(loss_builder: Callable[[ParamSet], Var], params: ParamSet,
               step: float = 1e-5, coords_per_param: int = 20,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples at least `coords_per_param` coordinates per trainable parameter.
    A coordinate is skipped when either perturbed evaluation lands on a
    different branch of a piecewise primitive (leaky-ReLU / clamp kink
    crossing), where finite differences are meaningless. When the two
    perturbed losses agree to within floating-point resolution the central
    difference is numerically zero and is reported as such (measuring
    sub-ulp differences would only amplify rounding noise).
    """
    for name, var in params.trainable().items():
        if var.value.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({name} "
                             f"is {var.value.dtype})")
    loss = loss_builder(params)
    base_sig = kink_signature(loss)
    trainable = params.trainable()
    grads = backward(loss, wrt=trainable.values())

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, var in trainable.items():
        flat = var.value.reshape(-1)
        size = flat.size
        n_coords = min(size, max(coords_per_param, 1))
        coords = rng.choice(size, size=n_coords, replace=False)
        analytic_full = grads.get(id(var))
        analytic_flat = (np.zeros(size) if analytic_full is None
                         else analytic_full.reshape(-1))
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            loss_plus = loss_builder(params)
            sig_plus = kink_signature(loss_plus)
            flat[c] = original - step
            loss_minus = loss_builder(params)
            sig_minus = kink_signature(loss_minus)
            flat[c] = original
            if not (_signatures_equal(sig_plus, base_sig)
                    and _signatures_equal(sig_minus, base_sig)):
                continue
            lp, lm = float(loss_plus.value), float(loss_minus.value)
            resolution = 128.0 * np.finfo(np.float64).eps \
                * max(1.0, abs(lp), abs(lm))
            fd = 0.0 if abs(lp - lm) <= resolution else (lp - lm) / (2.0 * step)
            err = abs(analytic_flat[c] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, err)
    return worst

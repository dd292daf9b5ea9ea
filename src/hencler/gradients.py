"""Minimal reverse-mode differentiation over the primitives the model needs.

Calling the op functions below builds the tape implicitly: each returns a
`Var`, a value plus its node. The tape is a DAG of nodes without values: a
node holds its op and, per parent node, a backward closure that captures
only the arrays or shapes that rule reads. A value therefore lives as long
as its `Var` or a backward rule that reads it; an intermediate no rule
reads is freed once the model code drops its `Var`. The trainable leaves
come as a dict of named `Var`s, and `backward` returns their gradients under
the same names. An op also takes plain arrays (inputs, targets, labels):
such an operand is captured by the closures of the op that uses it and is
never a parent, so no gradient is computed for it. `backward` is pure (it
never mutates node state, so re-running it yields identical gradients).
Piecewise-linear ops record their branch pattern on the node, which lets a
finite-difference check tell a kink crossing from a wrong gradient.

A node keeps a parent only if a gradient can reach a leaf through it: the
parent is a leaf, or it has parents itself. An op on plain arrays alone
therefore makes a node without parents, which no later node keeps, and its
closures and the arrays they capture are freed with its `Var`. Run on
plain arrays instead of leaves, the same builders are an inference forward
that records no tape and frees each intermediate once the next op has used
it.

No op writes into an array it did not allocate: operand values may be
parameters or model inputs, and add, sub, reshape, transpose and concat
return the incoming gradient or views of it, which other rules receive
too. In-place work (`out=`, `*=`) is therefore only done on arrays the op
or the backward rule allocated itself.
"""

from __future__ import annotations

import math

import numpy as np

LEAKY_SLOPE = 0.01
BN_EPS = 1e-5

__all__ = [
    "Var",
    "NonFiniteError",
    "add",
    "sub",
    "scale",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "LEAKY_SLOPE",
    "leaky_relu",
    "softplus",
    "log_sigmoid",
    "batchnorm",
    "reduce_sum",
    "trace",
    "square",
    "reciprocal",
    "sqrt",
    "clamp_min",
    "backward",
]


class NonFiniteError(ArithmeticError):
    """A forward primitive produced a NaN or infinity."""

    def __init__(self, primitive: str):
        super().__init__(f"non-finite value produced by primitive '{primitive}'")
        self.primitive = primitive


class _Node:
    """One node of the tape: the op and its backward rules, without the
    value, so a value lives only as long as its `Var` or a rule that reads
    it."""

    __slots__ = ("parents", "op", "kink_mask")

    def __init__(self, parents, op, kink_mask):
        # tuple of (_Node, fn: out_grad -> parent_grad)
        self.parents = parents
        self.op = op
        # Boolean branch pattern for piecewise-linear ops; the tests'
        # finite-difference check reads it to reject coordinates that cross
        # a kink.
        self.kink_mask = kink_mask


class Var:
    """A value plus its tape node; the node refers to its parents' nodes.
    A Var made with no op is a trainable leaf, of op "param"."""

    __slots__ = ("value", "node")

    def __init__(self, value, parents=(), op="param", kink_mask=None):
        self.value = value
        # parents: pairs of (Var, fn). Only a parent a gradient can reach a
        # leaf through is kept: a leaf, or a node with parents of its own.
        self.node = _Node(tuple((p.node, fn) for p, fn in parents
                                if p.node.parents or p.node.op == "param"),
                          op, kink_mask)

    @property
    def parents(self):
        return self.node.parents

    @parents.setter
    def parents(self, parents):
        self.node.parents = parents

    @property
    def op(self):
        return self.node.op

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.value.shape})"


def _lift(x) -> Var:
    """An operand as a Var; anything else becomes a float64 op="const" Var
    (a float64 array without a copy). It is neither a leaf nor has parents,
    so no node keeps it as a parent."""
    if isinstance(x, Var):
        return x
    return Var(np.asarray(x, dtype=np.float64), op="const")


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
    sa, sb = a.value.shape, b.value.shape
    return Var(out, ((a, lambda g: _unbroadcast(g, sa)),
                     (b, lambda g: _unbroadcast(g, sb))), op="add")


def sub(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    out = _check(a.value - b.value, "sub")
    sa, sb = a.value.shape, b.value.shape
    return Var(out, ((a, lambda g: _unbroadcast(g, sa)),
                     (b, lambda g: _unbroadcast(-g, sb))), op="sub")


def scale(a, c: float) -> Var:
    a = _lift(a)
    c = float(c)
    out = _check(a.value * c, "scale")
    return Var(out, ((a, lambda g: g * c),), op="scale")


def mul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    out = _check(av * bv, "mul")
    return Var(out, ((a, lambda g: _unbroadcast(g * bv, sa)),
                     (b, lambda g: _unbroadcast(g * av, sb))), op="mul")


def matmul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-D operands "
                         f"(got {av.shape} @ {bv.shape})")
    out = _check(av @ bv, "matmul")
    return Var(out, ((a, lambda g: g @ bv.T),
                     (b, lambda g: av.T @ g)), op="matmul")


def transpose(a) -> Var:
    a = _lift(a)
    return Var(a.value.T, ((a, lambda g: g.T),), op="transpose")


def reshape(a, shape) -> Var:
    a = _lift(a)
    out = a.value.reshape(shape)
    sa = a.value.shape
    return Var(out, ((a, lambda g: g.reshape(sa)),), op="reshape")


def concat(a, b, axis: int = 1) -> Var:
    a, b = _lift(a), _lift(b)
    out = np.concatenate([a.value, b.value], axis=axis)
    na = a.value.shape[axis]

    lead = (slice(None),) * axis

    def back_a(g):
        return g[lead + (slice(None, na),)]

    def back_b(g):
        return g[lead + (slice(na, None),)]

    return Var(out, ((a, back_a), (b, back_b)), op="concat")


def gather_rows(a, idx) -> Var:
    """Select rows a[idx]; backward scatter-adds (duplicate indices accumulate).

    The scatter adds into zeros in index order, as `np.add.at` does, with the
    same bits: one slice add when `idx` is one ascending run of rows, else
    one `np.bincount` per column, which needs the indices made non-negative.
    """
    a = _lift(a)
    shape, dtype = a.value.shape, a.value.dtype
    idx = np.arange(shape[0])[np.asarray(idx, dtype=np.intp)]
    out = a.value[idx]
    width = math.prod(shape[1:])
    run = idx.size > 0 and idx[-1] - idx[0] == idx.size - 1 \
        and bool(np.all(np.diff(idx) == 1))

    def back(g):
        acc = np.zeros(shape, dtype=dtype)
        if run:
            acc[idx[0]:idx[-1] + 1] += g
            return acc
        rows = acc.reshape(shape[0], width)
        for c, column in enumerate(g.reshape(idx.size, width).T):
            rows[:, c] = np.bincount(idx, weights=column, minlength=shape[0])
        return acc

    return Var(out, ((a, back),), op="gather_rows")


def leaky_relu(a) -> Var:
    """max(x, LEAKY_SLOPE * x): x for x >= 0 and LEAKY_SLOPE * x below,
    because 0 <= LEAKY_SLOPE <= 1."""
    a = _lift(a)
    pos = a.value >= 0
    out = a.value * LEAKY_SLOPE
    np.maximum(a.value, out, out=out)

    def back(g):
        local = np.maximum(pos, LEAKY_SLOPE)
        local *= g
        return local

    return Var(out, ((a, back),), op="leaky_relu", kink_mask=pos)


def _stable_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-|x|), sigmoid(x)) from one exp; neither overflows for any x.
    sigmoid(x) is 1 / (1 + e) for x >= 0 and e / (1 + e) below; since
    0 <= e <= 1, the numerator is max(e, x >= 0)."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = 1.0 + e
    sig = np.maximum(e, x >= 0)
    sig /= denom
    return e, sig


def softplus(a) -> Var:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)); smooth and stable.
    Backward reads the output: sigmoid(x) = -expm1(-softplus(x))."""
    a = _lift(a)
    e = np.abs(a.value)
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(a.value, 0.0)
    out += np.log1p(e, out=e)

    def back(g):
        sig = np.expm1(np.negative(out))
        return np.negative(np.multiply(sig, g, out=sig), out=sig)

    return Var(_check(out, "softplus"), ((a, back),), op="softplus")


def log_sigmoid(a) -> Var:
    """log(sigmoid(x)) = -(log1p(exp(-|x|)) - min(x, 0)), with derivative
    sigmoid(-x); avoids the 1-p cancellation in BCE tails. Negating the
    difference gives -0.0 at x = 0, as -log1p(exp(-|x|)) does."""
    a = _lift(a)
    x = a.value
    e, sig_neg = _stable_sigmoid(-x)
    out = np.log1p(e, out=e)
    out -= np.minimum(x, 0.0)
    np.negative(out, out=out)
    return Var(_check(out, "log_sigmoid"), ((a, lambda g: g * sig_neg),),
               op="log_sigmoid")


def batchnorm(x, gamma, beta) -> Var:
    """Training-mode batch normalization over axis 0 with learnable affine.

    Backward keeps `centered` and recomputes `centered * inv` for gamma,
    so the normalized input is not held on the tape.
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    xv, gv = x.value, gamma.value
    n = xv.shape[0]
    mean = xv.mean(axis=0)
    centered = xv - mean
    out = centered * centered  # the squares, then the output in place
    var = np.mean(out, axis=0)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    np.multiply(centered, inv, out=out)
    out *= gv
    out += beta.value
    _check(out, "batchnorm")

    def back_x(g):
        gxhat = g * gv
        term = gxhat * centered
        gvar = np.sum(term, axis=0) * (-0.5) * inv ** 3
        gmean = -inv * np.sum(gxhat, axis=0)
        np.multiply(gvar * (2.0 / n), centered, out=term)
        gxhat *= inv
        gxhat += term
        gxhat += gmean / n
        return gxhat

    def back_gamma(g):
        xhat = centered * inv
        xhat *= g
        return np.sum(xhat, axis=0)

    def back_beta(g):
        return np.sum(g, axis=0)

    return Var(out, ((x, back_x), (gamma, back_gamma), (beta, back_beta)),
               op="batchnorm")


def reduce_sum(a, axis: int | None = None) -> Var:
    a = _lift(a)
    out = np.asarray(a.value.sum(axis=axis))
    shape = a.value.shape

    def back(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

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
    av = a.value
    out = av * av
    return Var(out, ((a, lambda g: 2.0 * av * g),), op="square")


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


def _topo_order(root: Var) -> list[_Node]:
    """Iterative DFS topological order of the nodes reachable from `root`
    (parents before children)."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root.node, False)]
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


def backward(loss: Var, wrt: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to the named Vars of `wrt`,
    under the same names; a Var the loss does not reach is left out.

    Pure: node state is never mutated, so calling this twice on the same
    tape gives bit-identical results.
    """
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    want = {id(v.node) for v in wrt.values()}
    grads: dict[int, np.ndarray] = {id(loss.node): np.ones_like(loss.value)}
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
        if node.parents and id(node) not in want:
            del grads[id(node)]  # free intermediates early
    return {name: grads[id(var.node)] for name, var in wrt.items()
            if id(var.node) in grads}

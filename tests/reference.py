"""Reference checks and fixtures that only the tests use.

None of these runs in a `hencler` command: the weighted centering that the
dual construction rests on, a sampler of the conjugate-duality inequality,
a finite-difference gradient check with kink rejection, edge homophily, a
Frobenius relative error and a planted-block similarity. Import them like
`conftest`: `from reference import grad_check`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from hencler.gradients import Var, _topo_order, backward
from hencler.graphio import AttributedGraph

_SLACK = 1e-12  # rounding allowance of fenchel_young_check
_EPS = np.finfo(np.float64).eps


def center_primal(features, weights) -> np.ndarray:
    """Subtract the weighted mean row from every row."""
    feats = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("centering weights must be strictly positive")
    mean = (w @ feats) / w.sum()
    return feats - mean


def center_dual(similarity, w1, w2) -> np.ndarray:
    """Center a similarity matrix as M1 @ S @ M2.T, matching primal centering."""
    s = np.asarray(similarity, dtype=np.float64)
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    n, m = s.shape
    m1 = np.eye(n) - np.outer(np.ones(n), w1) / w1.sum()
    m2 = np.eye(m) - np.outer(np.ones(m), w2) / w2.sum()
    return m1 @ s @ m2.T


def fenchel_young_check(num_samples: int, dims: int, seed: int = 0) -> int:
    """Sample the conjugate-duality inequality; returns the violation count.

    For random e, h, w > 0 and diagonal Sigma > 0 checks
        w/2 e' Sigma^-1 e + 1/2 h' Sigma h >= sqrt(w) e' h - _SLACK
    and that equality holds at h = sqrt(w) Sigma^-1 e.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(num_samples):
        dim = int(rng.integers(1, dims + 1))
        e = rng.normal(size=dim)
        h = rng.normal(size=dim)
        w = float(rng.uniform(0.1, 10.0))
        sigma = rng.uniform(0.1, 2.0, size=dim)
        lhs = 0.5 * w * np.sum(e * e / sigma) + 0.5 * np.sum(h * h * sigma)
        rhs = np.sqrt(w) * np.dot(e, h)
        if lhs < rhs - _SLACK:
            violations += 1
        h_star = np.sqrt(w) * e / sigma
        lhs_star = 0.5 * w * np.sum(e * e / sigma) + 0.5 * np.sum(
            h_star * h_star * sigma)
        rhs_star = np.sqrt(w) * np.dot(e, h_star)
        if abs(lhs_star - rhs_star) > _SLACK * max(1.0, abs(lhs_star),
                                                   abs(rhs_star)):
            violations += 1
    return violations


def frobenius_relerr(a, b) -> float:
    """||a - b||_F / max(||b||_F, machine epsilon)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), _EPS))


def edge_homophily(g: AttributedGraph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if g.labels is None:
        raise ValueError("edge_homophily requires node labels")
    if g.num_edges == 0:
        raise ValueError("edge_homophily undefined on an empty edge set")
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    return float(np.mean(same))


def planted_block_similarity(block_sizes, noise: float = 0.01, seed: int = 0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Square block-diagonal all-ones similarity with uniform off-block noise.

    Returns (matrix, block labels); rows and columns share the layout. The
    matrix is dense, n x n for n = sum(block_sizes).
    """
    rng = np.random.default_rng(seed)
    total = int(np.sum(block_sizes))
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    sim = rng.uniform(0.0, noise, size=(total, total))
    start = 0
    for size in block_sizes:
        sim[start:start + size, start:start + size] = 1.0
        start += size
    return sim, labels


def kink_signature(root: Var) -> list[np.ndarray]:
    """Branch patterns of all piecewise ops reachable from `root`, in topo order."""
    return [node.kink_mask for node in _topo_order(root)
            if node.kink_mask is not None]


def _signatures_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(loss_builder: Callable[[dict[str, Var]], Var],
               params: dict[str, Var], step: float = 1e-5,
               coords_per_param: int = 20, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples at least `coords_per_param` coordinates of each named leaf.
    A coordinate is skipped when either perturbed evaluation lands on a
    different branch of a piecewise primitive (leaky-ReLU / clamp kink
    crossing), where finite differences are meaningless. When the two
    perturbed losses agree to within floating-point resolution the central
    difference is numerically zero and is reported as such (measuring
    sub-ulp differences would only amplify rounding noise).
    """
    for name, var in params.items():
        if var.value.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({name} "
                             f"is {var.value.dtype})")
    loss = loss_builder(params)
    base_sig = kink_signature(loss)
    grads = backward(loss, wrt=params)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, var in params.items():
        flat = var.value.reshape(-1)
        size = flat.size
        n_coords = min(size, max(coords_per_param, 1))
        coords = rng.choice(size, size=n_coords, replace=False)
        analytic_full = grads.get(name)
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


def directional_check(loss_builder: Callable[[dict[str, Var]], Var],
                      params: dict[str, Var], step: float = 1e-5,
                      directions: int = 3, seed: int = 0) -> float:
    """Worst relative error between the tape's directional derivative
    <grad L, d> and the central difference (L(p + h d) - L(p - h d)) / 2h.

    Each named leaf gets `directions` seeded random unit directions d over
    all of its entries, at once. A direction is skipped when either
    perturbed loss lands on another branch of a piecewise primitive (its
    `kink_signature` differs). The error is relative to the central
    difference, floored at 1e-8.
    """
    loss = loss_builder(params)
    base_sig = kink_signature(loss)
    grads = backward(loss, wrt=params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, var in params.items():
        original = var.value.copy()
        analytic_full = grads.get(name, np.zeros_like(original))
        for _ in range(directions):
            d = rng.normal(size=original.shape)
            d /= np.linalg.norm(d)
            var.value[...] = original + step * d
            loss_plus = loss_builder(params)
            var.value[...] = original - step * d
            loss_minus = loss_builder(params)
            var.value[...] = original
            if not (_signatures_equal(kink_signature(loss_plus), base_sig)
                    and _signatures_equal(kink_signature(loss_minus),
                                          base_sig)):
                continue
            fd = (float(loss_plus.value) - float(loss_minus.value)) \
                / (2.0 * step)
            analytic = float(np.sum(analytic_full * d))
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-8))
    return worst

"""Training losses and the per-epoch edge sample.

The tape builders below are the only implementation of the objective: the
trainer runs them, and tests evaluate them on fixed inputs against
independent oracles. Nothing here ever materializes the n x n similarity
matrix: degrees come from factor column sums and edge terms touch only the
sampled pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradients as ad
from .graphio import AttributedGraph
from .model import edge_logits, feature_maps, node_decoder, projections

__all__ = [
    "EPS_DEG",
    "EdgeSample",
    "sample_edges",
    "LossParts",
    "build_total_loss",
]

EPS_DEG = 1e-6  # lower clamp for learned similarity degrees


@dataclass(frozen=True)
class EdgeSample:
    positives: np.ndarray  # (2n, 2) pairs drawn from the edge set
    negatives: np.ndarray  # (2n, 2) non-edges, no self-pairs


def _edge_keys(g: AttributedGraph) -> np.ndarray:
    return np.sort(g.edges[:, 0] * g.num_nodes + g.edges[:, 1])


def sample_edges(g: AttributedGraph, seed: int) -> EdgeSample:
    """Draw 2n positive edges and 2n rejection-sampled negatives.

    Positives are a uniform subset without replacement when the edge set is
    large enough, with replacement otherwise. Negatives exclude self-pairs.
    """
    n = g.num_nodes
    if g.num_edges == 0:
        raise ValueError("cannot sample edges from an empty edge set")
    non_self = int(np.sum(g.edges[:, 0] != g.edges[:, 1]))
    if non_self >= n * (n - 1):
        raise ValueError("graph is complete: no negative edges exist")
    rng = np.random.default_rng(seed)
    count = 2 * n
    if g.num_edges >= count:
        idx = rng.choice(g.num_edges, size=count, replace=False)
    else:
        idx = rng.integers(0, g.num_edges, size=count)
    positives = g.edges[idx]

    keys = _edge_keys(g)
    collected: list[np.ndarray] = []
    need = count
    while need > 0:
        batch = max(2 * need, 64)
        src = rng.integers(0, n, size=batch)
        dst = rng.integers(0, n, size=batch)
        cand = src * n + dst
        ok = src != dst
        pos = np.searchsorted(keys, cand)
        pos_c = np.minimum(pos, len(keys) - 1)
        ok &= ~((pos < len(keys)) & (keys[pos_c] == cand))
        accepted = np.stack([src[ok], dst[ok]], axis=1)[:need]
        if accepted.shape[0]:
            collected.append(accepted)
            need -= accepted.shape[0]
    negatives = np.concatenate(collected, axis=0)
    return EdgeSample(positives=positives, negatives=negatives)


# ---------------------------------------------------------------------------
# Tape builders (training path)
# ---------------------------------------------------------------------------

def _build_degrees(source: ad.Var, target: ad.Var) -> tuple[ad.Var, ad.Var]:
    """Row and column sums of source @ target.T in O(n * d_f), clamped at
    EPS_DEG."""
    target_mass = ad.reshape(ad.reduce_sum(target, axis=0), (-1, 1))
    source_mass = ad.reshape(ad.reduce_sum(source, axis=0), (-1, 1))
    n = source.value.shape[0]
    out_deg = ad.reshape(ad.matmul(source, target_mass), (n,))
    in_deg = ad.reshape(ad.matmul(target, source_mass), (n,))
    return ad.clamp_min(out_deg, EPS_DEG), ad.clamp_min(in_deg, EPS_DEG)


def _build_wksvd(ps, source, target, src_emb, dst_emb, out_deg,
                 in_deg) -> ad.Var:
    # The inverse square roots of the singular values are fixed at 1/s, a
    # uniform spectrum with trace 1, so the variance terms are weighted by
    # (1/s)^2. Learning that spectrum jointly collapses it onto a single
    # direction.
    isqrt = 1.0 / src_emb.value.shape[1]
    inv_sigma = isqrt * isqrt
    var_src = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.scale(ad.square(src_emb), inv_sigma), axis=1),
        ad.reciprocal(out_deg)))
    var_dst = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.scale(ad.square(dst_emb), inv_sigma), axis=1),
        ad.reciprocal(in_deg)))
    proj_penalty = ad.trace(ad.matmul(ad.transpose(ps["proj_src"]),
                                      ps["proj_dst"]))
    map_penalty = ad.reduce_sum(ad.mul(
        ad.reduce_sum(ad.mul(source, target), axis=1),
        ad.reciprocal(ad.sqrt(ad.mul(out_deg, in_deg)))))
    return -var_src - var_dst + proj_penalty + map_penalty


def _build_node_rec(recon: ad.Var, features: np.ndarray) -> ad.Var:
    """Mean over nodes of the squared reconstruction error."""
    diff = recon - features
    return ad.scale(ad.reduce_sum(ad.square(diff)), 1.0 / features.shape[0])


def _build_edge_rec(ps, src_emb, dst_emb, sample: EdgeSample) -> ad.Var:
    pairs = np.concatenate([sample.positives, sample.negatives], axis=0)
    signs = np.concatenate([np.ones(len(sample.positives)),
                            -np.ones(len(sample.negatives))])
    logits = edge_logits(ps, src_emb, dst_emb, pairs[:, 0], pairs[:, 1])
    # Exact log-space BCE, -mean log(sigmoid(y x)), y = +1 on edges and -1 on
    # non-edges: log(sigmoid) is finite for all finite logits, so no
    # probability clamp is needed and gradients stay alive on saturated pairs.
    matched = ad.log_sigmoid(ad.mul(signs, logits))
    return ad.scale(ad.reduce_sum(matched), -1.0 / signs.size)


class LossParts(dict):
    """Loss component Vars keyed by name, plus their sum under "total".

    `embeddings` holds the (src_emb, dst_emb) Vars of the forward the losses
    were built on, so the trainer can track metrics without a second
    forward.
    """

    embeddings: tuple[ad.Var, ad.Var]


def build_total_loss(ps: dict[str, ad.Var], x_aug: np.ndarray, features: np.ndarray,
                     sample: EdgeSample | None, mode: str = "all") -> LossParts:
    """Full training objective on the tape.

    Returns the component Vars plus their sum under "total"; disabled
    components are absent from the dict, and the forward's embeddings are
    its `embeddings` attribute.
    """
    if mode not in ("all", "wksvd", "reconstr"):
        raise ValueError(f"unknown loss mode {mode!r}")
    source, target = feature_maps(ps, x_aug)
    src_emb, dst_emb = projections(ps, source, target)
    parts = LossParts()
    parts.embeddings = (src_emb, dst_emb)
    if mode in ("all", "wksvd"):
        out_deg, in_deg = _build_degrees(source, target)
        parts["wksvd"] = _build_wksvd(ps, source, target, src_emb, dst_emb,
                                      out_deg, in_deg)
    if mode in ("all", "reconstr"):
        if sample is None:
            raise ValueError("edge reconstruction requires an edge sample")
        parts["node_rec"] = _build_node_rec(
            node_decoder(ps, src_emb, dst_emb), features)
        parts["edge_rec"] = _build_edge_rec(ps, src_emb, dst_emb, sample)
    total = None
    for var in parts.values():
        total = var if total is None else total + var
    parts["total"] = total
    return parts

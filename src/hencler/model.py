"""Forward computation of the HeNCler architecture.

Two MLP feature maps turn [features || positional encoding] into the factor
matrices of the learned asymmetric similarity S = source @ target.T, which
is never materialized on the training path. Projection matrices produce the
per-node embedding pair; two decoders reconstruct node features and edges.

All forward arithmetic lives in the tape builders (`feature_maps`,
`projections`, ...); the public functions wrap them for plain-array use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gradients as ad
from .graphio import AttributedGraph, PositionalEncoding

__all__ = [
    "CheckpointError",
    "ModelDims",
    "HenclerParams",
    "SimilarityFactor",
    "EmbeddingPair",
    "init_params",
    "map_features",
    "project",
    "sigma_values",
    "decode_nodes",
    "decode_edge",
    "similarity_matrix",
    "save_checkpoint",
    "load_checkpoint",
]

LEAKY_SLOPE = 0.01
BN_EPS = 1e-5


class CheckpointError(ValueError):
    """Checkpoint file that is malformed or inconsistent with its dims."""


@dataclass(frozen=True)
class ModelDims:
    d_x: int
    k_pe: int
    hidden: int
    d_f: int
    s: int

    @property
    def d_in(self) -> int:
        return self.d_x + self.k_pe

    @property
    def rec_hidden(self) -> int:
        # decoder hidden = average of its input width (2*d_f) and d_x
        return (2 * self.d_f + self.d_x) // 2


@dataclass
class HenclerParams:
    """All trainable tensors, keyed by ParamSet name.

    When `tied` is set the target map shares the source map's parameters
    (the symmetric ablation) and no "dst.*" entries exist.
    """

    dims: ModelDims
    tied: bool
    arrays: dict[str, np.ndarray]

    def to_paramset(self, train_sigma: bool = False) -> ad.ParamSet:
        # The singular-value logits act as a constrained hyperparameter:
        # freely minimizing over them provably collapses the spectrum onto a
        # single direction, so they are excluded from training by default.
        ps = ad.ParamSet()
        for name, value in self.arrays.items():
            ps.add(name, value,
                   trainable=(name != "sv_logits" or train_sigma))
        return ps

    def update_from(self, ps: ad.ParamSet) -> None:
        for name in self.arrays:
            self.arrays[name] = ps.value(name).copy()


@dataclass(frozen=True)
class SimilarityFactor:
    """Factor matrices of the learned similarity: S = source @ target.T."""

    source: np.ndarray  # (n, d_f)
    target: np.ndarray  # (n, d_f)


@dataclass(frozen=True)
class EmbeddingPair:
    """Per-node latent vectors: source = Phi @ U, target = Psi @ V."""

    source: np.ndarray  # (n, s)
    target: np.ndarray  # (n, s)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _mlp_arrays(rng, d_in, hidden, d_f, prefix):
    return {
        f"{prefix}.w1": _xavier(rng, d_in, hidden),
        f"{prefix}.b1": np.zeros(hidden),
        f"{prefix}.w2": _xavier(rng, hidden, d_f),
        f"{prefix}.b2": np.zeros(d_f),
        f"{prefix}.bn_gamma": np.ones(d_f),
        f"{prefix}.bn_beta": np.zeros(d_f),
    }


def init_params(dims: ModelDims, seed: int = 0, tied: bool = False) -> HenclerParams:
    rng = np.random.default_rng(seed)
    arrays = _mlp_arrays(rng, dims.d_in, dims.hidden, dims.d_f, "src")
    if not tied:
        arrays.update(_mlp_arrays(rng, dims.d_in, dims.hidden, dims.d_f, "dst"))
    arrays["proj_src"] = _xavier(rng, dims.d_f, dims.s)
    arrays["proj_dst"] = _xavier(rng, dims.d_f, dims.s)
    arrays["sv_logits"] = np.zeros(dims.s)
    arrays["rec.w1"] = _xavier(rng, 2 * dims.d_f, dims.rec_hidden)
    arrays["rec.b1"] = np.zeros(dims.rec_hidden)
    arrays["rec.w2"] = _xavier(rng, dims.rec_hidden, dims.d_x)
    arrays["rec.b2"] = np.zeros(dims.d_x)
    return HenclerParams(dims=dims, tied=tied, arrays=arrays)


def _mlp(ps, x: ad.Var, prefix: str) -> ad.Var:
    hidden = ad.leaky_relu(ad.matmul(x, ps[f"{prefix}.w1"]) + ps[f"{prefix}.b1"],
                           slope=LEAKY_SLOPE)
    out = ad.matmul(hidden, ps[f"{prefix}.w2"]) + ps[f"{prefix}.b2"]
    normed = ad.batchnorm(out, ps[f"{prefix}.bn_gamma"], ps[f"{prefix}.bn_beta"],
                          eps=BN_EPS)
    # Strictly positive map entries make every similarity degree genuinely
    # positive (the random-walk weighting is then well defined with no
    # clamping), which is what keeps the weighted-variance objective bounded.
    return ad.softplus(normed)


def feature_maps(ps: ad.ParamSet, x_aug: ad.Var,
                 tied: bool = False) -> tuple[ad.Var, ad.Var]:
    """Tape forward of both feature-map MLPs on [features || PE] rows."""
    source = _mlp(ps, x_aug, "src")
    target = source if tied else _mlp(ps, x_aug, "dst")
    return source, target


def projections(ps: ad.ParamSet, source: ad.Var,
                target: ad.Var) -> tuple[ad.Var, ad.Var]:
    return ad.matmul(source, ps["proj_src"]), ad.matmul(target, ps["proj_dst"])


def sigma_from(ps: ad.ParamSet) -> ad.Var:
    return ad.softmax(ps["sv_logits"])


def node_decoder(ps: ad.ParamSet, src_emb: ad.Var, dst_emb: ad.Var) -> ad.Var:
    """Reconstruct node features from [U e_v || V r_v] with the decoder MLP."""
    back_src = ad.matmul(src_emb, ad.transpose(ps["proj_src"]))
    back_dst = ad.matmul(dst_emb, ad.transpose(ps["proj_dst"]))
    joined = ad.concat(back_src, back_dst, axis=1)
    hidden = ad.leaky_relu(ad.matmul(joined, ps["rec.w1"]) + ps["rec.b1"],
                           slope=LEAKY_SLOPE)
    return ad.matmul(hidden, ps["rec.w2"]) + ps["rec.b2"]


def edge_logits(ps: ad.ParamSet, src_emb: ad.Var, dst_emb: ad.Var,
                src_idx: np.ndarray, dst_idx: np.ndarray) -> ad.Var:
    """Dot-product decoder logits e_u^T (U^T V) r_v for the given pairs."""
    cross = ad.matmul(ad.transpose(ps["proj_src"]), ps["proj_dst"])  # (s, s)
    selected_src = ad.gather_rows(src_emb, src_idx)
    selected_dst = ad.gather_rows(dst_emb, dst_idx)
    return ad.reduce_sum(ad.mul(ad.matmul(selected_src, cross), selected_dst),
                         axis=1)


def _augmented_input(g: AttributedGraph, pe: PositionalEncoding) -> np.ndarray:
    if pe.values.shape[0] != g.num_nodes:
        raise ValueError("positional encoding row count does not match graph")
    return np.hstack([g.features, pe.values])


def map_features(g: AttributedGraph, pe: PositionalEncoding,
                 params: HenclerParams) -> SimilarityFactor:
    """Run both feature maps over all nodes."""
    x_aug = _augmented_input(g, pe)
    expected = params.dims.d_in
    if x_aug.shape[1] != expected:
        raise CheckpointError(
            f"model expects input width {expected} (d_x {params.dims.d_x} + "
            f"k_pe {params.dims.k_pe}), got {x_aug.shape[1]} (features "
            f"{g.feature_dim} + k_pe {pe.values.shape[1]})")
    ps = params.to_paramset()
    source, target = feature_maps(ps, ad.constant(x_aug), tied=params.tied)
    return SimilarityFactor(source=source.value, target=target.value)


def project(sf: SimilarityFactor, params: HenclerParams) -> EmbeddingPair:
    ps = params.to_paramset()
    src_emb, dst_emb = projections(ps, ad.constant(sf.source),
                                   ad.constant(sf.target))
    return EmbeddingPair(source=src_emb.value, target=dst_emb.value)


def sigma_values(sv_logits: np.ndarray) -> np.ndarray:
    """Softmax of the logits: entries in (0, 1) summing to 1."""
    ps = ad.ParamSet()
    ps.add("sv_logits", sv_logits)
    return sigma_from(ps).value


def decode_nodes(emb: EmbeddingPair, params: HenclerParams) -> np.ndarray:
    ps = params.to_paramset()
    recon = node_decoder(ps, ad.constant(emb.source), ad.constant(emb.target))
    return recon.value


def decode_edge(emb: EmbeddingPair, params: HenclerParams,
                u: int, v: int) -> float:
    """Probability of an edge u -> v; asymmetric in (u, v) in general."""
    logit = edge_logits(params.to_paramset(), ad.constant(emb.source),
                        ad.constant(emb.target), [u], [v])
    return float(ad.sigmoid(logit).value[0])


def similarity_matrix(sf: SimilarityFactor) -> np.ndarray:
    """Materialize S = source @ target.T. Oracle/export use only; O(n^2)."""
    return sf.source @ sf.target.T


def save_checkpoint(params: HenclerParams, path) -> None:
    doc = {
        "version": 1,
        "dims": {
            "d_x": params.dims.d_x,
            "k_pe": params.dims.k_pe,
            "hidden": params.dims.hidden,
            "d_f": params.dims.d_f,
            "s": params.dims.s,
        },
        "tied": params.tied,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.arrays.items()
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> HenclerParams:
    """Read a checkpoint; its parameters must match `init_params(dims, tied)`
    by name and shape, or CheckpointError names the first that does not."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: malformed JSON: {exc}") from exc
    if doc.get("version") != 1:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version: {doc.get('version')!r}")
    try:
        dims = ModelDims(**doc["dims"])
        tied = bool(doc["tied"])
        arrays = {name: np.asarray(entry["data"], dtype=np.float64)
                  .reshape(entry["shape"])
                  for name, entry in doc["params"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") \
            from exc
    expected = init_params(dims, tied=tied).arrays
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise CheckpointError(f"{path}: parameters missing {missing}, "
                              f"unexpected {extra}")
    for name, arr in arrays.items():
        if arr.shape != expected[name].shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, dims "
                f"require {expected[name].shape}")
    return HenclerParams(dims=dims, tied=tied, arrays=arrays)

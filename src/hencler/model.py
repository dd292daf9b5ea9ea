"""Forward computation of the HeNCler architecture.

Two MLP feature maps turn [features || positional encoding] into the factor
matrices of the learned asymmetric similarity S = source @ target.T, which
is never materialized on the training path. Projection matrices produce the
per-node embedding pair; two decoders reconstruct node features and edges.

All forward arithmetic lives in the tape builders (`feature_maps`,
`projections`, ...); `map_features` wraps the first for plain arrays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import gradients as ad
from .graphio import AttributedGraph

__all__ = [
    "CheckpointError",
    "ModelDims",
    "HenclerParams",
    "SimilarityFactor",
    "init_params",
    "map_features",
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
    """All trainable float64 arrays, keyed by the names of `_param_shapes`."""

    dims: ModelDims
    arrays: dict[str, np.ndarray]

    @property
    def tied(self) -> bool:
        """Whether the target map shares the source map's parameters (the
        symmetric ablation), which is exactly when no "dst.*" arrays exist."""
        return "dst.w1" not in self.arrays

    def leaves(self) -> dict[str, ad.Var]:
        """The arrays as the tape's trainable leaves, under the same names.

        Each leaf holds its array itself, not a copy, so an in-place update
        of a leaf's value is an update of `arrays`.
        """
        return {name: ad.Var(value, op="param")
                for name, value in self.arrays.items()}


@dataclass(frozen=True)
class SimilarityFactor:
    """Factor matrices of the learned similarity: S = source @ target.T."""

    source: np.ndarray  # (n, d_f)
    target: np.ndarray  # (n, d_f)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _param_shapes(dims: ModelDims, tied: bool) -> dict[str, tuple]:
    """Name and shape of every parameter, in `init_params`' draw order."""
    shapes = {}
    for prefix in ("src",) if tied else ("src", "dst"):
        shapes.update({
            f"{prefix}.w1": (dims.d_in, dims.hidden),
            f"{prefix}.b1": (dims.hidden,),
            f"{prefix}.w2": (dims.hidden, dims.d_f),
            f"{prefix}.b2": (dims.d_f,),
            f"{prefix}.bn_gamma": (dims.d_f,),
            f"{prefix}.bn_beta": (dims.d_f,),
        })
    shapes["proj_src"] = (dims.d_f, dims.s)
    shapes["proj_dst"] = (dims.d_f, dims.s)
    shapes["rec.w1"] = (2 * dims.d_f, dims.rec_hidden)
    shapes["rec.b1"] = (dims.rec_hidden,)
    shapes["rec.w2"] = (dims.rec_hidden, dims.d_x)
    shapes["rec.b2"] = (dims.d_x,)
    return shapes


def init_params(dims: ModelDims, seed: int = 0, tied: bool = False) -> HenclerParams:
    """Xavier-uniform matrices drawn in `_param_shapes` order, zero biases and
    batchnorm shifts, unit batchnorm scales."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _param_shapes(dims, tied).items():
        if len(shape) == 2:
            arrays[name] = _xavier(rng, *shape)
        elif name.endswith(".bn_gamma"):
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return HenclerParams(dims=dims, arrays=arrays)


def _mlp(ps, x: np.ndarray, prefix: str) -> ad.Var:
    hidden = ad.leaky_relu(ad.matmul(x, ps[f"{prefix}.w1"]) + ps[f"{prefix}.b1"],
                           slope=LEAKY_SLOPE)
    out = ad.matmul(hidden, ps[f"{prefix}.w2"]) + ps[f"{prefix}.b2"]
    normed = ad.batchnorm(out, ps[f"{prefix}.bn_gamma"], ps[f"{prefix}.bn_beta"],
                          eps=BN_EPS)
    # Strictly positive map entries make every similarity degree genuinely
    # positive (the random-walk weighting is then well defined with no
    # clamping), which is what keeps the weighted-variance objective bounded.
    return ad.softplus(normed)


def feature_maps(ps: dict[str, ad.Var],
                 x_aug: np.ndarray) -> tuple[ad.Var, ad.Var]:
    """Tape forward of both feature-map MLPs on [features || PE] rows.

    Without "dst.*" parameters the maps are tied: the target is the source.
    """
    source = _mlp(ps, x_aug, "src")
    target = _mlp(ps, x_aug, "dst") if "dst.w1" in ps else source
    return source, target


def projections(ps: dict[str, ad.Var], source: ad.Var | np.ndarray,
                target: ad.Var | np.ndarray) -> tuple[ad.Var, ad.Var]:
    return ad.matmul(source, ps["proj_src"]), ad.matmul(target, ps["proj_dst"])


def node_decoder(ps: dict[str, ad.Var], src_emb: ad.Var | np.ndarray,
                 dst_emb: ad.Var | np.ndarray) -> ad.Var:
    """Reconstruct node features from [U e_v || V r_v] with the decoder MLP."""
    back_src = ad.matmul(src_emb, ad.transpose(ps["proj_src"]))
    back_dst = ad.matmul(dst_emb, ad.transpose(ps["proj_dst"]))
    joined = ad.concat(back_src, back_dst, axis=1)
    hidden = ad.leaky_relu(ad.matmul(joined, ps["rec.w1"]) + ps["rec.b1"],
                           slope=LEAKY_SLOPE)
    return ad.matmul(hidden, ps["rec.w2"]) + ps["rec.b2"]


def edge_logits(ps: dict[str, ad.Var], src_emb: ad.Var | np.ndarray,
                dst_emb: ad.Var | np.ndarray, src_idx: np.ndarray,
                dst_idx: np.ndarray) -> ad.Var:
    """Dot-product decoder logits e_u^T (U^T V) r_v for the given pairs."""
    cross = ad.matmul(ad.transpose(ps["proj_src"]), ps["proj_dst"])  # (s, s)
    selected_src = ad.gather_rows(src_emb, src_idx)
    selected_dst = ad.gather_rows(dst_emb, dst_idx)
    return ad.reduce_sum(ad.mul(ad.matmul(selected_src, cross), selected_dst),
                         axis=1)


def _augmented_input(g: AttributedGraph, pe: np.ndarray) -> np.ndarray:
    if pe.shape[0] != g.num_nodes:
        raise ValueError("positional encoding row count does not match graph")
    return np.hstack([g.features, pe])


def map_features(g: AttributedGraph, pe: np.ndarray,
                 params: HenclerParams) -> SimilarityFactor:
    """Run both feature maps over all nodes."""
    x_aug = _augmented_input(g, pe)
    expected = params.dims.d_in
    if x_aug.shape[1] != expected:
        raise CheckpointError(
            f"model expects input width {expected} (d_x {params.dims.d_x} + "
            f"k_pe {params.dims.k_pe}), got {x_aug.shape[1]} (features "
            f"{g.feature_dim} + k_pe {pe.shape[1]})")
    source, target = feature_maps(params.leaves(), x_aug)
    return SimilarityFactor(source=source.value, target=target.value)


def similarity_matrix(sf: SimilarityFactor) -> np.ndarray:
    """Materialize S = source @ target.T for `export-similarity`; O(n^2)."""
    return sf.source @ sf.target.T


def save_checkpoint(params: HenclerParams, path) -> None:
    doc = {
        "version": 2,
        "dims": asdict(params.dims),
        "tied": params.tied,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.arrays.items()
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> HenclerParams:
    """Read a checkpoint. Its dims must be positive integers, `tied` a
    boolean, and its parameters finite and equal to `_param_shapes(dims,
    tied)` in names and shapes; otherwise CheckpointError names the first
    field that is not."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: malformed JSON: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != 2:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version: {version!r}")
    try:
        dims = ModelDims(**doc["dims"])
        tied = doc["tied"]
        arrays = {name: np.asarray(entry["data"], dtype=np.float64)
                  .reshape(entry["shape"])
                  for name, entry in doc["params"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") \
            from exc
    for name, value in asdict(dims).items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise CheckpointError(f"{path}: dims.{name} must be a positive "
                                  f"integer, got {value!r}")
    if not isinstance(tied, bool):
        raise CheckpointError(f"{path}: tied must be true or false, "
                              f"got {tied!r}")
    expected = _param_shapes(dims, tied)
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise CheckpointError(f"{path}: parameters missing {missing}, "
                              f"unexpected {extra}")
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, dims "
                f"require {expected[name]}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: parameter {name!r} has non-finite values")
    return HenclerParams(dims=dims, arrays=arrays)

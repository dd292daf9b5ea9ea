"""Full-batch training loop with per-epoch edge resampling and metric tracking.

A tracked epoch is scored on the embeddings of the next epoch's training
forward. One forward after the last step gives the final embeddings, which
also score a tracked last epoch.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import gradients as ad
from .evaluate import nmi as nmi_score, pairwise_f1
from .graphio import AttributedGraph, random_walk_pe
from .linalg import kmeans
from .loss import build_total_loss, sample_edges
from .model import HenclerParams, ModelDims, _augmented_input, \
    feature_maps, init_params, projections

__all__ = ["TrainConfig", "RunRecord", "TrainingDiverged", "AdamState",
           "optimizer_step", "train"]


class TrainingDiverged(ArithmeticError):
    """The loss went non-finite; message carries the epoch index."""


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the fixed configuration of the runs
    reported for this model (hidden 256, output 128, lr 0.01, 300 epochs).
    The latent width s is always 2 * num_clusters, and every kmeans runs
    with its default of 10 restarts."""

    num_clusters: int
    epochs: int = 300
    learning_rate: float = 0.01
    hidden: int = 256
    d_f: int = 128
    k_pe: int = 16
    seed: int = 0
    loss: str = "all"  # "all" | "wksvd" | "reconstr"
    tie_maps: bool = False
    eval_every: int = 1  # 0 disables metric tracking

    def __post_init__(self):
        for name in ("num_clusters", "epochs", "hidden", "d_f", "k_pe", "seed",
                     "eval_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.tie_maps, (bool, np.bool_)):
            raise ValueError(f"tie_maps must be true or false, "
                             f"got {self.tie_maps!r}")
        if isinstance(self.learning_rate, (bool, np.bool_)) or not isinstance(
                self.learning_rate, numbers.Real):
            raise ValueError(f"learning_rate must be a number, "
                             f"got {self.learning_rate!r}")
        if self.num_clusters < 1 or self.epochs < 0 or self.learning_rate <= 0:
            raise ValueError("num_clusters, epochs, learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, "
                             f"got {self.learning_rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, value in (("k_pe", self.k_pe), ("hidden", self.hidden),
                            ("d_f", self.d_f)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.loss not in ("all", "wksvd", "reconstr"):
            raise ValueError(f"unknown loss mode {self.loss!r}")

    @property
    def latent_dim(self) -> int:
        return 2 * self.num_clusters


@dataclass
class RunRecord:
    """Per-epoch losses, per-evaluation metrics, their running maxima, and
    the (source, target) embeddings of the final parameters, shape (n, s)
    each. Only the losses and metrics are serialized."""

    epoch_losses: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)
    best_nmi: float | None = None
    best_nmi_epoch: int | None = None
    best_f1: float | None = None
    best_f1_epoch: int | None = None
    wall_time_s: float = 0.0
    embeddings: tuple[np.ndarray, np.ndarray] | None = None

    def track(self, epoch: int, nmi_value: float, f1_value: float) -> None:
        self.evals.append({"epoch": epoch, "nmi": nmi_value, "f1": f1_value})
        if self.best_nmi is None or nmi_value > self.best_nmi:
            self.best_nmi, self.best_nmi_epoch = nmi_value, epoch
        if self.best_f1 is None or f1_value > self.best_f1:
            self.best_f1, self.best_f1_epoch = f1_value, epoch

    def to_dict(self) -> dict:
        # Wall time is left out so serialized records stay byte-identical
        # across same-seed runs; the embeddings are written by the caller.
        return {
            "epoch_losses": self.epoch_losses,
            "evals": self.evals,
            "best": {"nmi": self.best_nmi, "nmi_epoch": self.best_nmi_epoch,
                     "f1": self.best_f1, "f1_epoch": self.best_f1_epoch},
        }


@dataclass
class AdamState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, ps: dict[str, ad.Var]) -> "AdamState":
        return cls(step=0,
                   first_moment={k: np.zeros_like(v.value)
                                 for k, v in ps.items()},
                   second_moment={k: np.zeros_like(v.value)
                                  for k, v in ps.items()})


def optimizer_step(ps: dict[str, ad.Var], grads: dict[str, np.ndarray],
                   state: AdamState, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Bias-corrected Adam update of the named leaves' values, in place."""
    state.step += 1
    t = state.step
    for name, grad in grads.items():
        var = ps[name]
        if grad.shape != var.value.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match "
                             f"parameter {name!r} of shape {var.value.shape}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        var.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def _project_unit_columns(ps: dict[str, ad.Var]) -> None:
    """Renormalize projection columns to the unit sphere after each step.

    The weighted-variance objective is unbounded below in the projection
    matrices (quadratic reward vs bilinear trace penalty); constraining the
    columns keeps it a Rayleigh-quotient-style objective, mirroring the
    orthonormal dual vectors of the equivalent SVD problem.
    """
    for name in ("proj_src", "proj_dst"):
        value = ps[name].value
        value /= np.maximum(np.linalg.norm(value, axis=0, keepdims=True),
                            1e-12)


def _eval_embeddings(ps, x_aug):
    """Embeddings of the parameters after the last step, which no training
    forward sees."""
    source, target = feature_maps(ps, x_aug)
    src_emb, dst_emb = projections(ps, source, target)
    return src_emb.value, dst_emb.value


def train(g: AttributedGraph, config: TrainConfig,
          pe: np.ndarray | None = None
          ) -> tuple[HenclerParams, RunRecord]:
    """Optimize the model on one graph; deterministic given config.seed.

    The (n, k) positional encoding may be precomputed and passed in (it is
    pure preprocessing); otherwise it is derived here with config.k_pe
    steps. The record holds the embeddings of the returned parameters.
    """
    if config.eval_every > 0 and g.labels is None:
        raise ValueError("metric tracking requires node labels "
                         "(set eval_every=0 to train without them)")
    started = time.perf_counter()
    if pe is None:
        pe = random_walk_pe(g, config.k_pe)
    dims = ModelDims(d_x=g.feature_dim, k_pe=pe.shape[1],
                     hidden=config.hidden, d_f=config.d_f,
                     s=config.latent_dim)
    x_aug = _augmented_input(g, pe)

    seed_seq = np.random.SeedSequence(config.seed)
    init_seq, sample_seq, eval_seq = seed_seq.spawn(3)
    params = init_params(dims, seed=init_seq, tied=config.tie_maps)
    ps = params.leaves()  # shares params.arrays, so each step updates it
    state = AdamState.for_params(ps)
    sample_rng = np.random.default_rng(sample_seq)
    eval_seed = int(np.random.default_rng(eval_seq).integers(2 ** 31))

    record = RunRecord()
    needs_edges = config.loss in ("all", "reconstr")

    def track(epoch: int, src_emb: np.ndarray, dst_emb: np.ndarray) -> None:
        points = np.hstack([src_emb, dst_emb])
        assignment = kmeans(points, config.num_clusters, seed=eval_seed)
        record.track(epoch, nmi_score(assignment, g.labels),
                     pairwise_f1(assignment, g.labels))

    # A tracked epoch is scored on the embeddings of the next epoch's
    # forward: the parameters are the ones its step left, and batchnorm is
    # in train mode both times, so a separate forward gives the same bits.
    pending = None
    for epoch in range(config.epochs):
        sample = (sample_edges(g, int(sample_rng.integers(2 ** 63)))
                  if needs_edges else None)
        try:
            parts = build_total_loss(ps, x_aug, g.features, sample,
                                     mode=config.loss)
            if pending is not None:
                track(pending, *(emb.value for emb in parts.embeddings))
            grads = ad.backward(parts["total"], wrt=ps)
            entry = {"epoch": epoch, "total": float(parts["total"].value)}
            for key in ("wksvd", "node_rec", "edge_rec"):
                if key in parts:
                    entry[key] = float(parts[key].value)
            record.epoch_losses.append(entry)
            optimizer_step(ps, grads, state, config.learning_rate)
            _project_unit_columns(ps)
        except ad.NonFiniteError as exc:
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}: {exc}") from exc
        pending = (epoch if config.eval_every > 0
                   and (epoch + 1) % config.eval_every == 0 else None)
    parts = grads = None  # release the last epoch's tape
    try:
        record.embeddings = _eval_embeddings(ps, x_aug)
        if pending is not None:
            track(pending, *record.embeddings)
    except ad.NonFiniteError as exc:
        raise TrainingDiverged(
            f"non-finite forward after the last epoch ({config.epochs - 1}): "
            f"{exc}") from exc

    record.wall_time_s = time.perf_counter() - started
    return params, record

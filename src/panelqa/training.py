"""Fine-tuning loop: random crops, smooth-L1 objective, AdamW, step-decay LR.

The schedule follows the reference recipe: base LR 2e-4 decayed by 10x every
3 epochs over 9 epochs; 10 random crops per image, each crop a training
sample carrying its source image's score.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Manifest, atomic_write, load_image
from .model import QualityTransformer, forward_scores
from .tensor import NonFiniteError, Rng, Tensor


@dataclass
class TrainConfig:
    """Training recipe; ``precision`` must match the model's dtype."""
    epochs: int = 9
    base_lr: float = 2e-4
    lr_decay_factor: float = 10.0
    decay_every_epochs: int = 3
    batch_size: int = 16
    crops_per_image: int = 10
    weight_decay: float = 1e-4
    smooth_l1_beta: float = 1.0
    normalize_scores: bool = False
    seed: int = 0
    precision: int = 64

    def __post_init__(self):
        for name in ("epochs", "base_lr", "lr_decay_factor",
                     "decay_every_epochs", "batch_size", "crops_per_image",
                     "smooth_l1_beta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.precision not in (32, 64):
            raise ValueError("precision must be 32 or 64")

    @property
    def dtype(self):
        return np.float64 if self.precision == 64 else np.float32


def smooth_l1(pred: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Mean smooth-L1: quadratic inside |diff| < beta, linear outside."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    diff = pred.data - target.data
    absd = np.abs(diff)
    inner = absd < beta
    vals = np.where(inner, 0.5 * diff * diff / beta, absd - 0.5 * beta)
    n = max(vals.size, 1)
    out = np.asarray(vals.sum() / n)

    def vjp(g):
        d = np.where(inner, diff / beta, np.sign(diff)) * (g / n)
        return (d, -d)

    return Tensor._make(out, (pred, target), vjp, "smooth_l1")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    return cfg.base_lr / cfg.lr_decay_factor ** (epoch // cfg.decay_every_epochs)


def sample_crops(image: np.ndarray, n: int, hw: int, rng: Rng) -> list[np.ndarray]:
    """n uniform axis-aligned hw x hw crops; deterministic under the rng."""
    _, H, W = image.shape
    if H < hw or W < hw:
        raise ValueError(
            f"image {H}x{W} smaller than crop {hw}; resize the image or "
            f"configure a smaller crop_hw")
    crops = []
    for _ in range(n):
        y = int(rng.integers(0, H - hw + 1))
        x = int(rng.integers(0, W - hw + 1))
        crops.append(image[:, y:y + hw, x:x + hw])
    return crops


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]):
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def optimizer_step(params: dict[str, Tensor], state: OptimizerState,
                   lr: float, weight_decay: float) -> None:
    """AdamW update (Loshchilov & Hutter, arXiv:1711.05101) with the
    recipe's fixed moments and epsilon; clears gradients."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter {name}")
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        mhat = state.m[name] / (1 - beta1 ** t)
        vhat = state.v[name] / (1 - beta2 ** t)
        p.data -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p.data)
        p.zero_grad()


@dataclass
class StepRecord:
    step: int
    epoch: int
    lr: float
    loss: float
    grad_norm: float
    cls_grad: Optional[np.ndarray] = None

    def line(self) -> str:
        extra = ""
        if self.cls_grad is not None:
            extra = (f" cls_grad_mean={self.cls_grad.mean():.9e}"
                     f" cls_grad_var={self.cls_grad.var():.9e}")
        return (f"step={self.step} epoch={self.epoch} lr={self.lr:.6e} "
                f"loss={self.loss:.9e} grad_norm={self.grad_norm:.9e}" + extra)


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)

    def write(self, path: str) -> None:
        with atomic_write(path) as fh:
            for r in self.records:
                fh.write(r.line() + "\n")

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


def _label_array(manifest: Manifest, cfg: TrainConfig) -> np.ndarray:
    labels = manifest.scores()
    if cfg.normalize_scores:
        lo, hi = labels.min(), labels.max()
        if hi > lo:
            labels = (labels - lo) / (hi - lo)
    return labels


def fit(model: QualityTransformer, manifest: Manifest, cfg: TrainConfig,
        max_steps: Optional[int] = None,
        state: Optional[OptimizerState] = None) -> TrainLog:
    """Train the model in place; returns the per-step log.

    Passing an existing OptimizerState resumes from its step counter and
    moments; the weight decay is always ``cfg.weight_decay``. The model's
    dtype must match ``cfg.precision``."""
    if len(manifest) == 0:
        raise ValueError("training manifest is empty")
    if np.dtype(cfg.dtype) != model.dtype:
        raise ValueError(f"precision {cfg.precision} does not match the "
                         f"{model.dtype} model")
    params = model.named_parameters()
    if state is None:
        state = OptimizerState.init(params)
    # crop i of an epoch comes from sample i // crops_per_image
    targets = np.repeat(_label_array(manifest, cfg),
                        cfg.crops_per_image).astype(model.dtype)
    hw = model.config.crop_hw
    log = TrainLog()
    step = state.step
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        crop_rng = Rng(("crops", cfg.seed, epoch))
        images = [crop for sample in manifest.samples for crop in sample_crops(
            load_image(sample), cfg.crops_per_image, hw, crop_rng)]
        order = Rng(("order", cfg.seed, epoch)).permutation(len(images))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = Tensor(np.stack([images[i] for i in idx]))
            target = Tensor(targets[idx])
            scores = forward_scores(model, batch)
            loss = smooth_l1(scores, target, beta=cfg.smooth_l1_beta)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NonFiniteError(
                    f"non-finite loss at step {step} (epoch {epoch}); "
                    f"aborting training")
            loss.backward()
            grad_norm = float(np.sqrt(sum(
                float((p.grad ** 2).sum()) for p in params.values()
                if p.grad is not None)))
            g = model.embedding.cls_token.grad
            cls_grad = None if g is None else g.reshape(-1).copy()
            optimizer_step(params, state, lr, cfg.weight_decay)
            step += 1
            log.records.append(StepRecord(step, epoch, lr, loss_val,
                                          grad_norm, cls_grad))
            if max_steps is not None and step >= max_steps:
                return log
    return log

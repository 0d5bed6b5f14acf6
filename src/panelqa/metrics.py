"""Evaluation criteria and diagnostics: SRCC/PLCC, panel cosine similarity,
CLS-gradient histograms, and quality attention maps."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Manifest, Report, load_image
from .model import QualityTransformer, forward_panel, predict
from .tensor import Rng, Tensor, no_grad
from .training import TrainLog, sample_crops


class MetricError(ValueError):
    """Raised when a correlation is undefined (zero variance, n < 2)."""


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average (fractional) ranks, ties shared."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    last = np.cumsum(counts)    # 1-based rank of each tie group's last member
    return (last - 0.5 * (counts - 1))[group]


def _pair(what: str, pred: Sequence[float], label: Sequence[float]):
    p = np.asarray(pred, dtype=np.float64)
    l = np.asarray(label, dtype=np.float64)
    if p.shape != l.shape or p.ndim != 1 or len(p) < 2:
        raise MetricError(f"{what} needs two 1-d vectors of length >= 2")
    if not (np.isfinite(p).all() and np.isfinite(l).all()):
        raise MetricError(f"{what} undefined: non-finite input")
    return p, l


def plcc(pred: Sequence[float], label: Sequence[float]) -> float:
    """Pearson linear correlation."""
    p, l = _pair("plcc", pred, label)
    pc = p - p.mean()
    lc = l - l.mean()
    denom = np.sqrt((pc ** 2).sum() * (lc ** 2).sum())
    if denom == 0:
        raise MetricError("plcc undefined: zero variance input")
    return float((pc * lc).sum() / denom)


def srcc(pred: Sequence[float], label: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson of fractional ranks."""
    p, l = _pair("srcc", pred, label)
    try:
        return plcc(_ranks(p), _ranks(l))
    except MetricError:
        raise MetricError("srcc undefined: zero rank variance")


@dataclass
class EvalReport(Report):
    srcc: float
    plcc: float
    predictions: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return len(self.predictions)

    def lines(self) -> list[str]:
        return [f"n={self.n} srcc={self.srcc:.6f} plcc={self.plcc:.6f}"] + [
            f"pred={p:.9e} label={l:.9e}"
            for p, l in zip(self.predictions, self.labels)]


def evaluate(model: QualityTransformer, manifest: Manifest,
             crops_per_image: int = 10, seed: int = 0) -> EvalReport:
    """Per image, average the predictions of crops_per_image random crops,
    then correlate against the labels. The forward records no autodiff tape."""
    if len(manifest) < 2:
        raise MetricError("evaluate needs a manifest with n >= 2")
    hw = model.config.crop_hw
    preds = []
    rng = Rng(("eval", seed))
    for sample in manifest.samples:
        batch = Tensor(np.stack(sample_crops(load_image(sample), crops_per_image,
                                             hw, rng)))
        with no_grad():
            scores, _, _ = forward_panel(model, batch)
        preds.append(float(scores.data.mean()))
    preds = np.array(preds)
    labels = manifest.scores()
    return EvalReport(srcc=srcc(preds, labels), plcc=plcc(preds, labels),
                      predictions=preds, labels=labels)


@dataclass
class PanelDiagnostics(Report):
    cosine: np.ndarray        # (L, L), averaged over images
    score_spread: np.ndarray  # per image, max - min panel score

    def lines(self) -> list[str]:
        return [f"panel_members={len(self.cosine)} "
                f"mean_offdiag={self.mean_offdiag():.6f} "
                f"mean_spread={self.score_spread.mean():.6e}"] + [
            "cos " + " ".join(f"{v:.6f}" for v in row) for row in self.cosine]

    def mean_offdiag(self) -> float:
        L = len(self.cosine)
        if L < 2:
            return 0.0
        mask = ~np.eye(L, dtype=bool)
        return float(self.cosine[mask].mean())


def cosine_matrix(embeddings: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0):
        raise MetricError("zero-norm quality embedding")
    unit = embeddings / norms[:, None]
    return unit @ unit.T


def panel_cosine(model: QualityTransformer, manifest: Manifest) -> PanelDiagnostics:
    """Average pairwise cosine similarity of the panel quality embeddings."""
    if len(manifest) == 0:
        raise MetricError("panel_cosine needs a non-empty manifest")
    mats, spreads = [], []
    for sample in manifest.samples:
        img = load_image(sample)
        pred = predict(model, Tensor(center_crop(img, model.config.crop_hw)))
        if pred.quality_embeddings is None:
            raise MetricError(
                f"variant {model.config.variant!r} has no quality embeddings")
        mats.append(cosine_matrix(pred.quality_embeddings))
        spreads.append(pred.panel_scores.max() - pred.panel_scores.min())
    return PanelDiagnostics(cosine=np.mean(mats, axis=0),
                            score_spread=np.array(spreads))


def center_crop(image: np.ndarray, hw: int) -> np.ndarray:
    """The central hw x hw window of a (C, H, W) image."""
    _, H, W = image.shape
    if H < hw or W < hw:
        raise ValueError(f"image {H}x{W} smaller than crop {hw}")
    y, x = (H - hw) // 2, (W - hw) // 2
    return image[:, y:y + hw, x:x + hw]


@dataclass
class GradHistogram:
    step: int
    counts: np.ndarray
    edges: np.ndarray
    variance: float


def cls_grad_stats(log: TrainLog, bins: int = 51) -> list[GradHistogram]:
    """Per-step histograms of the CLS-token parameter gradient with shared
    fixed bin edges, plus the per-step variance."""
    snaps = [(r.step, r.cls_grad) for r in log.records]
    if not snaps:
        raise ValueError("training log has no CLS gradient snapshots")
    lo = min(float(g.min()) for _, g in snaps)
    hi = max(float(g.max()) for _, g in snaps)
    if lo == hi:
        lo, hi = lo - 1e-12, hi + 1e-12
    edges = np.linspace(lo, hi, bins + 1)
    out = []
    for step, g in snaps:
        counts, _ = np.histogram(g, bins=edges)
        out.append(GradHistogram(step=step, counts=counts, edges=edges,
                                 variance=float(g.var())))
    return out


def steps_to_variance_decay(hists: list[GradHistogram], frac: float = 0.1,
                            smooth: int = 5) -> int:
    """First step index at which the (moving-average smoothed) CLS-gradient
    variance falls below frac of its initial value; len(hists) if never."""
    if len(hists) < smooth:
        raise ValueError(f"{len(hists)} histograms are fewer than the "
                         f"smoothing window of {smooth}")
    var = np.array([h.variance for h in hists])
    if smooth > 1:
        kernel = np.ones(smooth) / smooth
        var = np.convolve(var, kernel, mode="valid")
    threshold = frac * var[0]
    below = np.nonzero(var < threshold)[0]
    return int(below[0]) if len(below) else len(hists)


def attention_map(model: QualityTransformer, image: Tensor) -> np.ndarray:
    """Decoder cross-attention heat map, (H, W) in [0, 1].

    Last decoder layer weights averaged over heads and panel members, laid
    out on the patch grid and nearest-neighbor upsampled."""
    pred = predict(model, image)
    if not pred.attn_maps:
        raise MetricError(
            f"variant {model.config.variant!r} has no decoder attention")
    weights = pred.attn_maps[-1].mean(axis=(0, 1))  # (N,)
    g = model.config.grid
    p = model.config.patch_size
    grid = weights.reshape(g, g)
    up = np.kron(grid, np.ones((p, p)))
    up = up - up.min()
    peak = up.max()
    return up / peak if peak > 0 else up

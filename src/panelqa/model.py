"""Model container: encoder + quality decoder + head, with ablation variants.

Variants mirror the component ablation rows:
  full                    encoder + panel + decoder (the complete model)
  encoder_only            CLS token straight to the scoring head
  panel_no_decoder        panel inputs straight to the scoring head
  decoder_random_queries  learnable random queries instead of the CLS pathway
  decoder_cls_queries     decoder driven by the bare CLS token, no panel
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from . import decoder as dec
from . import encoder as enc
from .encoder import EmbeddingParams, EncoderBlockParams, ModelConfig
from .tensor import Rng, ShapeError, Tensor, no_grad


@dataclass
class QualityTransformer:
    config: ModelConfig
    embedding: EmbeddingParams
    enc_blocks: list[EncoderBlockParams]
    head: dec.HeadParams
    panel: Optional[Tensor] = None                 # (L, D) embeddings
    query_block: Optional[dec.QueryBlockParams] = None
    cross_blocks: Optional[list[dec.CrossBlockParams]] = None
    random_queries: Optional[Tensor] = None        # decoder_random_queries only

    @property
    def dtype(self):
        return self.embedding.cls_token.dtype

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}

        def walk(prefix, obj):
            if isinstance(obj, Tensor):
                out[prefix] = obj
            elif is_dataclass(obj) and not isinstance(obj, (ModelConfig,)):
                for f in fields(obj):
                    walk(f"{prefix}.{f.name}" if prefix else f.name,
                         getattr(obj, f.name))
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    walk(f"{prefix}.{i}", item)

        walk("embedding", self.embedding)
        walk("enc_blocks", self.enc_blocks)
        if self.panel is not None:
            out["panel"] = self.panel
        if self.random_queries is not None:
            out["random_queries"] = self.random_queries
        if self.query_block is not None:
            walk("query_block", self.query_block)
        if self.cross_blocks is not None:
            walk("cross_blocks", self.cross_blocks)
        walk("head", self.head)
        return out

    def zero_grad(self):
        for p in self.named_parameters().values():
            p.zero_grad()


def init_model(config: ModelConfig, rng: Rng, dtype=np.float64) -> QualityTransformer:
    """Build a freshly initialized model; identical (seed, config) gives
    bit-identical parameters."""
    v = config.variant
    model = QualityTransformer(
        config=config,
        embedding=enc.init_embedding(config, rng, dtype),
        enc_blocks=[enc.init_encoder_block(config, rng, dtype)
                    for _ in range(config.encoder_depth)],
        head=dec.init_head(config, rng, dtype))
    uses_decoder = v in ("full", "decoder_random_queries", "decoder_cls_queries")
    if v in ("full", "panel_no_decoder"):
        model.panel = dec.init_panel(config, rng, dtype)
    if v == "decoder_random_queries":
        model.random_queries = dec.init_panel(config, rng, dtype)
    if uses_decoder:
        model.query_block = dec.init_query_block(config, rng, dtype)
        model.cross_blocks = [dec.init_cross_block(config, rng, dtype)
                              for _ in range(config.decoder_depth)]
    return model


def forward_panel(model: QualityTransformer, images: Tensor):
    """Batched forward pass up to panel scores.

    images: (B, C, H, W). Returns (panel_scores (B, L'), quality_embeddings
    (B, L', D) or None, attention weight list per decoder layer).
    """
    cfg = model.config
    z = enc.encode(images, model.embedding, model.enc_blocks, cfg.heads,
                   cfg.patch_size)
    cls = z[:, 0:1, :]            # (B, 1, D)
    patches = z[:, 1:, :]         # (B, N, D)
    B = images.shape[0]
    v = cfg.variant

    if v == "encoder_only":
        scores = dec.score_head(cls, model.head)          # (B, 1)
        return scores, None, []
    if v == "panel_no_decoder":
        x = dec.panel_inputs(cls, model.panel)            # (B, L, D)
        return dec.score_head(x, model.head), x, []

    if v == "full":
        x = dec.panel_inputs(cls, model.panel)
    elif v == "decoder_cls_queries":
        x = cls
    else:  # decoder_random_queries
        ones = Tensor(np.ones((B, 1, 1), dtype=images.dtype))
        x = model.random_queries.reshape((1,) + model.random_queries.shape) * ones

    q = dec.make_queries(x, model.query_block, cfg.heads)
    maps = []
    out = q
    for block in model.cross_blocks:
        out, w = dec.cross_attend(out, patches, block, cfg.heads)
        maps.append(w)
    scores = dec.score_head(out, model.head)
    return scores, out, maps


def forward_scores(model: QualityTransformer, images: Tensor) -> Tensor:
    """Batched image scores: mean over panel members, shape (B,)."""
    panel_scores, _, _ = forward_panel(model, images)
    return panel_scores.mean(axis=-1)


@dataclass
class Prediction:
    score: float
    panel_scores: np.ndarray            # (L',)
    quality_embeddings: Optional[np.ndarray]  # (L', D)
    attn_maps: list[np.ndarray]         # per decoder layer, (heads, L', N)


def predict(model: QualityTransformer, image: Tensor) -> Prediction:
    """Score a single (C, H, W) image with full diagnostics attached.

    Inference only: the forward records no autodiff tape."""
    if image.ndim != 3:
        raise ShapeError(f"predict takes a (C, H, W) image, got {image.shape}")
    with no_grad():
        panel_scores, embeddings, maps = forward_panel(
            model, image.reshape((1,) + image.shape))
    ps = panel_scores.data[0]
    return Prediction(
        score=float(ps.mean()),
        panel_scores=ps.copy(),
        quality_embeddings=None if embeddings is None else embeddings.data[0].copy(),
        attn_maps=[m[0] for m in maps])

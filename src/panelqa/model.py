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
from .encoder import (EmbeddingParams, EncoderBlockParams, ModelConfig,
                      init_field, init_params, param)
from .tensor import Rng, ShapeError, Tensor, no_grad


# variants whose decoder is a query block and ``decoder_depth`` encoder blocks
DECODER_VARIANTS = ("full", "decoder_random_queries", "decoder_cls_queries")


@dataclass(kw_only=True)
class QualityTransformer:
    """The parts present define the variant (see ``forward_panel``);
    parameters, and so checkpoint records, follow the field order."""
    config: ModelConfig
    embedding: EmbeddingParams
    enc_blocks: list[EncoderBlockParams]
    panel: Optional[Tensor] = param("normal", "L", "D", default=None)
    # image-independent queries, drawn as the panel is
    random_queries: Optional[Tensor] = param("normal", "L", "D", default=None)
    query_block: Optional[dec.QueryBlockParams] = None
    cross_blocks: Optional[list[EncoderBlockParams]] = None
    head: dec.HeadParams

    @property
    def dtype(self):
        return self.embedding.cls_token.dtype

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}

        def walk(prefix, obj):
            if isinstance(obj, Tensor):
                out[prefix] = obj
            elif is_dataclass(obj):
                for f in fields(obj):
                    walk(f"{prefix}.{f.name}" if prefix else f.name,
                         getattr(obj, f.name))
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    walk(f"{prefix}.{i}", item)

        walk("", self)
        return out


def init_model(config: ModelConfig, rng: Rng, dtype=np.float64) -> QualityTransformer:
    """A fresh model with the parts of its variant, drawn in float64 and cast
    to ``dtype``; identical (seed, config) gives bit-identical parameters."""
    v = config.variant
    declared = {f.name: f for f in fields(QualityTransformer)}
    parts = dict(
        embedding=init_params(EmbeddingParams, config, rng),
        enc_blocks=[init_params(EncoderBlockParams, config, rng)
                    for _ in range(config.encoder_depth)],
        head=init_params(dec.HeadParams, config, rng))
    if v in ("full", "panel_no_decoder"):
        parts["panel"] = init_field(declared["panel"], config, rng)
    if v == "decoder_random_queries":
        parts["random_queries"] = init_field(declared["random_queries"],
                                             config, rng)
    if v in DECODER_VARIANTS:
        parts["query_block"] = init_params(dec.QueryBlockParams, config, rng)
        parts["cross_blocks"] = [init_params(EncoderBlockParams, config, rng)
                                 for _ in range(config.decoder_depth)]
    model = QualityTransformer(config=config, **parts)
    for p in model.named_parameters().values():
        p.data = p.data.astype(dtype, copy=False)
    return model


def forward_panel(model: QualityTransformer, images: Tensor):
    """Batched forward pass up to panel scores, in the model's dtype.

    images: (B, C, H, W). Returns (panel_scores (B, L'), quality_embeddings
    (B, L', D) or None, attention weight list per decoder layer).
    """
    cfg = model.config
    z = enc.encode(images.data.astype(model.dtype, copy=False),
                   model.embedding, model.enc_blocks, cfg.heads, cfg.patch_size)
    cls = z[:, 0:1, :]            # (B, 1, D)
    patches = z[:, 1:, :]         # (B, N, D)

    if model.panel is not None:
        x = cls + model.panel                             # (B, L, D)
    elif model.random_queries is not None:
        ones = Tensor(np.ones((images.shape[0], 1, 1), model.dtype))
        x = model.random_queries * ones                   # (B, L, D)
    else:
        x = cls
    if model.query_block is None:
        embeddings = None if model.panel is None else x
        return dec.score_head(x, model.head), embeddings, []

    out = dec.make_queries(x, model.query_block, cfg.heads)
    maps = []
    for block in model.cross_blocks:
        out, w = dec.cross_attend(out, patches, block, cfg.heads)
        maps.append(w)
    return dec.score_head(out, model.head), out, maps


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
            model, Tensor(image.data[None]))
    ps = panel_scores.data[0]
    return Prediction(
        score=float(ps.mean()),
        panel_scores=ps.copy(),
        quality_embeddings=None if embeddings is None else embeddings.data[0].copy(),
        attn_maps=[m[0] for m in maps])

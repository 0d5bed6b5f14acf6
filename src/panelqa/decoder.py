"""Quality-aware decoder: CLS-driven queries, panel embeddings, cross-attention.

The decoder turns the encoder CLS token, summed with L learnable panel
embeddings, into L queries via one self-attention block, cross-attends those
queries to the patch features, and scores each resulting quality embedding
with a shared MLP head. The image score is the mean of the L panel scores.
"""
from __future__ import annotations

from dataclasses import dataclass

from .encoder import (AttentionParams, ModelConfig, attention, init_attention,
                      mhsa, _ones, _param, _zeros)
from .tensor import Rng, Tensor, gelu, layer_norm, matmul


@dataclass
class QueryBlockParams:
    """Self-attention block that turns panel inputs into decoder queries."""
    ln_gain: Tensor
    ln_bias: Tensor
    attn: AttentionParams


@dataclass
class CrossBlockParams:
    """One cross-attention layer: query norm, MHCA, then an MLP."""
    lnq_gain: Tensor
    lnq_bias: Tensor
    attn: AttentionParams
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


@dataclass
class HeadParams:
    """Shared scoring MLP, D -> D/2 -> 1 with GELU."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_query_block(cfg: ModelConfig, rng: Rng) -> QueryBlockParams:
    D = cfg.token_dim
    return QueryBlockParams(ln_gain=_ones((D,)), ln_bias=_zeros((D,)),
                            attn=init_attention(cfg, rng))


def init_cross_block(cfg: ModelConfig, rng: Rng) -> CrossBlockParams:
    D, Dm = cfg.token_dim, cfg.mlp_dim
    return CrossBlockParams(
        lnq_gain=_ones((D,)), lnq_bias=_zeros((D,)),
        attn=init_attention(cfg, rng),
        mlp_w1=_param(rng, (D, Dm)), mlp_b1=_zeros((Dm,)),
        mlp_w2=_param(rng, (Dm, D)), mlp_b2=_zeros((D,)))


def init_head(cfg: ModelConfig, rng: Rng) -> HeadParams:
    D = cfg.token_dim
    Dh = max(1, D // 2)
    return HeadParams(w1=_param(rng, (D, Dh)), b1=_zeros((Dh,)),
                      w2=_param(rng, (Dh, 1)), b2=_zeros((1,)))


def init_panel(cfg: ModelConfig, rng: Rng) -> Tensor:
    """Panel embeddings J, one row per member, small random init."""
    return _param(rng, (cfg.panel_size, cfg.token_dim))


def panel_inputs(t_cls: Tensor, panel: Tensor) -> Tensor:
    """Expand the CLS token over panel members: row l = t_cls + panel[l].

    t_cls: (B, 1, D); panel: (L, D). Returns (B, L, D).
    """
    if t_cls.shape[-1] != panel.shape[-1]:
        raise ValueError(
            f"width mismatch: cls {t_cls.shape} vs panel {panel.shape}")
    return t_cls + panel


def make_queries(x: Tensor, block: QueryBlockParams, heads: int) -> Tensor:
    """Decoder queries: MHSA over the (B, L, D) panel inputs plus residual."""
    return mhsa(layer_norm(x, block.ln_gain, block.ln_bias),
                block.attn, heads) + x


def cross_attend(queries: Tensor, patch_feats: Tensor, block: CrossBlockParams,
                 heads: int):
    """One decoder layer: MHCA of normed (B, L, D) queries over (B, N, D)
    patch features, residual, then the MLP. Returns (output, per-head
    attention weights (B,h,L,N))."""
    if patch_feats.shape[-2] == 0:
        raise ValueError("cross_attend requires at least one patch feature")
    attended, weights = attention(
        layer_norm(queries, block.lnq_gain, block.lnq_bias), patch_feats,
        block.attn, heads, return_weights=True)
    mid = attended + queries
    h = gelu(matmul(mid, block.mlp_w1, block.mlp_b1))
    return matmul(h, block.mlp_w2, block.mlp_b2), weights


def score_head(embeddings: Tensor, head: HeadParams) -> Tensor:
    """Apply the shared MLP head per row: (..., L, D) -> (..., L)."""
    h = gelu(matmul(embeddings, head.w1, head.b1))
    out = matmul(h, head.w2, head.b2)
    return out.reshape(out.shape[:-1])

"""Quality-aware decoder: CLS-driven queries, panel embeddings, cross-attention.

The decoder turns the encoder CLS token, summed with L learnable panel
embeddings, into L queries via one self-attention block, cross-attends those
queries to the patch features, and scores each resulting quality embedding
with a shared MLP head. The image score is the mean of the L panel scores.
"""
from __future__ import annotations

from dataclasses import dataclass

from .encoder import AttentionParams, attention, param
from .tensor import Tensor, gelu, matmul
from .tensor import layer_norm  # noqa: F401  perfbench wraps it here


@dataclass
class QueryBlockParams:
    """Self-attention block that turns panel inputs into decoder queries."""
    ln_gain: Tensor = param("ones", "D")
    ln_bias: Tensor = param("zeros", "D")
    attn: AttentionParams = param(AttentionParams)


@dataclass
class CrossBlockParams:
    """One cross-attention layer: query norm, MHCA, then an MLP."""
    lnq_gain: Tensor = param("ones", "D")
    lnq_bias: Tensor = param("zeros", "D")
    attn: AttentionParams = param(AttentionParams)
    mlp_w1: Tensor = param("normal", "D", "Dm")
    mlp_b1: Tensor = param("zeros", "Dm")
    mlp_w2: Tensor = param("normal", "Dm", "D")
    mlp_b2: Tensor = param("zeros", "D")


@dataclass
class HeadParams:
    """Shared scoring MLP, D -> D/2 -> 1 with GELU."""
    w1: Tensor = param("normal", "D", "Dh")
    b1: Tensor = param("zeros", "Dh")
    w2: Tensor = param("normal", "Dh", "1")
    b2: Tensor = param("zeros", "1")


def make_queries(x: Tensor, block: QueryBlockParams, heads: int) -> Tensor:
    """Decoder queries: MHSA over the normed (B, L, D) panel inputs plus
    residual."""
    return attention(x, block.ln_gain, block.ln_bias, block.attn, heads)


def cross_attend(queries: Tensor, patch_feats: Tensor, block: CrossBlockParams,
                 heads: int):
    """One decoder layer: MHCA of normed (B, L, D) queries over (B, N, D)
    patch features, residual, then the MLP. Returns (output, per-head
    attention weights (B,h,L,N))."""
    mid, weights = attention(queries, block.lnq_gain, block.lnq_bias,
                             block.attn, heads, kv=patch_feats,
                             return_weights=True)
    h = gelu(matmul(mid, block.mlp_w1, block.mlp_b1))
    return matmul(h, block.mlp_w2, block.mlp_b2), weights


def score_head(embeddings: Tensor, head: HeadParams) -> Tensor:
    """Apply the shared MLP head per row: (..., L, D) -> (..., L)."""
    h = gelu(matmul(embeddings, head.w1, head.b1))
    out = matmul(h, head.w2, head.b2)
    return out.reshape(out.shape[:-1])

"""Quality-aware decoder: CLS-driven queries, panel embeddings, cross-attention.

CLS token plus L learnable panel embeddings -> L queries (one self-attention
block) -> decoder layers, each an encoder block that attends to the patch
features -> a shared MLP head per query; the image score is their mean.
"""
from __future__ import annotations

from dataclasses import dataclass

from .encoder import AttentionParams, EncoderBlockParams, attention, param
from .tensor import Tensor, gelu, matmul, mlp
from .tensor import layer_norm  # noqa: F401  perfbench wraps it here


@dataclass
class QueryBlockParams:
    """Self-attention block that turns panel inputs into decoder queries."""
    ln_gain: Tensor = param("ones", "D")
    ln_bias: Tensor = param("zeros", "D")
    attn: AttentionParams = param(AttentionParams)


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


def cross_attend(queries: Tensor, patch_feats: Tensor,
                 block: EncoderBlockParams, heads: int):
    """One decoder layer: an encoder block over the (B, L, D) queries whose
    attention takes the (B, N, D) patch features as keys and values. Returns
    (output, per-head attention weights (B,h,L,N))."""
    mid, weights = attention(queries, block.ln1_gain, block.ln1_bias,
                             block.attn, heads, kv=patch_feats,
                             return_weights=True)
    return mlp(mid, block.ln2_gain, block.ln2_bias, block.mlp_w1,
               block.mlp_b1, block.mlp_w2, block.mlp_b2), weights


def score_head(embeddings: Tensor, head: HeadParams) -> Tensor:
    """Apply the shared MLP head per row: (..., L, D) -> (..., L)."""
    h = gelu(matmul(embeddings, head.w1, head.b1))
    out = matmul(h, head.w2, head.b2)
    return out.reshape(out.shape[:-1])

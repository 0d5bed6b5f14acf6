"""ViT-style encoder: patch embedding, CLS token, pre-norm MHSA/MLP blocks.

All forward functions are batched: token tensors are (B, M, D). Single-image
entry points accept (C, H, W) and add the batch axis themselves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (Rng, ShapeError, Tensor, gelu, layer_norm, matmul,
                     softmax_lastdim)

VARIANTS = ("full", "encoder_only", "panel_no_decoder",
            "decoder_random_queries", "decoder_cls_queries")


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the full-size recipe;
    tests use much smaller values."""
    patch_size: int = 16
    token_dim: int = 384
    heads: int = 6
    encoder_depth: int = 12
    decoder_depth: int = 1
    panel_size: int = 6
    mlp_ratio: float = 4.0
    channels: int = 3
    crop_hw: int = 224
    variant: str = "full"

    def __post_init__(self):
        for name in ("patch_size", "token_dim", "heads", "encoder_depth",
                     "decoder_depth", "panel_size", "channels", "crop_hw"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.mlp_ratio <= 0:
            raise ValueError("mlp_ratio must be positive")
        if self.token_dim % self.heads != 0:
            raise ValueError(
                f"token_dim {self.token_dim} not divisible by heads {self.heads}")
        if self.crop_hw % self.patch_size != 0:
            raise ValueError(
                f"crop_hw {self.crop_hw} not divisible by patch_size {self.patch_size}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def head_dim(self) -> int:
        return self.token_dim // self.heads

    @property
    def grid(self) -> int:
        return self.crop_hw // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def mlp_dim(self) -> int:
        return int(round(self.mlp_ratio * self.token_dim))


@dataclass
class AttentionParams:
    """Q/K/V/output projections for one multi-head attention block."""
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class EncoderBlockParams:
    ln1_gain: Tensor
    ln1_bias: Tensor
    attn: AttentionParams
    ln2_gain: Tensor
    ln2_bias: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


@dataclass
class EmbeddingParams:
    patch_proj_w: Tensor  # (p*p*C, D)
    patch_proj_b: Tensor  # (D,)
    cls_token: Tensor     # (1, D)
    pos_embed: Tensor     # (N+1, D)


def _param(rng: Rng, shape, std, dtype) -> Tensor:
    return Tensor(rng.trunc_normal(shape, std=std, dtype=dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def init_attention(cfg: ModelConfig, rng: Rng, dtype) -> AttentionParams:
    D = cfg.token_dim
    return AttentionParams(
        wq=_param(rng, (D, D), 0.02, dtype), bq=_zeros((D,), dtype),
        wk=_param(rng, (D, D), 0.02, dtype), bk=_zeros((D,), dtype),
        wv=_param(rng, (D, D), 0.02, dtype), bv=_zeros((D,), dtype),
        wo=_param(rng, (D, D), 0.02, dtype), bo=_zeros((D,), dtype))


def init_encoder_block(cfg: ModelConfig, rng: Rng, dtype) -> EncoderBlockParams:
    D, Dm = cfg.token_dim, cfg.mlp_dim
    return EncoderBlockParams(
        ln1_gain=_ones((D,), dtype), ln1_bias=_zeros((D,), dtype),
        attn=init_attention(cfg, rng, dtype),
        ln2_gain=_ones((D,), dtype), ln2_bias=_zeros((D,), dtype),
        mlp_w1=_param(rng, (D, Dm), 0.02, dtype), mlp_b1=_zeros((Dm,), dtype),
        mlp_w2=_param(rng, (Dm, D), 0.02, dtype), mlp_b2=_zeros((D,), dtype))


def init_embedding(cfg: ModelConfig, rng: Rng, dtype) -> EmbeddingParams:
    D = cfg.token_dim
    pd = cfg.patch_size * cfg.patch_size * cfg.channels
    return EmbeddingParams(
        patch_proj_w=_param(rng, (pd, D), 0.02, dtype),
        patch_proj_b=_zeros((D,), dtype),
        cls_token=_param(rng, (1, D), 0.02, dtype),
        pos_embed=_param(rng, (cfg.num_patches + 1, D), 0.02, dtype))


def patchify(image: Tensor, p: int) -> Tensor:
    """Cut (C,H,W) or (B,C,H,W) into non-overlapping p x p patches.

    Patches are ordered row-major over the patch grid; each patch is
    flattened channel-major, then row-major within the patch.
    """
    single = image.ndim == 3
    x = image.reshape((1,) + image.shape) if single else image
    if x.ndim != 4:
        raise ShapeError(f"patchify expects (C,H,W) or (B,C,H,W), got {image.shape}")
    B, C, H, W = x.shape
    if H % p != 0 or W % p != 0:
        raise ShapeError(f"image {H}x{W} not divisible by patch size {p}")
    gh, gw = H // p, W // p
    x = x.reshape(B, C, gh, p, gw, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)        # (B, gh, gw, C, p, p)
    x = x.reshape(B, gh * gw, C * p * p)
    return x.reshape(gh * gw, C * p * p) if single else x


def unpatchify(patches: np.ndarray, p: int, channels: int, hw: int) -> np.ndarray:
    """Inverse of patchify for a single image; used only by tests and plots."""
    g = hw // p
    x = patches.reshape(g, g, channels, p, p)
    return x.transpose(2, 0, 3, 1, 4).reshape(channels, hw, hw)


def embed(image: Tensor, params: EmbeddingParams) -> Tensor:
    """Project patches to tokens, prepend CLS, add position embedding.

    Returns (B, N+1, D); accepts (C,H,W) or (B,C,H,W) input.
    """
    D = params.patch_proj_w.shape[1]
    p2c = params.patch_proj_w.shape[0]
    # patch_size from projection row count and channel count of the image
    chans = image.shape[-3]
    p = int(round((p2c / chans) ** 0.5))
    patches = patchify(image if image.ndim == 4 else image.reshape((1,) + image.shape), p)
    tokens = matmul(patches, params.patch_proj_w) + params.patch_proj_b
    B, N, _ = tokens.shape
    cls_rows = params.cls_token.reshape(1, 1, D) * Tensor(np.ones((B, 1, 1), dtype=image.dtype))
    seq = _concat_tokens(cls_rows, tokens)
    return seq + params.pos_embed


def _concat_tokens(head: Tensor, rest: Tensor) -> Tensor:
    """Concatenate along the token axis: (B,1,D) ++ (B,N,D) -> (B,N+1,D)."""
    out = np.concatenate([head.data, rest.data], axis=1)
    n_head = head.shape[1]

    def vjp(g):
        return (g[:, :n_head], g[:, n_head:])

    return Tensor._make(out, (head, rest), vjp, "concat")


def attention(q_in: Tensor, kv_in: Tensor, params: AttentionParams,
              heads: int, return_weights: bool = False):
    """Multi-head attention; self-attention when q_in is kv_in.

    q_in: (B, M, D), kv_in: (B, Mk, D). Returns (B, M, D) and, on request,
    the per-head weight array (B, heads, M, Mk).
    """
    B, M, D = q_in.shape
    Mk = kv_in.shape[1]
    d = D // heads

    def split_heads(x, m):
        return x.reshape(B, m, heads, d).transpose(0, 2, 1, 3)

    q = split_heads(matmul(q_in, params.wq) + params.bq, M)
    k = split_heads(matmul(kv_in, params.wk) + params.bk, Mk)
    v = split_heads(matmul(kv_in, params.wv) + params.bv, Mk)
    scores = matmul(q, k.swap_last2()) * (1.0 / np.sqrt(d))
    weights = softmax_lastdim(scores)                       # (B, h, M, Mk)
    ctx = matmul(weights, v)                                # (B, h, M, d)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(B, M, D)        # concat heads
    out = matmul(ctx, params.wo) + params.bo
    if return_weights:
        return out, weights.data.copy()
    return out


def mhsa(tokens: Tensor, params: AttentionParams, heads: int) -> Tensor:
    """Self-attention over one token sequence; accepts (M,D) or (B,M,D)."""
    single = tokens.ndim == 2
    x = tokens.reshape((1,) + tokens.shape) if single else tokens
    out = attention(x, x, params, heads)
    return out.reshape(out.shape[1:]) if single else out


def encoder_block(tokens: Tensor, block: EncoderBlockParams, heads: int,
                  eps: float = 1e-6) -> Tensor:
    """Pre-norm transformer block: MHSA then MLP, each with a residual."""
    zm = mhsa(layer_norm(tokens, block.ln1_gain, block.ln1_bias, eps),
              block.attn, heads) + tokens
    h = gelu(matmul(layer_norm(zm, block.ln2_gain, block.ln2_bias, eps),
                    block.mlp_w1) + block.mlp_b1)
    return matmul(h, block.mlp_w2) + block.mlp_b2 + zm


def encode(image: Tensor, embedding: EmbeddingParams,
           blocks: list[EncoderBlockParams], heads: int) -> Tensor:
    """Full encoder: embed then the block stack. Returns (B, N+1, D)."""
    x = embed(image, embedding)
    for block in blocks:
        x = encoder_block(x, block, heads)
    return x

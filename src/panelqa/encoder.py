"""ViT-style encoder: patch embedding, CLS token, pre-norm MHSA/MLP blocks.

All forward functions are batched only: images are (B, C, H, W) and token
tensors (B, M, D).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Rng, ShapeError, Tensor, gelu, layer_norm, matmul
from .tensor import softmax_lastdim  # noqa: F401  perfbench wraps it here

VARIANTS = ("encoder_only", "panel_no_decoder", "decoder_random_queries",
            "decoder_cls_queries", "full")


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


def _param(rng: Rng, shape) -> Tensor:
    """Weights drawn from a normal with std 0.02, truncated at two std."""
    return Tensor(rng.trunc_normal(shape, std=0.02), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def init_attention(cfg: ModelConfig, rng: Rng) -> AttentionParams:
    D = cfg.token_dim
    return AttentionParams(
        wq=_param(rng, (D, D)), bq=_zeros((D,)),
        wk=_param(rng, (D, D)), bk=_zeros((D,)),
        wv=_param(rng, (D, D)), bv=_zeros((D,)),
        wo=_param(rng, (D, D)), bo=_zeros((D,)))


def init_encoder_block(cfg: ModelConfig, rng: Rng) -> EncoderBlockParams:
    D, Dm = cfg.token_dim, cfg.mlp_dim
    return EncoderBlockParams(
        ln1_gain=_ones((D,)), ln1_bias=_zeros((D,)),
        attn=init_attention(cfg, rng),
        ln2_gain=_ones((D,)), ln2_bias=_zeros((D,)),
        mlp_w1=_param(rng, (D, Dm)), mlp_b1=_zeros((Dm,)),
        mlp_w2=_param(rng, (Dm, D)), mlp_b2=_zeros((D,)))


def init_embedding(cfg: ModelConfig, rng: Rng) -> EmbeddingParams:
    D = cfg.token_dim
    pd = cfg.patch_size * cfg.patch_size * cfg.channels
    return EmbeddingParams(
        patch_proj_w=_param(rng, (pd, D)),
        patch_proj_b=_zeros((D,)),
        cls_token=_param(rng, (1, D)),
        pos_embed=_param(rng, (cfg.num_patches + 1, D)))


def patchify(image: Tensor, p: int) -> Tensor:
    """Cut (B,C,H,W) images into non-overlapping p x p patches, (B, N, C*p*p).

    Patches are ordered row-major over the patch grid; each patch is
    flattened channel-major, then row-major within the patch.
    """
    if image.ndim != 4:
        raise ShapeError(f"patchify expects (B,C,H,W), got {image.shape}")
    B, C, H, W = image.shape
    if H % p != 0 or W % p != 0:
        raise ShapeError(f"image {H}x{W} not divisible by patch size {p}")
    gh, gw = H // p, W // p
    x = image.reshape(B, C, gh, p, gw, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)        # (B, gh, gw, C, p, p)
    return x.reshape(B, gh * gw, C * p * p)


def unpatchify(patches: np.ndarray, p: int, channels: int, hw: int) -> np.ndarray:
    """Inverse of patchify for a single image; a test oracle only."""
    g = hw // p
    x = patches.reshape(g, g, channels, p, p)
    return x.transpose(2, 0, 3, 1, 4).reshape(channels, hw, hw)


def embed(image: Tensor, params: EmbeddingParams, patch_size: int) -> Tensor:
    """Project (B,C,H,W) patches to tokens, prepend CLS, add position
    embedding. Returns (B, N+1, D)."""
    rows = params.patch_proj_w.shape[0]
    patches = patchify(image, patch_size)
    if patches.shape[-1] != rows:
        raise ShapeError(f"image has {image.shape[1]} channels, the patch "
                         f"projection expects {rows // patch_size ** 2}")
    tokens = matmul(patches, params.patch_proj_w, params.patch_proj_b)
    return _prepend_cls(params.cls_token, tokens) + params.pos_embed


def _prepend_cls(cls: Tensor, rest: Tensor) -> Tensor:
    """The (1, D) CLS row ahead of each (N, D) sequence: (B, N+1, D)."""
    B, _, D = rest.shape
    out = np.concatenate([np.broadcast_to(cls.data, (B, 1, D)), rest.data], 1)

    def vjp(g):
        return (g[:, 0].sum(axis=0, keepdims=True), g[:, 1:])

    return Tensor._make(out, (cls, rest), vjp, "concat")


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """The (B, h, M, d) view of (B, M, h*d) ``x``; a product written into it
    with ``out=`` merges the heads in place."""
    B, M, D = x.shape
    return x.reshape(B, M, heads, D // heads).transpose(0, 2, 1, 3)


def attention(q_in: Tensor, kv_in: Tensor, params: AttentionParams,
              heads: int, return_weights: bool = False):
    """Multi-head attention as one tape node; self-attention when q_in is
    kv_in.

    q_in: (B, M, D), kv_in: (B, Mk, D). Returns (B, M, D) and, on request,
    the per-head weight array (B, heads, M, Mk). Self-attention projects
    Q, K and V with one (D, 3D) product, cross-attention K and V with one
    (D, 2D) product; the stored wq/wk/wv are concatenated per call.
    """
    if not (q_in.ndim == kv_in.ndim == 3
            and q_in.shape[::2] == kv_in.shape[::2]):
        raise ShapeError(f"attention expects (B, M, D) and (B, Mk, D) tokens, "
                         f"got {q_in.shape} and {kv_in.shape}")
    B, M, D = q_in.shape
    p = params
    fused = q_in is kv_in
    # (input, weight, bias) of each input projection; their outputs, side by
    # side, are Q|K|V
    if fused:
        groups = [(q_in, (p.wq, p.wk, p.wv), (p.bq, p.bk, p.bv))]
    else:
        groups = [(q_in, (p.wq,), (p.bq,)),
                  (kv_in, (p.wk, p.wv), (p.bk, p.bv))]
    projs = [(x.data, np.concatenate([w.data for w in ws], axis=1),
              np.concatenate([b.data for b in bs])) for x, ws, bs in groups]
    ys = [x @ w + b for x, w, b in projs]

    def qkv(arrays):
        return (_heads(arrays[0][..., :D], heads),
                _heads(arrays[-1][..., -2 * D:-D], heads),
                _heads(arrays[-1][..., -D:], heads))

    q, k, v = qkv(ys)
    scale = 1.0 / math.sqrt(D // heads)
    wgt = q @ k.swapaxes(-1, -2)
    wgt *= scale
    wgt -= wgt.max(axis=-1, keepdims=True)
    np.exp(wgt, out=wgt)
    wgt /= wgt.sum(axis=-1, keepdims=True)                  # (B, h, M, Mk)
    ctx = np.empty((B, M, D), wgt.dtype)
    np.matmul(wgt, v, out=_heads(ctx, heads))

    def vjp(g):
        g2 = g.reshape(-1, D)
        gctx = _heads((g2 @ p.wo.data.T).reshape(B, M, D), heads)
        gs = gctx @ v.swapaxes(-1, -2)
        gs -= (gs * wgt).sum(axis=-1, keepdims=True)
        gs *= wgt
        gs *= scale                                         # d scores
        gys = [np.empty(y.shape, y.dtype) for y in ys]
        gq, gk, gv = qkv(gys)
        np.matmul(gs, k, out=gq)
        np.matmul(gs.swapaxes(-1, -2), q, out=gk)
        np.matmul(wgt.swapaxes(-1, -2), gctx, out=gv)
        gys = [gy.reshape(-1, gy.shape[-1]) for gy in gys]
        gx = [(gy @ w.T).reshape(x.shape) for (x, w, _), gy in zip(projs, gys)]
        gw = [x.reshape(-1, D).T @ gy for (x, _, _), gy in zip(projs, gys)]
        gw = np.split(np.concatenate(gw, axis=1), 3, axis=1)
        gb = np.split(np.concatenate([gy.sum(axis=0) for gy in gys]), 3)
        return (gx[0], None if fused else gx[1], gw[0], gb[0], gw[1], gb[1],
                gw[2], gb[2], ctx.reshape(-1, D).T @ g2, g2.sum(axis=0))

    out = Tensor._make(ctx @ p.wo.data + p.bo.data,
                       (q_in, kv_in, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv,
                        p.wo, p.bo), vjp, "attention")
    if return_weights:
        return out, wgt.copy()
    return out


def mhsa(tokens: Tensor, params: AttentionParams, heads: int) -> Tensor:
    """Self-attention over (B, M, D) tokens."""
    return attention(tokens, tokens, params, heads)


def encoder_block(tokens: Tensor, block: EncoderBlockParams,
                  heads: int) -> Tensor:
    """Pre-norm transformer block over (B, M, D) tokens: MHSA then MLP, each
    with a residual."""
    zm = mhsa(layer_norm(tokens, block.ln1_gain, block.ln1_bias),
              block.attn, heads) + tokens
    h = gelu(matmul(layer_norm(zm, block.ln2_gain, block.ln2_bias),
                    block.mlp_w1, block.mlp_b1))
    return matmul(h, block.mlp_w2, block.mlp_b2) + zm


def encode(image: Tensor, embedding: EmbeddingParams,
           blocks: list[EncoderBlockParams], heads: int,
           patch_size: int) -> Tensor:
    """Full encoder: embed then the block stack. Returns (B, N+1, D)."""
    x = embed(image, embedding, patch_size)
    for block in blocks:
        x = encoder_block(x, block, heads)
    return x

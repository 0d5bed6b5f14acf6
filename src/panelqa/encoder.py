"""ViT-style encoder: patch embedding, CLS token, pre-norm MHSA/MLP blocks.

All forward functions are batched only: images are (B, C, H, W) and token
tensors (B, M, D).
"""
from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from typing import Optional

import numpy as np

from .tensor import Rng, ShapeError, Tensor, _norm, _norm_vjp, matmul, mlp
# no encoder function calls these; perfbench wraps them here
from .tensor import gelu, layer_norm, softmax_lastdim  # noqa: F401

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
        if self.mlp_dim < 1:
            raise ValueError(
                f"mlp_ratio {self.mlp_ratio} x token_dim {self.token_dim} "
                f"rounds to an MLP width of {self.mlp_dim}; it must be >= 1")
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


def param(init, *shape, **kwargs):
    """A record field's declaration: its initializer, "normal", "zeros",
    "ones" or a record class, and its shape as names of `_dims`; ``kwargs``
    go to ``dataclasses.field``."""
    return field(metadata={"init": init, "shape": shape}, **kwargs)


@dataclass
class AttentionParams:
    """Q/K/V/output projections for one multi-head attention block."""
    wq: Tensor = param("normal", "D", "D")
    bq: Tensor = param("zeros", "D")
    wk: Tensor = param("normal", "D", "D")
    bk: Tensor = param("zeros", "D")
    wv: Tensor = param("normal", "D", "D")
    bv: Tensor = param("zeros", "D")
    wo: Tensor = param("normal", "D", "D")
    bo: Tensor = param("zeros", "D")


@dataclass
class EncoderBlockParams:
    ln1_gain: Tensor = param("ones", "D")
    ln1_bias: Tensor = param("zeros", "D")
    attn: AttentionParams = param(AttentionParams)
    ln2_gain: Tensor = param("ones", "D")
    ln2_bias: Tensor = param("zeros", "D")
    mlp_w1: Tensor = param("normal", "D", "Dm")
    mlp_b1: Tensor = param("zeros", "Dm")
    mlp_w2: Tensor = param("normal", "Dm", "D")
    mlp_b2: Tensor = param("zeros", "D")


@dataclass
class EmbeddingParams:
    patch_proj_w: Tensor = param("normal", "P", "D")
    patch_proj_b: Tensor = param("zeros", "D")
    cls_token: Tensor = param("normal", "1", "D")
    pos_embed: Tensor = param("normal", "N+1", "D")


def _dims(cfg: ModelConfig) -> dict[str, int]:
    D = cfg.token_dim
    return {"D": D, "Dm": cfg.mlp_dim, "Dh": max(1, D // 2),
            "P": cfg.patch_size ** 2 * cfg.channels,
            "N+1": cfg.num_patches + 1, "L": cfg.panel_size, "1": 1}


def init_params(cls, cfg: ModelConfig, rng: Rng):
    """A ``cls`` record drawn in field order, so that the draws follow the
    record (and checkpoint) order."""
    return cls(**{f.name: init_field(f, cfg, rng) for f in fields(cls)})


def init_field(f: Field, cfg: ModelConfig, rng: Rng):
    """The parameter ``f`` declares: a nested record, or a tensor of zeros,
    ones or weights from a normal with std 0.02 truncated at two std,
    drawn in float64."""
    init = f.metadata["init"]
    if not isinstance(init, str):
        return init_params(init, cfg, rng)
    dims = _dims(cfg)
    shape = tuple(dims[d] for d in f.metadata["shape"])
    fill = {"normal": rng.trunc_normal, "zeros": np.zeros, "ones": np.ones}
    return Tensor(fill[init](shape), requires_grad=True)


def patchify(image: np.ndarray, p: int) -> np.ndarray:
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
    x = image.reshape(B, C, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x).reshape(B, gh * gw, C * p * p)


def embed(image: np.ndarray, params: EmbeddingParams,
          patch_size: int) -> Tensor:
    """Project (B,C,H,W) patches to tokens, prepend CLS, add position
    embedding. Returns (B, N+1, D); the image is data, not on the tape."""
    rows = params.patch_proj_w.shape[0]
    patches = patchify(image, patch_size)
    if patches.shape[-1] != rows:
        raise ShapeError(f"image has {image.shape[1]} channels, the patch "
                         f"projection expects {rows // patch_size ** 2}")
    tokens = matmul(Tensor(patches), params.patch_proj_w, params.patch_proj_b)
    return _prepend_cls(params.cls_token, tokens) + params.pos_embed


def _prepend_cls(cls: Tensor, rest: Tensor) -> Tensor:
    """The (1, D) CLS row ahead of each (N, D) sequence: (B, N+1, D)."""
    B, _, D = rest.shape
    out = np.concatenate([np.broadcast_to(cls.data, (B, 1, D)), rest.data], 1)

    def vjp(g):
        return (g[:, 0].sum(axis=0, keepdims=True), g[:, 1:])

    return Tensor._make(out, (cls, rest), vjp)


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """The (B, h, M, d) view of (B, M, h*d) ``x``; a product written into it
    with ``out=`` merges the heads in place."""
    B, M, D = x.shape
    return x.reshape(B, M, heads, D // heads).transpose(0, 2, 1, 3)


def attention(x: Tensor, gain: Tensor, bias: Tensor, params: AttentionParams,
              heads: int, kv: Optional[Tensor] = None,
              return_weights: bool = False):
    """Pre-norm residual multi-head attention as one tape node:
    ``x + MHA(LN(x), kv)``, self-attention over ``LN(x)`` when kv is None.

    x: (B, M, D), kv: (B, Mk, D). Returns (B, M, D) and, on request, the
    per-head weight array (B, heads, M, Mk). Self-attention projects Q, K
    and V with one (D, 3D) product, cross-attention K and V with one (D, 2D)
    product; the stored wq/wk/wv are concatenated per call.
    """
    if not (x.ndim == 3 and (kv is None or (
            kv.ndim == 3 and x.shape[::2] == kv.shape[::2]))):
        raise ShapeError(f"attention expects (B, M, D) and (B, Mk, D) tokens, "
                         f"got {x.shape} and {None if kv is None else kv.shape}")
    B, M, D = x.shape
    p = params
    h, xhat, inv = _norm(x.data, gain.data, bias.data)
    # (input, weight, bias) of each input projection; their outputs, side by
    # side, are Q|K|V
    if kv is None:
        groups = [(h, (p.wq, p.wk, p.wv), (p.bq, p.bk, p.bv))]
    else:
        groups = [(h, (p.wq,), (p.bq,)),
                  (kv.data, (p.wk, p.wv), (p.bk, p.bv))]
    projs = [(a, np.concatenate([w.data for w in ws], axis=1),
              np.concatenate([b.data for b in bs])) for a, ws, bs in groups]
    ys = [a @ w for a, w, _ in projs]
    for y, (_, _, b) in zip(ys, projs):
        y += b

    def qkv(arrays):
        return (_heads(arrays[0][..., :D], heads),
                _heads(arrays[-1][..., -2 * D:-D], heads),
                _heads(arrays[-1][..., -D:], heads))

    q, k, v = qkv(ys)
    scale = 1.0 / math.sqrt(D // heads)
    wgt = q @ k.swapaxes(-1, -2)
    wgt *= scale
    # an exact row max, faster over the leading axis of a contiguous copy
    row_max = np.ascontiguousarray(np.moveaxis(wgt, -1, 0)).max(axis=0)
    wgt -= row_max[..., None]
    np.exp(wgt, out=wgt)
    wgt /= wgt.sum(axis=-1, keepdims=True)                  # (B, h, M, Mk)
    ctx = np.empty((B, M, D), wgt.dtype)
    np.matmul(wgt, v, out=_heads(ctx, heads))
    y = ctx @ p.wo.data
    y += p.bo.data
    y += x.data

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
        ga = [(gy @ w.T).reshape(a.shape) for (a, w, _), gy in zip(projs, gys)]
        gw = [a.reshape(-1, D).T @ gy for (a, _, _), gy in zip(projs, gys)]
        gw = np.split(np.concatenate(gw, axis=1), 3, axis=1)
        gb = np.split(np.concatenate([gy.sum(axis=0) for gy in gys]), 3)
        gx, ggain, gbias = _norm_vjp(ga[0], xhat, inv, gain.data)
        gx += g
        return (gx, ggain, gbias, *ga[1:], gw[0], gb[0], gw[1], gb[1],
                gw[2], gb[2], ctx.reshape(-1, D).T @ g2, g2.sum(axis=0))

    kv_parent = () if kv is None else (kv,)
    out = Tensor._make(y, (x, gain, bias, *kv_parent, p.wq, p.bq, p.wk, p.bk,
                           p.wv, p.bv, p.wo, p.bo), vjp)
    if return_weights:
        return out, wgt.copy()
    return out


def encoder_block(tokens: Tensor, block: EncoderBlockParams,
                  heads: int) -> Tensor:
    """Pre-norm transformer block over (B, M, D) tokens: MHSA then MLP, each
    with a residual, one tape node each."""
    zm = attention(tokens, block.ln1_gain, block.ln1_bias, block.attn, heads)
    return mlp(zm, block.ln2_gain, block.ln2_bias, block.mlp_w1,
               block.mlp_b1, block.mlp_w2, block.mlp_b2)


def encode(image: np.ndarray, embedding: EmbeddingParams,
           blocks: list[EncoderBlockParams], heads: int,
           patch_size: int) -> Tensor:
    """Full encoder: embed then the block stack. Returns (B, N+1, D)."""
    x = embed(image, embedding, patch_size)
    for block in blocks:
        x = encoder_block(x, block, heads)
    return x

import numpy as np
import numpy.testing as npt
import pytest

from conftest import rand_image, toy_config, toy_model, unpatchify
from panelqa import config
from panelqa import encoder as enc
from panelqa.encoder import ModelConfig
from panelqa.tensor import (Rng, ShapeError, Tensor, _unbroadcast, grad_check,
                            layer_norm, matmul, softmax_lastdim)


def naive_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def naive_attention(q_in, kv_in, p, heads):
    """Per-head explicit-loop multi-head attention oracle on (M, D) arrays."""
    M, D = q_in.shape
    Mk = kv_in.shape[0]
    d = D // heads
    q = q_in @ p.wq.data + p.bq.data
    k = kv_in @ p.wk.data + p.bk.data
    v = kv_in @ p.wv.data + p.bv.data
    ctx = np.zeros((M, D))
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(M):
            scores = np.array([qh[i] @ kh[j] / np.sqrt(d) for j in range(Mk)])
            w = naive_softmax(scores)
            ctx[i, sl] = sum(w[j] * vh[j] for j in range(Mk))
    return ctx @ p.wo.data + p.bo.data


def naive_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    return (x - mu) / sd * gain + bias


def naive_residual_attention(x, block, heads):
    """``x + MHA(LN(x), LN(x))`` of an encoder block on (M, D) arrays."""
    normed = naive_layer_norm(x, block.ln1_gain.data, block.ln1_bias.data)
    return naive_attention(normed, normed, block.attn, heads) + x


def self_attention(x, block, heads, **kwargs):
    """`attention` of an encoder block's first half."""
    return enc.attention(x, block.ln1_gain, block.ln1_bias, block.attn, heads,
                         **kwargs)


def transpose(x, *axes):
    """An axis permutation as a tape node. The package has none: only the
    composed attention below needs one."""
    inv = np.argsort(axes)
    return Tensor._make(np.ascontiguousarray(x.data.transpose(axes)),
                        (x,), lambda g: (g.transpose(inv),))


def batched_matmul(a, b):
    """A product of two batched tensors as a tape node, with numpy batch
    broadcasting; the package's `matmul` takes a 2-D weight only."""

    def vjp(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._make(a.data @ b.data, (a, b), vjp)


def composed_attention(q_in, kv_in, p, heads):
    """Multi-head attention composed of tape ops, as `attention` was before
    it became one node; returns the output tensor and the weights."""
    B, M, D = q_in.shape
    Mk = kv_in.shape[1]
    d = D // heads

    def split_heads(x, m):
        return transpose(x.reshape((B, m, heads, d)), 0, 2, 1, 3)

    q = split_heads(matmul(q_in, p.wq) + p.bq, M)
    k = split_heads(matmul(kv_in, p.wk) + p.bk, Mk)
    v = split_heads(matmul(kv_in, p.wv) + p.bv, Mk)
    scale = Tensor(np.asarray(1.0 / np.sqrt(d), q_in.dtype))
    scores = batched_matmul(q, transpose(k, 0, 1, 3, 2)) * scale
    weights = softmax_lastdim(scores)
    ctx = transpose(batched_matmul(weights, v), 0, 2, 1, 3).reshape((B, M, D))
    return matmul(ctx, p.wo) + p.bo, weights.data


def random_attention(seed, dtype):
    """Toy attention parameters with non-zero biases."""
    p = enc.init_params(enc.AttentionParams, toy_config(), Rng(seed))
    rng = Rng((seed, "shift"))
    for t in vars(p).values():
        t.data = t.data.astype(dtype)
        t.data += rng.normal(t.shape, std=0.3, dtype=dtype)
    return p


def random_norm(seed, dtype):
    """Layer-norm gain and bias away from one and zero."""
    rng = Rng((seed, "norm"))
    return (Tensor(1.0 + rng.normal((16,), std=0.3, dtype=dtype),
                   requires_grad=True),
            Tensor(rng.normal((16,), std=0.3, dtype=dtype),
                   requires_grad=True))


def zero_out_projections(model):
    """Zero every residual-branch output so encoder blocks become identity."""
    for block in model.enc_blocks:
        for t in (block.attn.wo, block.attn.bo, block.mlp_w2, block.mlp_b2):
            t.data[...] = 0.0


class TestModelConfig:
    def test_paper_scale_defaults(self):
        cfg = ModelConfig()
        assert (cfg.patch_size, cfg.token_dim, cfg.heads) == (16, 384, 6)
        assert (cfg.encoder_depth, cfg.decoder_depth, cfg.panel_size) == (12, 1, 6)
        assert cfg.crop_hw == 224
        assert cfg.num_patches == 196

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            toy_config(token_dim=15)

    def test_patch_must_divide_crop(self):
        with pytest.raises(ValueError):
            toy_config(crop_hw=13)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            toy_config(variant="bogus")

    def test_zero_width_mlp_rejected(self):
        # round(0.01 * 16) is 0: a model with a zero-width MLP has no
        # gradient to take, so the config names both keys instead
        with pytest.raises(ValueError,
                           match="mlp_ratio 0.01 x token_dim 16 .* width of 0"):
            toy_config(mlp_ratio=0.01)
        assert toy_config(mlp_ratio=0.04).mlp_dim == 1

    def test_roundtrip_dict(self):
        cfg = toy_config()
        values = config.parse(config.write(cfg), config.keys(ModelConfig), "")
        assert ModelConfig(**values) == cfg


class TestPatchify:
    def test_paper_scale_shape(self):
        img = np.zeros((1, 3, 224, 224))
        assert enc.patchify(img, 16).shape == (1, 196, 768)

    def test_single_patch_is_flattened_image(self):
        rng = Rng(1)
        img = rng.uniform((3, 16, 16))
        out = enc.patchify(img[None], 16)[0]
        npt.assert_array_equal(out, img.reshape(1, -1))

    def test_round_trip(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        patches = enc.patchify(img[None], 2)[0]
        assert patches.shape == (4, 4)
        npt.assert_array_equal(unpatchify(patches, 2, 1, 4), img)

    def test_result_is_row_major(self):
        # the projection GEMM reads the patches in row-major layout
        assert enc.patchify(Rng(1).uniform((2, 3, 8, 8)), 4).flags.c_contiguous

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            enc.patchify(np.zeros((1, 3, 10, 10)), 4)

    def test_single_image_rejected(self):
        with pytest.raises(ShapeError, match="expects"):
            enc.patchify(np.zeros((3, 12, 12)), 4)


class TestEmbed:
    def test_zero_everything(self, cfg):
        model = toy_model()
        emb = model.embedding
        emb.pos_embed.data[...] = 0
        emb.patch_proj_b.data[...] = 0
        emb.cls_token.data[...] = 0
        out = enc.embed(np.zeros((1, 3, 12, 12)), emb, 4).data[0]
        # rows 1..N are the (zero) projection bias; row 0 the (zero) CLS
        npt.assert_array_equal(out, np.zeros((10, 16)))

    def test_shape_contract(self, model):
        out = enc.embed(rand_image(model.config, Rng(2)).data[None],
                        model.embedding, 4)
        assert out.shape == (1, 10, 16)

    def test_channel_mismatch_names_both_counts(self, model):
        # a 1-channel image whose side is divisible by the patch size
        gray = np.zeros((1, 1, 12, 12))
        with pytest.raises(ShapeError, match="1 channels.*expects 3"):
            enc.embed(gray, model.embedding, model.config.patch_size)

    def test_patch_permutation_permutes_rows(self, model):
        emb = model.embedding
        emb.pos_embed.data[...] = 0
        rng = Rng(3)
        img = rand_image(model.config, rng).data
        patches = enc.patchify(img[None], 4)[0]
        perm = rng.permutation(9)
        img2 = unpatchify(patches[perm], 4, 3, 12)
        a = enc.embed(img[None], emb, 4).data[0]
        b = enc.embed(img2[None], emb, 4).data[0]
        npt.assert_allclose(b[0], a[0], atol=1e-12)
        npt.assert_allclose(b[1:], a[1:][perm], atol=1e-12)


class TestMhsa:
    def test_single_token(self, model):
        p = model.config
        block = model.enc_blocks[0]
        x = Rng(4).normal((1, p.token_dim))
        out = self_attention(Tensor(x[None]), block, p.heads).data[0]
        npt.assert_allclose(out, naive_residual_attention(x, block, p.heads),
                            atol=1e-12)

    def test_identical_rows_identical_outputs(self, model):
        p = model.config
        block = model.enc_blocks[0]
        row = Rng(5).normal((1, p.token_dim))
        x = np.repeat(row, 5, axis=0)
        out = self_attention(Tensor(x[None]), block, p.heads).data[0]
        npt.assert_allclose(out, np.repeat(out[:1], 5, axis=0), atol=1e-12)

    def test_vs_naive_oracle_20_seeds(self, model):
        p = model.config
        block = model.enc_blocks[0]
        for seed in range(20):
            x = Rng(seed).normal((6, p.token_dim))
            got = self_attention(Tensor(x[None]), block, p.heads).data[0]
            want = naive_residual_attention(x, block, p.heads)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_attention_rows_sum_to_one(self, model):
        p = model.config
        x = Tensor(Rng(6).normal((1, 7, p.token_dim)))
        _, w = self_attention(x, model.enc_blocks[0], p.heads,
                              return_weights=True)
        npt.assert_allclose(w.sum(axis=-1), np.ones((1, p.heads, 7)),
                            atol=1e-6)


class TestFusedAttention:
    """`attention` is one tape node with a hand-written vjp; it must agree
    with the composed ops it replaced, ``x + attention(layer_norm(x), kv)``,
    self and cross, values and every gradient."""

    @pytest.mark.parametrize("dtype,atol,rtol", [(np.float64, 1e-12, 0.0),
                                                 (np.float32, 1e-5, 1e-4)])
    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_composed_reference(self, cross, dtype, atol, rtol):
        results = []
        for fused in (True, False):
            p = random_attention(20, dtype)
            gain, bias = random_norm(20, dtype)
            rng = Rng(21)
            x = Tensor(rng.normal((3, 5, 16), dtype=dtype), requires_grad=True)
            kv = (Tensor(rng.normal((3, 7, 16), dtype=dtype),
                         requires_grad=True) if cross else None)
            if fused:
                out, w = enc.attention(x, gain, bias, p, 2, kv=kv,
                                       return_weights=True)
            else:
                h = layer_norm(x, gain, bias)
                out, w = composed_attention(h, h if kv is None else kv, p, 2)
                out = out + x
            upstream = Tensor(rng.normal(out.shape, dtype=dtype))
            (out * upstream).sum().backward()
            grads = [t.grad for t in vars(p).values()]
            results.append([out.data, w, x.grad, gain.grad, bias.grad]
                           + ([kv.grad] if cross else []) + grads)
        assert results[0][1].shape == (3, 2, 5, 7 if cross else 5)
        for got, want in zip(*results):
            assert got.dtype == dtype
            npt.assert_allclose(got, want, atol=atol, rtol=rtol)

    def test_returned_weights_are_a_copy(self):
        # writing to the returned weights leaves the backward pass alone
        p = random_attention(22, np.float64)
        gain, bias = random_norm(22, np.float64)
        x = Tensor(Rng(23).normal((1, 4, 16)), requires_grad=True)
        grads = []
        for scribble in (False, True):
            x.zero_grad()
            out, w = enc.attention(x, gain, bias, p, 2, return_weights=True)
            if scribble:
                w[...] = 0.0
            out.sum().backward()
            grads.append(x.grad)
        npt.assert_array_equal(grads[0], grads[1])

    def test_unbatched_or_mismatched_rejected(self):
        p = random_attention(24, np.float64)
        gain, bias = random_norm(24, np.float64)
        with pytest.raises(ShapeError, match="B, M, D"):
            enc.attention(Tensor(np.zeros((4, 16))), gain, bias, p, 2)
        with pytest.raises(ShapeError, match="B, Mk, D"):
            enc.attention(Tensor(np.zeros((2, 4, 16))), gain, bias, p, 2,
                          kv=Tensor(np.zeros((1, 5, 16))))

    @pytest.mark.parametrize("cross", [False, True])
    def test_grad_check(self, cross):
        p = random_attention(25, np.float64)
        gain, bias = random_norm(25, np.float64)
        rng = Rng(26)
        x = Tensor(rng.normal((2, 4, 16)) * 0.5, requires_grad=True)
        kv = (Tensor(rng.normal((2, 5, 16)) * 0.5, requires_grad=True)
              if cross else None)
        upstream = Tensor(rng.normal((2, 4, 16)))
        # softmax ignores a shift shared by a row's scores, so bk's gradient
        # is zero and its finite differences are rounding noise
        params = {k: t for k, t in vars(p).items() if k != "bk"}
        params.update(x=x, gain=gain, bias=bias)
        if cross:
            params["kv"] = kv

        def f():
            return (enc.attention(x, gain, bias, p, 2, kv=kv)
                    * upstream).sum()

        # the same bound as the mhsa check of TestEncoderBlock
        assert grad_check(f, params, eps=1e-4) <= 1e-5
        assert np.abs(p.bk.grad).max() <= 1e-12


class TestEncoderBlock:
    def test_zeroed_projections_identity(self, model):
        zero_out_projections(model)
        x = Rng(7).normal((5, 16))
        out = enc.encoder_block(Tensor(x[None]), model.enc_blocks[0],
                                model.config.heads).data[0]
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_shape_preserved(self, model):
        x = Tensor(Rng(8).normal((2, 10, 16)))
        out = enc.encoder_block(x, model.enc_blocks[0], model.config.heads)
        assert out.shape == (2, 10, 16)

    def test_mhsa_grad_check(self, model):
        # single self-attention block, random 8-token input, eps 1e-4
        block = model.enc_blocks[0]
        x = Tensor(Rng(9).normal((8, 16))[None] * 0.5)
        params = dict(vars(block.attn))
        minus_x = Tensor(-x.data)

        def f():
            # the attention branch alone: the residual would swamp the loss
            out = self_attention(x, block, model.config.heads) + minus_x
            return (out * out).mean()

        assert grad_check(f, params, eps=1e-4) <= 1e-5

    def test_block_grad_check(self, model):
        block = model.enc_blocks[0]
        x = Tensor(Rng(9).normal((8, 16))[None] * 0.5)
        params = {"ln1_g": block.ln1_gain, "ln1_b": block.ln1_bias,
                  "wq": block.attn.wq, "bq": block.attn.bq,
                  "wk": block.attn.wk, "wv": block.attn.wv,
                  "wo": block.attn.wo, "mlp_w1": block.mlp_w1,
                  "mlp_w2": block.mlp_w2}

        def f():
            out = enc.encoder_block(x, block, model.config.heads)
            return (out * out).mean()

        # near-zero-gradient elements dominate the relative metric here;
        # absolute agreement is ~1e-9 (see the mhsa-only check for 1e-5)
        assert grad_check(f, params, eps=1e-4) <= 5e-5


class TestEncode:
    def test_toy_shape(self, model):
        img = rand_image(model.config, Rng(10)).data[None]
        z = enc.encode(img, model.embedding, model.enc_blocks,
                       model.config.heads, 4)
        assert z.shape == (1, 10, 16)

    def test_cls_invariant_under_patch_permutation_with_zero_pos(self, model):
        model.embedding.pos_embed.data[...] = 0
        rng = Rng(11)
        img = rand_image(model.config, rng).data
        patches = enc.patchify(img[None], 4)[0]

        def cls_of(im):
            return enc.encode(im[None], model.embedding, model.enc_blocks,
                              model.config.heads, 4).data[0, 0]

        base = cls_of(img)
        perm = rng.permutation(9)
        permuted = unpatchify(patches[perm], 4, 3, 12)
        assert np.max(np.abs(cls_of(permuted) - base)) <= 1e-5

    def test_nonzero_pos_breaks_invariance(self, model):
        rng = Rng(12)
        img = rand_image(model.config, rng).data
        patches = enc.patchify(img[None], 4)[0]
        perm = rng.permutation(9)
        permuted = unpatchify(patches[perm], 4, 3, 12)

        def cls_of(im):
            return enc.encode(im[None], model.embedding, model.enc_blocks,
                              model.config.heads, 4).data[0, 0]

        assert np.max(np.abs(cls_of(permuted) - cls_of(img))) > 1e-5

    def test_determinism(self, model):
        img = rand_image(model.config, Rng(13)).data[None]
        a = enc.encode(img, model.embedding, model.enc_blocks,
                       model.config.heads, 4)
        b = enc.encode(img, model.embedding, model.enc_blocks,
                       model.config.heads, 4)
        npt.assert_array_equal(a.data, b.data)

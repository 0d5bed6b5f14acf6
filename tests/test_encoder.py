import numpy as np
import numpy.testing as npt
import pytest

from conftest import rand_image, toy_config, toy_model
from panelqa import config
from panelqa import encoder as enc
from panelqa.encoder import ModelConfig
from panelqa.tensor import Rng, ShapeError, Tensor, grad_check


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
        assert cfg.head_dim == 64

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            toy_config(token_dim=15)

    def test_patch_must_divide_crop(self):
        with pytest.raises(ValueError):
            toy_config(crop_hw=13)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            toy_config(variant="bogus")

    def test_roundtrip_dict(self):
        cfg = toy_config()
        values = config.parse(config.write(cfg), config.keys(ModelConfig), "")
        assert ModelConfig(**values) == cfg


class TestPatchify:
    def test_paper_scale_shape(self):
        img = Tensor(np.zeros((3, 224, 224)))
        assert enc.patchify(img, 16).shape == (196, 768)

    def test_single_patch_is_flattened_image(self):
        rng = Rng(1)
        img = rng.uniform((3, 16, 16))
        out = enc.patchify(Tensor(img), 16).data
        npt.assert_array_equal(out, img.reshape(1, -1))

    def test_round_trip(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        patches = enc.patchify(Tensor(img), 2).data
        assert patches.shape == (4, 4)
        npt.assert_array_equal(enc.unpatchify(patches, 2, 1, 4), img)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            enc.patchify(Tensor(np.zeros((3, 10, 10))), 4)


class TestEmbed:
    def test_zero_everything(self, cfg):
        model = toy_model()
        emb = model.embedding
        emb.pos_embed.data[...] = 0
        emb.patch_proj_b.data[...] = 0
        emb.cls_token.data[...] = 0
        out = enc.embed(Tensor(np.zeros((3, 12, 12))), emb).data[0]
        # rows 1..N are the (zero) projection bias; row 0 the (zero) CLS
        npt.assert_array_equal(out, np.zeros((10, 16)))

    def test_shape_contract(self, model):
        out = enc.embed(rand_image(model.config, Rng(2)), model.embedding)
        assert out.shape == (1, 10, 16)

    def test_patch_permutation_permutes_rows(self, model):
        emb = model.embedding
        emb.pos_embed.data[...] = 0
        rng = Rng(3)
        img = rand_image(model.config, rng)
        patches = enc.patchify(img, 4).data
        perm = rng.permutation(9)
        img2 = enc.unpatchify(patches[perm], 4, 3, 12)
        a = enc.embed(img, emb).data[0]
        b = enc.embed(Tensor(img2), emb).data[0]
        npt.assert_allclose(b[0], a[0], atol=1e-12)
        npt.assert_allclose(b[1:], a[1:][perm], atol=1e-12)


class TestMhsa:
    def test_single_token(self, model):
        p = model.config
        block = model.enc_blocks[0].attn
        x = Rng(4).normal((1, p.token_dim))
        out = enc.mhsa(Tensor(x), block, p.heads).data
        npt.assert_allclose(out, naive_attention(x, x, block, p.heads),
                            atol=1e-12)

    def test_identical_rows_identical_outputs(self, model):
        p = model.config
        block = model.enc_blocks[0].attn
        row = Rng(5).normal((1, p.token_dim))
        x = np.repeat(row, 5, axis=0)
        out = enc.mhsa(Tensor(x), block, p.heads).data
        npt.assert_allclose(out, np.repeat(out[:1], 5, axis=0), atol=1e-12)

    def test_vs_naive_oracle_20_seeds(self, model):
        p = model.config
        block = model.enc_blocks[0].attn
        for seed in range(20):
            x = Rng(seed).normal((6, p.token_dim))
            got = enc.mhsa(Tensor(x), block, p.heads).data
            want = naive_attention(x, x, block, p.heads)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_attention_rows_sum_to_one(self, model):
        p = model.config
        x = Tensor(Rng(6).normal((1, 7, p.token_dim)))
        _, w = enc.attention(x, x, model.enc_blocks[0].attn, p.heads,
                             return_weights=True)
        npt.assert_allclose(w.sum(axis=-1), np.ones((1, p.heads, 7)),
                            atol=1e-6)


class TestEncoderBlock:
    def test_zeroed_projections_identity(self, model):
        zero_out_projections(model)
        x = Rng(7).normal((5, 16))
        out = enc.encoder_block(Tensor(x), model.enc_blocks[0],
                                model.config.heads).data
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_shape_preserved(self, model):
        x = Tensor(Rng(8).normal((2, 10, 16)))
        out = enc.encoder_block(x, model.enc_blocks[0], model.config.heads)
        assert out.shape == (2, 10, 16)

    def test_mhsa_grad_check(self, model):
        # single self-attention block, random 8-token input, eps 1e-4
        block = model.enc_blocks[0].attn
        x = Tensor(Rng(9).normal((8, 16)) * 0.5)
        params = {"wq": block.wq, "bq": block.bq, "wk": block.wk,
                  "bk": block.bk, "wv": block.wv, "bv": block.bv,
                  "wo": block.wo, "bo": block.bo}

        def f():
            out = enc.mhsa(x, block, model.config.heads)
            return (out * out).mean()

        assert grad_check(f, params, eps=1e-4) <= 1e-5

    def test_block_grad_check(self, model):
        block = model.enc_blocks[0]
        x = Tensor(Rng(9).normal((8, 16)) * 0.5)
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
        z = enc.encode(rand_image(model.config, Rng(10)), model.embedding,
                       model.enc_blocks, model.config.heads)
        assert z.shape == (1, 10, 16)

    def test_cls_invariant_under_patch_permutation_with_zero_pos(self, model):
        model.embedding.pos_embed.data[...] = 0
        rng = Rng(11)
        img = rand_image(model.config, rng)
        patches = enc.patchify(img, 4).data

        def cls_of(im):
            return enc.encode(im, model.embedding, model.enc_blocks,
                              model.config.heads).data[0, 0]

        base = cls_of(img)
        perm = rng.permutation(9)
        permuted = Tensor(enc.unpatchify(patches[perm], 4, 3, 12))
        assert np.max(np.abs(cls_of(permuted) - base)) <= 1e-5

    def test_nonzero_pos_breaks_invariance(self, model):
        rng = Rng(12)
        img = rand_image(model.config, rng)
        patches = enc.patchify(img, 4).data
        perm = rng.permutation(9)
        permuted = Tensor(enc.unpatchify(patches[perm], 4, 3, 12))

        def cls_of(im):
            return enc.encode(im, model.embedding, model.enc_blocks,
                              model.config.heads).data[0, 0]

        assert np.max(np.abs(cls_of(permuted) - cls_of(img))) > 1e-5

    def test_determinism(self, model):
        img = rand_image(model.config, Rng(13))
        a = enc.encode(img, model.embedding, model.enc_blocks, model.config.heads)
        b = enc.encode(img, model.embedding, model.enc_blocks, model.config.heads)
        npt.assert_array_equal(a.data, b.data)

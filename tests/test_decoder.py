import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from conftest import batched, rand_image, toy_config, toy_model
from panelqa import decoder as dec
from panelqa import encoder as enc
from panelqa import model as mdl
from panelqa.tensor import Rng, ShapeError, Tensor, grad_check
from test_encoder import naive_attention


class TestPanelInputs:
    def test_zero_panel(self):
        t = Tensor(Rng(0).normal((1, 16)))
        out = dec.panel_inputs(t, Tensor(np.zeros((3, 16))))
        npt.assert_array_equal(out.data, np.repeat(t.data, 3, axis=0))

    def test_single_member(self):
        t = Tensor(Rng(1).normal((1, 16)))
        j = Tensor(Rng(2).normal((1, 16)))
        npt.assert_array_equal(dec.panel_inputs(t, j).data, t.data + j.data)

    def test_zero_cls_returns_panel(self):
        j = Tensor(Rng(3).normal((4, 16)))
        out = dec.panel_inputs(Tensor(np.zeros((1, 16))), j)
        npt.assert_array_equal(out.data, j.data)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            dec.panel_inputs(Tensor(np.zeros((1, 8))), Tensor(np.zeros((3, 16))))


class TestMakeQueries:
    def test_identical_rows_stay_identical(self, model):
        row = Rng(4).normal((1, 16))
        x = Tensor(np.repeat(row, 3, axis=0)[None])
        out = dec.make_queries(x, model.query_block, model.config.heads).data[0]
        npt.assert_allclose(out, np.repeat(out[:1], 3, axis=0), atol=1e-12)

    def test_zeroed_projection_is_residual_only(self, model):
        qb = model.query_block
        qb.attn.wo.data[...] = 0
        qb.attn.bo.data[...] = 0
        x = Rng(5).normal((3, 16))
        out = dec.make_queries(Tensor(x[None]), qb, model.config.heads).data[0]
        npt.assert_allclose(out, x, atol=1e-12)

    def test_vs_naive_oracle_20_seeds(self, model):
        qb = model.query_block
        heads = model.config.heads
        for seed in range(20):
            x = Rng(100 + seed).normal((3, 16))
            got = dec.make_queries(Tensor(x[None]), qb, heads).data[0]
            normed = _naive_layer_norm(x, qb.ln_gain.data, qb.ln_bias.data)
            want = naive_attention(normed, normed, qb.attn, heads) + x
            assert np.max(np.abs(got - want)) <= 1e-10


def _naive_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    return (x - mu) / sd * gain + bias


def _naive_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))


class TestCrossAttend:
    def test_degenerate_keys(self, model):
        cb = model.cross_blocks[0]
        heads = model.config.heads
        rng = Rng(6)
        qrow = rng.normal((1, 16))
        q = Tensor(np.repeat(qrow, 3, axis=0)[None])
        kv = Tensor(np.repeat(rng.normal((1, 16)), 9, axis=0)[None])
        out, w = dec.cross_attend(q, kv, cb, heads)
        npt.assert_allclose(out.data[0], np.repeat(out.data[0, :1], 3, axis=0),
                            atol=1e-12)

    def test_weight_rows_sum_to_one(self, model):
        cb = model.cross_blocks[0]
        rng = Rng(7)
        q = Tensor(rng.normal((3, 16))[None])
        kv = Tensor(rng.normal((9, 16))[None])
        _, w = dec.cross_attend(q, kv, cb, model.config.heads)
        assert w.shape == (1, model.config.heads, 3, 9)
        npt.assert_allclose(w[0].sum(axis=-1), np.ones((2, 3)), atol=1e-6)

    def test_vs_naive_oracle_20_seeds(self, model):
        cb = model.cross_blocks[0]
        heads = model.config.heads
        for seed in range(20):
            rng = Rng(200 + seed)
            q = rng.normal((3, 16))
            kv = rng.normal((9, 16))
            got, _ = dec.cross_attend(Tensor(q[None]), Tensor(kv[None]), cb,
                                      heads)
            mid = naive_attention(
                _naive_layer_norm(q, cb.lnq_gain.data, cb.lnq_bias.data),
                kv, cb.attn, heads) + q
            h = _naive_gelu(mid @ cb.mlp_w1.data + cb.mlp_b1.data)
            want = h @ cb.mlp_w2.data + cb.mlp_b2.data
            assert np.max(np.abs(got.data[0] - want)) <= 1e-10

    def test_empty_patches_rejected(self, model):
        with pytest.raises(ValueError):
            dec.cross_attend(Tensor(np.zeros((1, 3, 16))),
                             Tensor(np.zeros((1, 0, 16))),
                             model.cross_blocks[0], model.config.heads)


class TestPredict:
    def test_score_is_mean_of_panel(self, model):
        img = rand_image(model.config, Rng(8))
        pred = mdl.predict(model, img)
        assert abs(pred.score - pred.panel_scores.mean()) <= 1e-6
        assert pred.panel_scores.shape == (3,)
        assert pred.quality_embeddings.shape == (3, 16)

    def test_batch_rejected(self, model):
        img = batched(rand_image(model.config, Rng(8)))
        with pytest.raises(ShapeError, match=r"\(C, H, W\) image"):
            mdl.predict(model, img)

    def test_zero_panel_scores_coincide(self, model):
        model.panel.data[...] = 0
        pred = mdl.predict(model, rand_image(model.config, Rng(9)))
        spread = pred.panel_scores.max() - pred.panel_scores.min()
        assert spread <= 1e-6
        assert abs(pred.score - pred.panel_scores[0]) <= 1e-6

    def test_single_member_zero_panel_reduces_to_cls_decoder(self):
        full = toy_model(seed=3, panel_size=1)
        full.panel.data[...] = 0
        cls_model = dataclasses.replace(
            full,
            config=dataclasses.replace(full.config,
                                       variant="decoder_cls_queries"),
            panel=None)
        img = rand_image(full.config, Rng(10))
        a = mdl.predict(full, img)
        b = mdl.predict(cls_model, img)
        assert a.score == b.score

    def test_panel_permutation_permutes_scores(self, model):
        img = rand_image(model.config, Rng(11))
        base = mdl.predict(model, img)
        perm = np.array([2, 0, 1])
        model.panel.data[...] = model.panel.data[perm]
        permuted = mdl.predict(model, img)
        npt.assert_allclose(permuted.panel_scores, base.panel_scores[perm],
                            atol=1e-12)
        assert abs(permuted.score - base.score) <= 1e-12

    def test_patch_permutation_invariance_zero_pos(self, model):
        model.embedding.pos_embed.data[...] = 0
        rng = Rng(12)
        img = rand_image(model.config, rng)
        patches = enc.patchify(batched(img), 4).data[0]
        base = mdl.predict(model, img).score
        for _ in range(3):
            perm = rng.permutation(9)
            img2 = Tensor(enc.unpatchify(patches[perm], 4, 3, 12))
            assert abs(mdl.predict(model, img2).score - base) <= 1e-5

    def test_decoder_weight_maps_exported(self, model):
        pred = mdl.predict(model, rand_image(model.config, Rng(13)))
        assert len(pred.attn_maps) == 1
        assert pred.attn_maps[0].shape == (2, 3, 9)
        npt.assert_allclose(pred.attn_maps[0].sum(axis=-1),
                            np.ones((2, 3)), atol=1e-6)


class TestTapeNodes:
    def test_criterion7_forward_panel_node_count(self, monkeypatch):
        # each attention and each affine map (with its bias) is one node
        cfg = toy_config(patch_size=4, token_dim=64, heads=4, encoder_depth=4,
                         decoder_depth=1, panel_size=6, mlp_ratio=4.0,
                         crop_hw=16)
        model = mdl.init_model(cfg, Rng(0), dtype=np.float32)
        made = []
        make = Tensor._make

        def counting(*args, **kwargs):
            made.append(args[3])
            return make(*args, **kwargs)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        mdl.forward_panel(model, Tensor(np.zeros((2, 3, 16, 16), np.float32)))
        assert len(made) == 54
        assert made.count("attention") == 4 + 1 + 1


class TestVariants:
    @pytest.mark.parametrize("variant,n_scores", [
        ("encoder_only", 1),
        ("panel_no_decoder", 3),
        ("decoder_random_queries", 3),
        ("decoder_cls_queries", 1),
        ("full", 3),
    ])
    def test_score_counts(self, variant, n_scores):
        model = toy_model(seed=1, variant=variant)
        pred = mdl.predict(model, rand_image(model.config, Rng(14)))
        assert pred.panel_scores.shape == (n_scores,)
        assert np.isfinite(pred.score)

    def test_random_queries_ignore_image_content_mixing(self):
        # the random-query variant has no CLS pathway into the decoder input
        model = toy_model(seed=2, variant="decoder_random_queries")
        assert model.panel is None
        assert model.random_queries is not None

    def test_parameter_sets_differ_by_variant(self):
        full = set(toy_model(seed=0).named_parameters())
        vit = set(toy_model(seed=0, variant="encoder_only").named_parameters())
        assert "panel" in full and "panel" not in vit
        assert not any(k.startswith("cross_blocks") for k in vit)


class TestInputDtype:
    @pytest.mark.parametrize("variant", enc.VARIANTS)
    def test_float64_image_scored_in_model_dtype(self, variant):
        """The forward casts images to the model dtype; a caller need not."""
        model = mdl.init_model(toy_config(variant=variant), Rng(5),
                               dtype=np.float32)
        img = rand_image(model.config, Rng(16))
        cast = Tensor(img.data.astype(np.float32))
        want = mdl.forward_panel(model, batched(cast))
        got = mdl.forward_panel(model, batched(img))
        assert got[0].dtype == np.float32
        npt.assert_array_equal(got[0].data, want[0].data)
        for g, w in zip(got[2], want[2]):
            assert g.dtype == np.float32
            npt.assert_array_equal(g, w)
        pred, pred_cast = mdl.predict(model, img), mdl.predict(model, cast)
        assert pred.panel_scores.dtype == np.float32
        npt.assert_array_equal(pred.panel_scores, pred_cast.panel_scores)
        assert pred.score == pred_cast.score
        for g, w in zip(pred.attn_maps, pred_cast.attn_maps):
            assert g.dtype == np.float32
            npt.assert_array_equal(g, w)


class TestDeepDecoder:
    def test_depth_two_chains_cross_blocks(self):
        model = toy_model(seed=4, decoder_depth=2)
        assert len(model.cross_blocks) == 2
        pred = mdl.predict(model, rand_image(model.config, Rng(15)))
        assert len(pred.attn_maps) == 2
        assert np.isfinite(pred.score)


class TestDecoderGradients:
    def test_decoder_params_grad_check(self, model):
        img = rand_image(model.config, Rng(16))
        params = {k: v for k, v in model.named_parameters().items()
                  if k == "panel" or k.startswith(("query_block", "head"))}

        def f():
            batch = img.reshape((1,) + img.shape)
            diff = mdl.forward_scores(model, batch) + (-0.7)
            return (diff * diff).sum()

        assert grad_check(f, params, eps=1e-4) <= 1e-4

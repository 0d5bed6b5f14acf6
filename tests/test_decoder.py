import dataclasses
import re
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from conftest import batched, rand_image, toy_config, toy_model, unpatchify
from panelqa import decoder as dec
from panelqa import encoder as enc
from panelqa import model as mdl
from panelqa.tensor import Rng, ShapeError, Tensor, grad_check
from test_encoder import naive_attention, naive_layer_norm


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
            normed = naive_layer_norm(x, qb.ln_gain.data, qb.ln_bias.data)
            want = naive_attention(normed, normed, qb.attn, heads) + x
            assert np.max(np.abs(got - want)) <= 1e-10


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
                naive_layer_norm(q, cb.ln1_gain.data, cb.ln1_bias.data),
                kv, cb.attn, heads) + q
            normed = naive_layer_norm(mid, cb.ln2_gain.data, cb.ln2_bias.data)
            h = _naive_gelu(normed @ cb.mlp_w1.data + cb.mlp_b1.data)
            want = mid + h @ cb.mlp_w2.data + cb.mlp_b2.data
            assert np.max(np.abs(got.data[0] - want)) <= 1e-10

    def test_zeroed_projections_are_residual_only(self, model):
        # both halves add their input back
        cb = model.cross_blocks[0]
        for w in (cb.attn.wo, cb.attn.bo, cb.mlp_w2, cb.mlp_b2):
            w.data[...] = 0
        rng = Rng(8)
        q = rng.normal((3, 16))
        out, _ = dec.cross_attend(Tensor(q[None]),
                                  Tensor(rng.normal((9, 16))[None]), cb,
                                  model.config.heads)
        npt.assert_array_equal(out.data[0], q)

    def test_is_an_encoder_block_over_given_keys(self, model):
        # with the normed queries as keys and values, a decoder layer is the
        # encoder block of its parameters
        cb = model.cross_blocks[0]
        x = Tensor(Rng(9).normal((2, 5, 16)))
        normed = naive_layer_norm(x.data, cb.ln1_gain.data, cb.ln1_bias.data)
        got, _ = dec.cross_attend(x, Tensor(normed), cb, model.config.heads)
        want = enc.encoder_block(x, cb, model.config.heads)
        npt.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

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
        patches = enc.patchify(img.data[None], 4)[0]
        base = mdl.predict(model, img).score
        for _ in range(3):
            perm = rng.permutation(9)
            img2 = Tensor(unpatchify(patches[perm], 4, 3, 12))
            assert abs(mdl.predict(model, img2).score - base) <= 1e-5

    def test_decoder_weight_maps_exported(self, model):
        pred = mdl.predict(model, rand_image(model.config, Rng(13)))
        assert len(pred.attn_maps) == 1
        assert pred.attn_maps[0].shape == (2, 3, 9)
        npt.assert_allclose(pred.attn_maps[0].sum(axis=-1),
                            np.ones((2, 3)), atol=1e-6)


class TestTapeNodes:
    def test_criterion7_forward_panel_node_count(self, monkeypatch):
        # each pre-norm residual half, each affine map (with its bias) and
        # each GELU is one node
        cfg = toy_config(patch_size=4, token_dim=64, heads=4, encoder_depth=4,
                         decoder_depth=1, panel_size=6, mlp_ratio=4.0,
                         crop_hw=16)
        model = mdl.init_model(cfg, Rng(0), dtype=np.float32)
        made = []
        make = Tensor._make

        def counting(*args, **kwargs):
            # an op is named by its vjp
            made.append(args[2].__qualname__.split(".<locals>")[0])
            return make(*args, **kwargs)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        mdl.forward_panel(model, Tensor(np.zeros((2, 3, 16, 16), np.float32)))
        assert len(made) == 21
        assert made.count("attention") == 4 + 1 + 1
        assert Counter(made) == {
            "attention": 6, "mlp": 5, "matmul": 3, "Tensor.__add__": 2,
            "Tensor.__getitem__": 2, "_prepend_cls": 1, "gelu": 1,
            "Tensor.reshape": 1}

    @pytest.mark.parametrize("variant", enc.VARIANTS)
    def test_every_forward_node_records(self, monkeypatch, variant):
        # the images are data, not tape values: each op of the forward has
        # a learned value among its inputs, so each one records
        model = toy_model(seed=5, variant=variant)
        images = Tensor(Rng(18).uniform((2, 3, 12, 12)))
        made = []
        make = Tensor._make

        def recording(*args, **kwargs):
            out = make(*args, **kwargs)
            made.append((args[2].__qualname__.split(".<locals>")[0], out))
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        mdl.forward_panel(model, images)
        assert made
        assert [name for name, out in made if not out.requires_grad] == []


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", enc.VARIANTS)
    def test_no_vjp_writes_into_its_incoming_gradient(self, monkeypatch,
                                                      variant, dtype):
        # `Tensor.__add__` hands one gradient array to both of its parents,
        # so a vjp that wrote into its `g` would corrupt the other's
        cfg = toy_config(patch_size=4, token_dim=64, heads=4, encoder_depth=4,
                         decoder_depth=2, panel_size=6, mlp_ratio=4.0,
                         crop_hw=16, variant=variant)
        model = mdl.init_model(cfg, Rng(0), dtype=dtype)
        make = Tensor._make

        def guarded(data, parents, vjp):
            def read_only_g(g):
                g = g.view()
                g.flags.writeable = False
                return vjp(g)

            return make(data, parents, read_only_g)

        monkeypatch.setattr(Tensor, "_make", staticmethod(guarded))
        images = Tensor(Rng(19).uniform((3, 3, 16, 16)))
        scores = mdl.forward_scores(model, images)
        (scores * scores).sum().backward()
        params = model.named_parameters().values()
        assert all(p.grad is not None for p in params)


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

    def test_panel_rows_are_cls_plus_panel(self):
        # panel_no_decoder scores its decoder inputs, so they are returned
        model = toy_model(seed=3, variant="panel_no_decoder")
        cfg = model.config
        images = Tensor(Rng(17).uniform((2, 3, cfg.crop_hw, cfg.crop_hw)))
        _, embeddings, _ = mdl.forward_panel(model, images)
        cls = enc.encode(images.data, model.embedding, model.enc_blocks, cfg.heads,
                         cfg.patch_size).data[:, 0]
        for l in range(cfg.panel_size):
            npt.assert_array_equal(embeddings.data[:, l],
                                   cls + model.panel.data[l])

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
            diff = mdl.forward_scores(model, batch) + Tensor(np.array(-0.7))
            return (diff * diff).sum()

        assert grad_check(f, params, eps=1e-4) <= 1e-4


RECORDS = (enc.AttentionParams, enc.EncoderBlockParams, enc.EmbeddingParams,
           dec.QueryBlockParams, dec.HeadParams)
C7 = enc.ModelConfig(patch_size=4, token_dim=64, heads=4, encoder_depth=4,
                     panel_size=6, crop_hw=16)


def declared_shapes(cfg):
    """Each record's tensor shapes, written out independently of the field
    declarations; a nested attention record is listed under ``attn.``."""
    D, Dm, Dh = cfg.token_dim, cfg.mlp_dim, max(1, cfg.token_dim // 2)
    attn = {f"attn.{w}": (D, D) for w in ("wq", "wk", "wv", "wo")}
    attn.update({f"attn.{b}": (D,) for b in ("bq", "bk", "bv", "bo")})
    mlp = {"mlp_w1": (D, Dm), "mlp_b1": (Dm,), "mlp_w2": (Dm, D),
           "mlp_b2": (D,)}
    return {
        enc.AttentionParams: {k[5:]: v for k, v in attn.items()},
        enc.EncoderBlockParams: {"ln1_gain": (D,), "ln1_bias": (D,),
                                 "ln2_gain": (D,), "ln2_bias": (D,),
                                 **attn, **mlp},
        enc.EmbeddingParams: {
            "patch_proj_w": (cfg.patch_size ** 2 * cfg.channels, D),
            "patch_proj_b": (D,), "cls_token": (1, D),
            "pos_embed": (cfg.num_patches + 1, D)},
        dec.QueryBlockParams: {"ln_gain": (D,), "ln_bias": (D,), **attn},
        dec.HeadParams: {"w1": (D, Dh), "b1": (Dh,), "w2": (Dh, 1),
                         "b2": (1,)},
    }


def flat(record, prefix=""):
    out = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Tensor):
            out[prefix + f.name] = value
        else:
            out.update(flat(value, f"{prefix}{f.name}."))
    return out


class TestParamDeclarations:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_every_field_declares_an_initializer(self, cls):
        for f in dataclasses.fields(cls):
            init = f.metadata.get("init")
            assert init in ("normal", "zeros", "ones") or init in RECORDS, \
                f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("cfg", [toy_config(), C7], ids=["toy", "c7"])
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_shapes_follow_the_declarations(self, cls, cfg):
        got = flat(enc.init_params(cls, cfg, Rng(3)))
        want = declared_shapes(cfg)[cls]
        assert {k: t.shape for k, t in got.items()} == want

    @pytest.mark.parametrize("seed", [0, 7])
    def test_draws_follow_field_order(self, seed):
        cfg = toy_config()
        p = enc.init_params(enc.AttentionParams, cfg, Rng(seed))
        rng, D = Rng(seed), cfg.token_dim
        for w in (p.wq, p.wk, p.wv, p.wo):
            npt.assert_array_equal(w.data, rng.trunc_normal((D, D)))
        for cls in RECORDS:
            for name, t in flat(enc.init_params(cls, cfg, Rng(seed))).items():
                last = re.split(r"[._]", name)[-1]   # ln1_gain, bq, mlp_b1
                if last == "gain":
                    npt.assert_array_equal(t.data, 1.0)
                elif last.startswith("b"):
                    npt.assert_array_equal(t.data, 0.0)
                else:
                    assert 0 < np.abs(t.data).max() <= 0.04, name
                assert t.requires_grad and t.dtype == np.float64

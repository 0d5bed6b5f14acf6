"""End-to-end acceptance suite: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Criteria 7 and 9 train real models and dominate the runtime
(criterion 7 alone is ~14 minutes on one laptop core).
"""
import dataclasses
import itertools
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import rand_image, toy_config, toy_model
from panelqa.checkpoint import build_model, load_checkpoint, save_checkpoint
from panelqa.data import (Manifest, Sample, gen_base_images,
                          gen_synthetic_dataset, split)
from panelqa.decoder import QueryBlockParams, cross_attend, make_queries
from panelqa.encoder import (AttentionParams, EncoderBlockParams, ModelConfig,
                             attention, encode, init_params, patchify)
from panelqa.metrics import (cls_grad_stats, evaluate, panel_cosine, plcc,
                             srcc, steps_to_variance_decay)
from panelqa.model import forward_panel, forward_scores, init_model
from panelqa.protocols import (COMPONENT_VARIANTS, DATA_EFFICIENCY_FRACTIONS,
                               DEPTH_ABLATION_DEPTHS,
                               protocol_component_ablation,
                               protocol_data_efficiency,
                               protocol_depth_ablation, protocol_repeats)
from panelqa.tensor import Rng, Tensor, grad_check
from panelqa.training import OptimizerState, TrainConfig, fit, smooth_l1


def batched(image: Tensor) -> Tensor:
    return image.reshape((1,) + image.shape)


def naive_softmax(x):
    e = np.exp(x - x.max())
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


def naive_ln(row, gain, bias, eps=1e-6):
    return (row - row.mean()) / np.sqrt(row.var() + eps) * gain + bias


def naive_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def overfit_manifest(n=32, hw=12, seed=1):
    """n distinct textured images whose scores track mean brightness."""
    base = gen_base_images(n, hw, Rng(("ovf", seed)))
    scores = np.linspace(0.0, 1.0, n)
    imgs = [np.clip(0.35 + 0.18 * s + 0.45 * (im - im.mean()), 0, 1)
            for im, s in zip(base, scores)]
    return Manifest([Sample(im, float(s), f"g{i}")
                     for i, (im, s) in enumerate(zip(imgs, scores))])


def noise_manifest(n=64, hw=12, seed=0):
    """Noise-level regression: score proportional to the added noise std."""
    rng = Rng(("noise", seed))
    samples = []
    for i in range(n):
        s = i / (n - 1)
        img = np.clip(0.5 + rng.normal((3, hw, hw), std=0.05 + 0.25 * s), 0, 1)
        samples.append(Sample(img, s, f"g{i}"))
    return Manifest(samples)


class TestCriterion1:
    def test_1_gradient_fidelity(self):
        """All-parameter finite-difference check of the full toy model."""
        model = toy_model(seed=0)
        rng = Rng(41)
        img = Tensor(rng.uniform((1, 3, 12, 12)))
        target = np.array([0.7])

        def loss():
            return smooth_l1(forward_scores(model, img), target)

        start = time.time()
        err = grad_check(loss, model.named_parameters(), eps=1e-4)
        assert err <= 1e-4
        assert time.time() - start <= 60


class TestCriterion2:
    def test_2_attention_oracle_equivalence(self):
        cfg = toy_config()
        D, h, L = cfg.token_dim, cfg.heads, cfg.panel_size
        worst = 0.0
        for seed in range(20):
            rng = Rng(("oracle", seed))
            # self-attention against the loop oracle: MHSA(Norm(x)) + x
            p = init_params(AttentionParams, cfg, rng.child(0))
            x = rng.normal((9, D))
            gain, bias = np.ones(D), np.zeros(D)
            got = attention(Tensor(x[None]), Tensor(gain), Tensor(bias), p,
                            h).data[0]
            normed = np.stack([naive_ln(r, gain, bias) for r in x])
            want = naive_attention(normed, normed, p, h) + x
            worst = max(worst, np.abs(got - want).max())
            # make_queries: MHSA(Norm(cls + panel)) + (cls + panel)
            qb = init_params(QueryBlockParams, cfg, rng.child(1))
            q_in = rng.normal((1, D)) + rng.normal((L, D))
            got_q = make_queries(Tensor(q_in[None]), qb, h).data[0]
            normed = np.stack([naive_ln(r, qb.ln_gain.data, qb.ln_bias.data)
                               for r in q_in])
            want_q = naive_attention(normed, normed, qb.attn, h) + q_in
            worst = max(worst, np.abs(got_q - want_q).max())
            # cross_attend: mid = MHCA(Norm1(q), kv) + q, then
            # mid + MLP(Norm2(mid))
            cb = init_params(EncoderBlockParams, cfg, rng.child(2))
            q2 = rng.normal((L, D))
            kv = rng.normal((7, D))
            out, _ = cross_attend(Tensor(q2[None]), Tensor(kv[None]), cb, h)
            nq = np.stack([naive_ln(r, cb.ln1_gain.data, cb.ln1_bias.data)
                           for r in q2])
            mid = naive_attention(nq, kv, cb.attn, h) + q2
            nm = np.stack([naive_ln(r, cb.ln2_gain.data, cb.ln2_bias.data)
                           for r in mid])
            hid = naive_gelu(nm @ cb.mlp_w1.data + cb.mlp_b1.data)
            want_c = mid + hid @ cb.mlp_w2.data + cb.mlp_b2.data
            worst = max(worst, np.abs(out.data[0] - want_c).max())
        assert worst <= 1e-10


class TestCriterion3:
    def test_3_symmetry_reduction(self):
        # zero panel: every member shares one query, scores must coincide
        model = toy_model(seed=3)
        model.panel.data[...] = 0
        img = batched(rand_image(model.config, Rng(30)))
        scores, _, _ = forward_panel(model, img)
        s = scores.data.reshape(-1)
        assert np.abs(s - s[0]).max() <= 1e-6
        # L=1 with J=0 equals the CLS-query no-panel decoder exactly
        m1 = toy_model(seed=4, panel_size=1)
        m1.panel.data[...] = 0
        mc = toy_model(seed=4, panel_size=1, variant="decoder_cls_queries")
        for name, p in mc.named_parameters().items():
            p.data = m1.named_parameters()[name].data.copy()
        img2 = batched(rand_image(m1.config, Rng(31)))
        npt.assert_array_equal(forward_scores(m1, img2).data,
                               forward_scores(mc, img2).data)


class TestCriterion4:
    def test_4_panel_mean_contract(self):
        for trial in range(100):
            model = toy_model(seed=100 + trial)
            img = batched(rand_image(model.config, Rng(("c4", trial))))
            scores, _, _ = forward_panel(model, img)
            mean = float(forward_scores(model, img).data[0])
            assert abs(mean - scores.data.mean()) <= 1e-6
        # permuting panel rows leaves the final score unchanged
        model = toy_model(seed=7)
        img = batched(rand_image(model.config, Rng(32)))
        base = float(forward_scores(model, img).data[0])
        rng = Rng(33)
        for _ in range(5):
            perm = rng.permutation(model.config.panel_size)
            model.panel.data = model.panel.data[perm]
            got = float(forward_scores(model, img).data[0])
            assert abs(got - base) <= 1e-12


class TestCriterion5:
    def test_5_patch_permutation_invariance(self):
        model = toy_model(seed=8)
        model.embedding.pos_embed.data[...] = 0
        cfg = model.config
        img = rand_image(cfg, Rng(34))
        patches = patchify(img.data[None], cfg.patch_size)[0]  # (N, C*p*p)
        z = encode(img.data[None], model.embedding, model.enc_blocks,
                   cfg.heads, cfg.patch_size)
        base_cls = z.data[0, 0]
        base_score = float(forward_scores(model, batched(img)).data[0])
        g, p = cfg.grid, cfg.patch_size
        rng = Rng(35)
        for _ in range(10):
            perm = rng.permutation(cfg.num_patches)
            tile = patches[perm].reshape(g, g, 3, p, p).transpose(2, 0, 3, 1, 4)
            img_p = Tensor(np.ascontiguousarray(
                tile.reshape(3, g * p, g * p)))
            zp = encode(img_p.data[None], model.embedding, model.enc_blocks,
                        cfg.heads, cfg.patch_size)
            assert np.abs(zp.data[0, 0] - base_cls).max() <= 1e-5
            got = float(forward_scores(model, batched(img_p)).data[0])
            assert abs(got - base_score) <= 1e-5


class TestCriterion6:
    def test_6_overfit_smoke(self):
        start = time.time()
        man = overfit_manifest()
        model = toy_model(seed=0)
        cfg = TrainConfig(epochs=200, base_lr=3e-3,
                          lr_decay_factor=1 + 1e-12,
                          decay_every_epochs=10 ** 6, batch_size=32,
                          crops_per_image=1, seed=0)
        log = fit(model, man, cfg, max_steps=200)
        assert np.all(np.isfinite(log.losses()))
        assert len(log.records) <= 200
        report = evaluate(model, man, crops_per_image=1, seed=0)
        assert report.srcc == 1.0
        assert time.time() - start <= 120


@pytest.mark.slow
class TestCriterion7:
    def test_7_synthetic_generalization(self):
        """slow: five independent train/eval runs on a 2000-sample corpus."""
        man = gen_synthetic_dataset(400, 5, ["contrast_reduction"],
                                    Rng(("c7", 0)), hw=24)
        assert len(man) == 2000
        mc = ModelConfig(patch_size=4, token_dim=64, heads=4,
                         encoder_depth=4, decoder_depth=1, panel_size=6,
                         mlp_ratio=4.0, crop_hw=16)
        tc = TrainConfig(epochs=9, base_lr=3e-3, lr_decay_factor=10.0,
                         decay_every_epochs=3, batch_size=32,
                         crops_per_image=2, seed=0, precision=32)
        start = time.time()
        srccs = []
        for run in range(5):
            tr, te = split(man, 0.8, run)
            model = init_model(mc, Rng(("model", run)), dtype=np.float32)
            fit(model, tr, dataclasses.replace(tc, seed=run))
            rep = evaluate(model, te, crops_per_image=5, seed=run)
            srccs.append(rep.srcc)
        assert time.time() - start <= 20 * 60
        assert float(np.median(srccs)) >= 0.85


class TestCriterion8:
    def test_8_metric_correctness(self):
        for n in range(3, 7):
            label = list(range(1, n + 1))
            for perm in itertools.permutations(label):
                rp = [sorted(perm).index(v) + 1 for v in perm]
                d2 = sum((a - b) ** 2 for a, b in zip(rp, label))
                want = 1 - 6 * d2 / (n * (n * n - 1))
                assert srcc(list(perm), label) == pytest.approx(want,
                                                                abs=1e-13)
        rng = Rng(36)
        for _ in range(10):
            l = rng.normal((12,))
            assert plcc(2.3 * l + 0.7, l) == pytest.approx(1.0, abs=1e-12)
        assert srcc([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
        assert plcc([1, 2, 3], [1, 2, 4]) == pytest.approx(0.982, abs=1e-3)


@pytest.mark.slow
class TestCriterion9:
    # KNOWN FAILURE, kept red on purpose; the second assertion fails.
    #  - The first assertion passes on this seed: the full model's
    #    CLS-gradient variance falls below 10% of its start in 58 steps,
    #    the encoder-only model's in 61. Each decoder layer adds its MLP's
    #    input back, so the full model's first-step variance is 2.5e-8;
    #    while the layer returned MLP(mid) alone it was 1.3e-13, and the
    #    decay did not come within the 400 steps.
    #  - The second assertion reverses: training drives the panel members'
    #    quality embeddings together, and their mean off-diagonal cosine
    #    rises from 0.692 untrained to 0.99994 after 400 steps instead of
    #    falling. ROADMAP item 14 has the measured cause (the panel rows
    #    stay put while the CLS token they are added to grows) and the
    #    fixes still to test.
    def test_9_diagnostic_directionality(self):
        """slow: paired training runs for the gradient/panel analyses."""
        man = noise_manifest(seed=1)
        tc = TrainConfig(epochs=10 ** 4, base_lr=3e-3,
                         lr_decay_factor=1 + 1e-12,
                         decay_every_epochs=10 ** 6, batch_size=64,
                         crops_per_image=1, seed=0)
        decay = {}
        models = {}
        for variant in ("full", "encoder_only"):
            model = toy_model(seed=1, variant=variant)
            log = fit(model, man, tc, max_steps=400)
            decay[variant] = steps_to_variance_decay(cls_grad_stats(log),
                                                     frac=0.1)
            models[variant] = model
        assert decay["full"] < decay["encoder_only"]
        untrained = toy_model(seed=1)
        before = panel_cosine(untrained, man).mean_offdiag()
        after = panel_cosine(models["full"], man).mean_offdiag()
        assert after < before


class TestCriterion10:
    def test_10_protocol_fidelity(self):
        import inspect
        man = gen_synthetic_dataset(6, 3, ["white_noise"], Rng(("c10", 0)),
                                    hw=16)
        mc = toy_config()
        tc = TrainConfig(epochs=1, batch_size=16, crops_per_image=1, seed=0)
        # repeats: 10 independent runs by default, median reported
        assert inspect.signature(protocol_repeats).parameters[
            "repeats"].default == 10
        rep = protocol_repeats(man, mc, tc, repeats=10)
        assert len(rep.results) == 10
        assert len({r.seed for r in rep.results}) == 10  # disjoint seeds
        srccs = sorted(r.srcc for r in rep.results)
        want_median = 0.5 * (srccs[4] + srccs[5])
        assert rep.aggregates[0].median_srcc == pytest.approx(want_median)
        # data efficiency sweeps 20/40/60%
        assert DATA_EFFICIENCY_FRACTIONS == (0.2, 0.4, 0.6)
        de = protocol_data_efficiency(man, mc, tc, repeats=1)
        assert [a.label for a in de.aggregates] == [
            "frac=0.20", "frac=0.40", "frac=0.60"]
        # depth ablation grid
        assert DEPTH_ABLATION_DEPTHS == (1, 2, 4, 8)
        da = protocol_depth_ablation(man, mc, tc, repeats=1, depths=(1, 2))
        assert [a.label for a in da.aggregates] == ["depth=1", "depth=2"]
        # component ablation: all five variants with standard deviations
        assert len(COMPONENT_VARIANTS) == 5
        ca = protocol_component_ablation(man, mc, tc, repeats=2,
                                         variants=COMPONENT_VARIANTS)
        assert len(ca.aggregates) == 5
        assert all("std_srcc=" in a.line() for a in ca.aggregates)
        assert len({r.seed for r in ca.results}) == 10


class TestCriterion11:
    def test_11_roundtrip_and_determinism(self, tmp_path):
        # bit-exact save/load including optimizer moments
        man = overfit_manifest(n=8, seed=3)
        tc = TrainConfig(epochs=1, batch_size=8, crops_per_image=1, seed=0)
        model = toy_model(seed=5)
        state = OptimizerState.init(model.named_parameters())
        fit(model, man, tc, state=state)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, optimizer=state)
        ckpt = load_checkpoint(path)
        restored = build_model(ckpt)
        for name, p in model.named_parameters().items():
            npt.assert_array_equal(restored.named_parameters()[name].data,
                                   p.data)
        back = ckpt.optimizer
        for k in state.m:
            npt.assert_array_equal(back.m[k], state.m[k])
            npt.assert_array_equal(back.v[k], state.v[k])
        # identical seeds give byte-identical written reports
        blobs = []
        for tag in ("a", "b"):
            m = toy_model(seed=5)
            fit(m, man, tc)
            rep = evaluate(m, man, crops_per_image=2, seed=9)
            p = tmp_path / f"rep_{tag}.txt"
            rep.write(str(p))
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

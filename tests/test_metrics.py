import itertools

import numpy as np
import numpy.testing as npt
import pytest

import panelqa.metrics as metrics_mod
import panelqa.model as model_mod
from conftest import rand_image, toy_model
from panelqa.data import Manifest, Sample, gen_base_images
from panelqa.metrics import (GradHistogram, MetricError, attention_map,
                             cls_grad_stats, cosine_matrix, evaluate,
                             panel_cosine, plcc, srcc, steps_to_variance_decay)
from panelqa.tensor import Rng, Tensor
from panelqa.training import StepRecord, TrainConfig, TrainLog, fit


def spearman_no_ties(pred, label):
    """Brute-force 1 - 6*sum(d^2)/(n(n^2-1)) with explicit rank lookup."""
    n = len(pred)
    rp = [sorted(pred).index(v) + 1 for v in pred]
    rl = [sorted(label).index(v) + 1 for v in label]
    d2 = sum((a - b) ** 2 for a, b in zip(rp, rl))
    return 1 - 6 * d2 / (n * (n * n - 1))


def loop_ranks(values):
    """Reference average ranks: walk the sorted values tie group by group."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sv = values[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestSrcc:
    def test_ranks_bit_identical_to_loop(self):
        rng = np.random.default_rng(0)
        for n in range(2, 200):
            values = rng.normal(size=n)
            tied = rng.integers(0, max(n // 4, 1), size=n).astype(np.float64)
            for v in (values, tied):
                npt.assert_array_equal(metrics_mod._ranks(v), loop_ranks(v))

    @pytest.mark.parametrize("metric", [srcc, plcc])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, metric, bad):
        good = [0.1, 0.2, 0.3, 0.4]
        worse = [0.1, bad, 0.3, 0.2]
        for pred, label in ((worse, good), (good, worse)):
            with pytest.raises(MetricError, match="non-finite"):
                metric(pred, label)

    def test_identical_ranking(self):
        assert srcc([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed_ranking(self):
        assert srcc([4, 3, 2, 1], [1, 2, 3, 4]) == -1.0

    def test_worked_example(self):
        assert srcc([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exhaustive_permutations(self, n):
        label = list(range(1, n + 1))
        for perm in itertools.permutations(label):
            want = spearman_no_ties(list(perm), label)
            assert srcc(list(perm), label) == pytest.approx(want, abs=1e-13)

    def test_monotone_invariance(self):
        rng = Rng(0)
        for _ in range(10):
            p = rng.normal((20,))
            l = rng.normal((20,))
            base = srcc(p, l)
            assert abs(srcc(np.exp(p), l) - base) <= 1e-10

    def test_ties_use_average_ranks(self):
        # fractional ranks: [1, 2.5, 2.5, 4]
        val = srcc([1, 2, 2, 3], [1, 2, 3, 4])
        assert 0.9 < val < 1.0

    def test_zero_rank_variance_is_error(self):
        with pytest.raises(MetricError):
            srcc([1, 1, 1], [1, 2, 3])


class TestPlcc:
    def test_positive_affine(self):
        label = np.array([0.1, 0.4, 0.9, 0.2])
        assert plcc(2 * label + 1, label) == pytest.approx(1.0)

    def test_negation(self):
        label = np.array([1.0, 2.0, 3.0])
        assert plcc(-label, label) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert plcc([1, 2, 3], [1, 2, 4]) == pytest.approx(0.982, abs=1e-3)

    def test_affine_invariance(self):
        rng = Rng(1)
        for _ in range(10):
            p = rng.normal((15,))
            l = rng.normal((15,))
            base = plcc(p, l)
            assert abs(plcc(3.5 * p + 2.0, l) - base) <= 1e-10

    def test_zero_variance_is_error(self):
        with pytest.raises(MetricError):
            plcc([2, 2, 2], [1, 2, 3])

    def test_n_below_two(self):
        with pytest.raises(MetricError):
            plcc([1.0], [1.0])


def small_manifest(n=4, hw=12, seed=0):
    imgs = gen_base_images(n, hw, Rng(("eval", seed)))
    return Manifest([Sample(img, i / max(n - 1, 1), f"g{i}")
                     for i, img in enumerate(imgs)])


class TestEvaluate:
    def test_report_fields(self):
        model = toy_model(seed=5)
        report = evaluate(model, small_manifest(), crops_per_image=1)
        assert report.n == 4
        assert -1 <= report.srcc <= 1 and -1 <= report.plcc <= 1

    def test_deterministic_with_single_crop(self):
        model = toy_model(seed=5)
        a = evaluate(model, small_manifest(), crops_per_image=1)
        b = evaluate(model, small_manifest(), crops_per_image=1)
        npt.assert_array_equal(a.predictions, b.predictions)

    def test_constant_model_surfaces_error(self):
        model = toy_model(seed=6)
        # zero head output layer: every prediction equals the bias
        model.head.w2.data[...] = 0
        model.head.b2.data[...] = 0
        with pytest.raises(MetricError):
            evaluate(model, small_manifest(), crops_per_image=1)

    def test_too_small_manifest(self):
        with pytest.raises(MetricError):
            evaluate(toy_model(), small_manifest(n=1), crops_per_image=1)

    def test_report_serialization(self, tmp_path):
        report = evaluate(toy_model(seed=5), small_manifest(),
                          crops_per_image=1)
        path = tmp_path / "report.txt"
        report.write(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("n=4 srcc=")
        assert len(lines) == 5


class TestPanelCosine:
    def test_zero_panel_all_similar(self):
        model = toy_model(seed=7)
        model.panel.data[...] = 0
        diag = panel_cosine(model, small_manifest(n=3))
        off = diag.cosine[~np.eye(3, dtype=bool)]
        npt.assert_allclose(off, np.ones_like(off), atol=1e-5)

    def test_matrix_identities(self):
        diag = panel_cosine(toy_model(seed=8), small_manifest(n=3))
        npt.assert_allclose(diag.cosine, diag.cosine.T, atol=1e-12)
        npt.assert_allclose(np.diag(diag.cosine), np.ones(3), atol=1e-6)
        assert np.all(diag.cosine >= -1 - 1e-12)
        assert np.all(diag.cosine <= 1 + 1e-12)

    def test_matches_dot_product_oracle(self):
        model = toy_model(seed=9)
        rng = Rng(10)
        emb = rng.normal((3, 16))
        got = cosine_matrix(emb)
        for i in range(3):
            for j in range(3):
                want = emb[i] @ emb[j] / (np.linalg.norm(emb[i])
                                          * np.linalg.norm(emb[j]))
                assert abs(got[i, j] - want) <= 1e-10

    def test_zero_norm_embedding_is_error(self):
        with pytest.raises(MetricError):
            cosine_matrix(np.zeros((3, 4)))

    def test_empty_manifest_is_error(self):
        with pytest.raises(MetricError, match="non-empty manifest"):
            panel_cosine(toy_model(seed=10), Manifest([]))

    def test_variant_without_embeddings_is_error(self):
        model = toy_model(seed=10, variant="encoder_only")
        with pytest.raises(MetricError):
            panel_cosine(model, small_manifest(n=2))


class TestClsGradStats:
    def fake_log(self, snaps):
        return TrainLog([StepRecord(i + 1, 0, 1e-4, 0.1, 1.0, s)
                         for i, s in enumerate(snaps)])

    def test_zero_snapshot_mass_at_zero_bin(self):
        log = self.fake_log([np.zeros(16), np.ones(16) * 0.5])
        hists = cls_grad_stats(log, bins=11)
        h0 = hists[0]
        zero_bin = np.searchsorted(h0.edges, 0.0, side="right") - 1
        assert h0.counts[zero_bin] == 16

    def test_counts_sum_to_width(self):
        rng = Rng(11)
        log = self.fake_log([rng.normal((16,)) for _ in range(5)])
        for h in cls_grad_stats(log, bins=7):
            assert h.counts.sum() == 16

    def test_shared_edges(self):
        rng = Rng(12)
        hists = cls_grad_stats(self.fake_log([rng.normal((8,)),
                                              rng.normal((8,)) * 10]))
        npt.assert_array_equal(hists[0].edges, hists[1].edges)

    def test_empty_log_is_error(self):
        with pytest.raises(ValueError):
            cls_grad_stats(TrainLog([]))

    def test_variance_decay_helper(self):
        hists = self.fake_log([np.full(4, v) - np.array([0, v, 0, v])
                               for v in [2.0, 2.0, 0.1, 0.05, 0.01]])
        stats = cls_grad_stats(hists)
        idx = steps_to_variance_decay(stats, frac=0.1, smooth=1)
        assert 0 < idx <= len(stats)

    def test_variance_decay_needs_a_full_window(self):
        # a 3-step log smoothed over 5 would read "never decays" although
        # the variance fell to 1% of its start
        hists = [GradHistogram(i, np.zeros(1), np.zeros(2), v)
                 for i, v in enumerate([1.0, 0.5, 0.01])]
        with pytest.raises(ValueError, match="3 histograms.* window of 5"):
            steps_to_variance_decay(hists)
        assert steps_to_variance_decay(hists, smooth=3) == 3
        assert steps_to_variance_decay(hists, smooth=1) == 2

    def test_from_real_fit(self):
        cfg = TrainConfig(epochs=1, batch_size=8, crops_per_image=1, seed=5)
        log = fit(toy_model(seed=11), small_manifest(), cfg)
        hists = cls_grad_stats(log, bins=9)
        assert len(hists) == len(log.records)
        assert all(h.counts.sum() == 16 for h in hists)


class TestAttentionMap:
    def test_contract(self):
        model = toy_model(seed=12)
        img = rand_image(model.config, Rng(13))
        amap = attention_map(model, img)
        assert amap.shape == (12, 12)
        assert amap.min() >= 0.0 and amap.max() == pytest.approx(1.0)

    def test_uniform_weights_constant_map(self):
        model = toy_model(seed=13)
        # zero image with zero position embeddings: all patch tokens equal,
        # so cross-attention over them is uniform
        model.embedding.pos_embed.data[...] = 0
        img = Tensor(np.zeros((3, 12, 12)))
        amap = attention_map(model, img)
        npt.assert_allclose(amap, np.full((12, 12), amap[0, 0]), atol=1e-9)

    def test_raw_weights_sum_to_one(self):
        from panelqa.model import predict
        model = toy_model(seed=14)
        pred = predict(model, rand_image(model.config, Rng(15)))
        sums = pred.attn_maps[-1].sum(axis=-1)
        npt.assert_allclose(sums, np.ones_like(sums), atol=1e-6)

    def test_encoder_only_has_no_map(self):
        model = toy_model(seed=15, variant="encoder_only")
        with pytest.raises(MetricError):
            attention_map(model, rand_image(model.config, Rng(16)))


class TestInferenceLeavesNoTape:
    def test_no_grads_no_tape_same_next_step(self, monkeypatch):
        outputs = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                outputs.extend(t for t in out[:2] if t is not None)
                return out
            return wrapped

        for mod in (metrics_mod, model_mod):
            monkeypatch.setattr(mod, "forward_panel",
                                recording(mod.forward_panel))
        manifest = small_manifest()
        used, fresh = toy_model(seed=16), toy_model(seed=16)
        img = rand_image(used.config, Rng(17))
        evaluate(used, manifest, crops_per_image=2)
        model_mod.predict(used, img)
        attention_map(used, img)
        panel_cosine(used, manifest)
        # scores and embeddings of one forward per image in evaluate and
        # panel_cosine, and of one each in predict and attention_map
        assert len(outputs) == 2 * (len(manifest) + 1 + 1 + len(manifest))
        for t in outputs:
            assert not t.requires_grad and t._parents == ()
        for name, p in used.named_parameters().items():
            assert p.grad is None, name
        cfg = TrainConfig(epochs=1, batch_size=8, crops_per_image=1, seed=5)
        a = fit(used, manifest, cfg, max_steps=1)
        b = fit(fresh, manifest, cfg, max_steps=1)
        assert a.losses().tolist() == b.losses().tolist()
        assert a.records[0].grad_norm == b.records[0].grad_norm

import numpy as np
import numpy.testing as npt
import pytest

from conftest import toy_config, toy_model
from panelqa import data, training
from panelqa.checkpoint import build_model, load_checkpoint, save_checkpoint
from panelqa.data import (Manifest, Sample, gen_base_images, materialize,
                          read_manifest, write_manifest)
from panelqa.model import init_model
from panelqa.tensor import NonFiniteError, Rng, Tensor
from panelqa.training import (OptimizerState, TrainConfig, fit, lr_at,
                              optimizer_step, sample_crops, smooth_l1)


def scalar_smooth_l1(pred, target, beta=1.0):
    return smooth_l1(Tensor([float(pred)]), np.array([float(target)]),
                     beta).item()


class TestSmoothL1:
    def test_zero_at_equality(self):
        assert scalar_smooth_l1(3.2, 3.2) == 0.0

    def test_quadratic_branch(self):
        assert abs(scalar_smooth_l1(1.0, 0.5) - 0.125) <= 1e-12

    def test_linear_branch(self):
        assert abs(scalar_smooth_l1(3.0, 1.0) - 1.5) <= 1e-12

    def test_continuous_at_beta(self):
        lo = scalar_smooth_l1(1.0 - 1e-9, 0.0)
        hi = scalar_smooth_l1(1.0 + 1e-9, 0.0)
        assert abs(hi - lo) <= 1e-8

    def test_derivative_continuous_at_beta(self):
        h = 1e-6
        d_lo = (scalar_smooth_l1(1.0 - h, 0) - scalar_smooth_l1(1.0 - 2 * h, 0)) / h
        d_hi = (scalar_smooth_l1(1.0 + 2 * h, 0) - scalar_smooth_l1(1.0 + h, 0)) / h
        assert abs(d_hi - d_lo) <= 1e-5

    def test_batch_mean(self):
        pred = Tensor([0.0, 2.0])
        target = np.array([0.5, 0.0])
        assert abs(smooth_l1(pred, target).item() - (0.125 + 1.5) / 2) <= 1e-12

    def test_gradient_vs_finite_difference(self):
        rng = Rng(0)
        pred = Tensor(rng.normal((8,)), requires_grad=True)
        target = rng.normal((8,)) * 2
        loss = smooth_l1(pred, target)
        assert loss._parents == (pred,)    # the target is data
        loss.backward()
        eps = 1e-6
        for i in range(8):
            bumped = pred.data.copy()
            bumped[i] += eps
            num = (smooth_l1(Tensor(bumped), target).item()
                   - smooth_l1(Tensor(pred.data), target).item()) / eps
            assert abs(pred.grad[i] - num) <= 1e-5

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            smooth_l1(Tensor([1.0]), np.array([0.0]), beta=0.0)


class TestLrSchedule:
    def cfg(self):
        return TrainConfig()

    def test_paper_schedule_values(self):
        cfg = self.cfg()
        assert lr_at(0, cfg) == 2e-4
        assert lr_at(3, cfg) == pytest.approx(2e-5)
        assert lr_at(8, cfg) == pytest.approx(2e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(9, self.cfg())
        with pytest.raises(ValueError):
            lr_at(-1, self.cfg())

    def test_non_increasing(self):
        cfg = self.cfg()
        lrs = [lr_at(e, cfg) for e in range(cfg.epochs)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_exactly_three_plateaus(self):
        cfg = self.cfg()
        assert sorted({lr_at(e, cfg) for e in range(9)}, reverse=True) == \
            pytest.approx([2e-4, 2e-5, 2e-6])


class TestSampleCrops:
    def test_exact_size_forces_position(self):
        img = Rng(1).uniform((3, 12, 12))
        for crop in sample_crops(img, 5, 12, Rng(2)):
            npt.assert_array_equal(crop, img)

    def test_deterministic_offsets(self):
        img = Rng(3).uniform((3, 40, 40))
        a = sample_crops(img, 10, 16, Rng(4))
        b = sample_crops(img, 10, 16, Rng(4))
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_too_small_image(self):
        with pytest.raises(ValueError, match="smaller"):
            sample_crops(np.zeros((3, 8, 8)), 1, 16, Rng(5))


class TestOptimizer:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        state = OptimizerState.init({"p": p})
        before = p.data.copy()
        optimizer_step({"p": p}, state, lr=0.1, weight_decay=0.0)
        npt.assert_array_equal(p.data, before)
        assert state.step == 1

    def test_constant_gradient_descends(self):
        p = Tensor([1.0], requires_grad=True)
        state = OptimizerState.init({"p": p})
        values = [p.data[0]]
        for _ in range(2):
            p.grad = np.array([1.0])
            optimizer_step({"p": p}, state, lr=0.05, weight_decay=0.0)
            values.append(p.data[0])
        assert values[2] < values[1] < values[0]

    def test_quadratic_bowl_converges(self):
        p = Tensor([5.0], requires_grad=True)
        state = OptimizerState.init({"p": p})
        start = (p.data[0]) ** 2
        for _ in range(200):
            loss = (p * p).sum()
            loss.backward()
            optimizer_step({"p": p}, state, lr=0.1, weight_decay=0.0)
        assert p.data[0] ** 2 < 1e-3 * start

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        state = OptimizerState.init({"p": p})
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteError, match="p"):
            optimizer_step({"p": p}, state, lr=0.1, weight_decay=1e-4)

    def test_infinite_gradient_names_parameter(self):
        params = {"ok": Tensor([1.0], requires_grad=True),
                  "enc.w": Tensor([1.0, 2.0], requires_grad=True)}
        state = OptimizerState.init(params)
        params["ok"].grad = np.array([0.5])
        params["enc.w"].grad = np.array([1.0, -np.inf])
        with pytest.raises(NonFiniteError,
                           match="non-finite gradient for parameter enc.w"):
            optimizer_step(params, state, lr=0.1, weight_decay=1e-4)

    def test_returns_norm_and_scans_only_nonfinite_sums(self, monkeypatch):
        """The norm is the root of the per-tensor sums of squares, a missing
        gradient counting as zeros; no finite sum leads to an elementwise
        ``isfinite`` over its gradient."""
        params = {"a": Tensor([1.0, 1.0], requires_grad=True),
                  "b": Tensor([1.0], requires_grad=True)}
        state = OptimizerState.init(params)
        params["a"].grad = np.array([3.0, 4.0])
        scanned = []

        def isfinite(x, real=np.isfinite):
            scanned.append(np.ndim(x))
            return real(x)
        monkeypatch.setattr(np, "isfinite", isfinite)
        assert optimizer_step(params, state, lr=0.1, weight_decay=0.0) == 5.0
        assert all(ndim == 0 for ndim in scanned)

    def test_overflowing_square_of_finite_gradient_is_not_an_error(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        state = OptimizerState.init({"p": p})
        p.grad = np.full(2, 1e30, np.float32)
        with np.errstate(over="ignore"):
            norm = optimizer_step({"p": p}, state, lr=0.1, weight_decay=0.0)
        assert norm == np.inf and np.all(np.isfinite(p.data))

    def test_step_that_raises_changes_nothing(self):
        """Every gradient is checked before any parameter is updated."""
        params = {"a": Tensor([1.0], requires_grad=True),
                  "b": Tensor([1.0], requires_grad=True)}
        state = OptimizerState.init(params)
        params["a"].grad = np.array([0.5])
        params["b"].grad = np.array([np.nan])
        with pytest.raises(NonFiniteError,
                           match="non-finite gradient for parameter b"):
            optimizer_step(params, state, lr=0.1, weight_decay=1e-4)
        assert state.step == 0
        npt.assert_array_equal(params["a"].data, [1.0])
        npt.assert_array_equal(state.m["a"], [0.0])
        npt.assert_array_equal(state.v["a"], [0.0])
        npt.assert_array_equal(params["a"].grad, [0.5])
        npt.assert_array_equal(params["b"].grad, [np.nan])


def tiny_manifest(n=4, hw=12, seed=0):
    imgs = gen_base_images(n, hw, Rng(("mani", seed)))
    return Manifest([Sample(img, i / max(n - 1, 1), f"g{i}")
                     for i, img in enumerate(imgs)])


class TestFit:
    def test_first_batch_loss_reproducible(self):
        cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=1, seed=7)
        log_a = fit(toy_model(seed=1), tiny_manifest(), cfg, max_steps=1)
        log_b = fit(toy_model(seed=1), tiny_manifest(), cfg, max_steps=1)
        assert log_a.records[0].loss == log_b.records[0].loss  # bit-exact

    def test_lr_sequence_matches_schedule(self):
        cfg = TrainConfig(epochs=9, decay_every_epochs=3, batch_size=8,
                          crops_per_image=1, seed=0)
        log = fit(toy_model(seed=2), tiny_manifest(n=2), cfg)
        lrs = sorted({r.lr for r in log.records}, reverse=True)
        assert lrs == pytest.approx([2e-4, 2e-5, 2e-6])

    def test_losses_and_grads_finite(self):
        cfg = TrainConfig(epochs=2, batch_size=4, crops_per_image=2, seed=3)
        log = fit(toy_model(seed=3), tiny_manifest(), cfg)
        assert np.all(np.isfinite(log.losses()))
        for r in log.records:
            assert r.cls_grad is not None and np.all(np.isfinite(r.cls_grad))

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            fit(toy_model(), Manifest([]), TrainConfig())

    @pytest.mark.parametrize("dtype,precision", [(np.float64, 32),
                                                 (np.float32, 64)])
    def test_precision_mismatch_rejected_before_any_step(self, dtype,
                                                         precision):
        model = init_model(toy_config(), Rng(5), dtype=dtype)
        params = model.named_parameters()
        before = {k: p.data.copy() for k, p in params.items()}
        state = OptimizerState.init(params)
        cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=1,
                          precision=precision)
        with pytest.raises(ValueError, match="precision"):
            fit(model, tiny_manifest(), cfg, state=state)
        assert state.step == 0
        for k, p in params.items():
            assert p.data.dtype == dtype
            npt.assert_array_equal(p.data, before[k])
            assert p.grad is None

    def test_weight_decay_comes_from_the_config_on_resume(self, tmp_path):
        model = toy_model(seed=6)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model,
                        optimizer=OptimizerState.init(model.named_parameters()))
        ends = []
        for decay in (0.0, 0.5):
            ckpt = load_checkpoint(path)
            resumed = build_model(ckpt)
            state = ckpt.optimizer
            cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=1,
                              weight_decay=decay)
            fit(resumed, tiny_manifest(), cfg, max_steps=2, state=state)
            ends.append(resumed.named_parameters())
        assert any(not np.array_equal(p.data, ends[1][k].data)
                   for k, p in ends[0].items())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_norm_is_the_norm_of_the_stepped_gradients(self, monkeypatch,
                                                            dtype):
        expected = []

        def step(params, state, lr, weight_decay):
            expected.append(float(np.sqrt(sum(
                float((p.grad ** 2).sum()) for p in params.values()
                if p.grad is not None))))
            return optimizer_step(params, state, lr, weight_decay)

        monkeypatch.setattr(training, "optimizer_step", step)
        cfg = TrainConfig(epochs=2, batch_size=4, crops_per_image=2, seed=8,
                          precision=32 if dtype == np.float32 else 64)
        model = init_model(toy_config(), Rng(8), dtype=dtype)
        log = fit(model, tiny_manifest(), cfg)
        assert len(expected) == len(log.records) == 4
        assert [r.grad_norm for r in log.records] == expected  # bit-exact

    def test_steps_continue_from_a_resumed_state(self):
        model = toy_model(seed=9)
        state = OptimizerState.init(model.named_parameters())
        state.step = 5
        cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=2, seed=9)
        log = fit(model, tiny_manifest(), cfg, max_steps=7, state=state)
        assert [r.step for r in log.records] == [6, 7]
        assert state.step == 7

    def test_state_at_max_steps_runs_no_step(self):
        model = toy_model(seed=9)
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        state = OptimizerState.init(model.named_parameters())
        state.step = 10
        cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=2, seed=9)
        log = fit(model, tiny_manifest(), cfg, max_steps=5, state=state)
        assert log.records == [] and state.step == 10
        for k, p in model.named_parameters().items():
            npt.assert_array_equal(p.data, before[k])

    def test_each_image_file_is_read_once_per_run(self, monkeypatch,
                                                  tmp_path):
        path = str(tmp_path / "m.csv")
        write_manifest(path, materialize(tiny_manifest(), str(tmp_path)))
        manifest = read_manifest(path)
        calls = []
        read = data.read_image
        monkeypatch.setattr(data, "read_image",
                            lambda p: calls.append(p) or read(p))
        cfg = TrainConfig(epochs=3, batch_size=4, crops_per_image=1, seed=2)
        log = fit(toy_model(seed=2), manifest, cfg)
        assert len(log.records) == 3
        assert sorted(calls) == sorted(s.image_ref for s in manifest)

    def test_non_finite_loss_names_the_step_as_the_log_does(self):
        # the log numbers steps from 1; the step that fails is the next one
        model = toy_model(seed=4)
        model.head.b2.data[...] = np.inf
        state = OptimizerState.init(model.named_parameters())
        cfg = TrainConfig(epochs=1, batch_size=4, crops_per_image=1, seed=4)
        with pytest.raises(NonFiniteError,
                           match=r"non-finite loss at step 1 \(epoch 0\)"):
            fit(model, tiny_manifest(), cfg, state=state)
        assert state.step == 0

    def test_log_serialization(self, tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=8, crops_per_image=1, seed=4)
        log = fit(toy_model(seed=4), tiny_manifest(n=2), cfg)
        path = tmp_path / "train.log"
        log.write(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(log.records)
        assert lines[0].startswith("step=1 epoch=0 lr=")
        assert "cls_grad_var=" in lines[0]


class TestNormalizeScores:
    """``normalize_scores`` maps the manifest's scores onto [0, 1] by their
    minimum and maximum, and keeps scores that are all equal."""

    @staticmethod
    def fit_with(scores, normalize):
        base = tiny_manifest()
        manifest = Manifest([Sample(s.image_ref, float(score), s.group_id)
                             for s, score in zip(base, scores)])
        cfg = TrainConfig(epochs=2, batch_size=4, crops_per_image=2, seed=8,
                          normalize_scores=normalize)
        model = toy_model(seed=8)
        log = fit(model, manifest, cfg)
        return log.losses(), model.named_parameters()

    def assert_same_run(self, a, b):
        npt.assert_array_equal(a[0], b[0])
        for name, p in a[1].items():
            npt.assert_array_equal(p.data, b[1][name].data)

    def test_scores_mapped_onto_unit_interval(self):
        scores = np.array([2.0, 6.25, 7.0, 3.5])
        lo, hi = scores.min(), scores.max()
        self.assert_same_run(self.fit_with(scores, True),
                             self.fit_with((scores - lo) / (hi - lo), False))

    def test_equal_scores_kept(self):
        scores = np.full(4, 3.5)
        normalized = self.fit_with(scores, True)
        self.assert_same_run(normalized, self.fit_with(scores, False))
        assert not np.array_equal(
            normalized[0], self.fit_with(np.zeros(4), False)[0])

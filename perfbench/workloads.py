"""The benchmark's workloads: what each sets up, times and checks.

All share the criterion-7 architecture and differ in pass type, batch,
dtype and data source:

  train_c7     fit on the criterion-7 corpus, float32, batch 32 (forward,
               backward and optimizer; in-memory images)
  eval_files   evaluate a float32 checkpoint over a PPM corpus on disk,
               5 crops per image (forward only, batch 5)
  diag_single  predict + attention_map per image on a fresh float64 model
               (forward only, batch 1: per-op Python overhead dominates)

A workload runs whole repetitions ("reps") of its timed part until the time
is up, so every rep computes the same outputs and quality figures do not
depend on machine speed. Each timed op (a training step or an image) is one
entry of `Rep.item_s`.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import panelqa.checkpoint as checkpoint
import panelqa.cli as cli
import panelqa.data as data
import panelqa.metrics as metrics
import panelqa.model as model
import panelqa.training as training
from panelqa.encoder import ModelConfig
from panelqa.tensor import NonFiniteError, Rng, Tensor

from tracing import SETUP_OP, Tracer

C7 = ModelConfig(patch_size=4, token_dim=64, heads=4, encoder_depth=4,
                 decoder_depth=1, panel_size=6, mlp_ratio=4.0, crop_hw=16)
SETUP_ROUNDS = 3
clock = time.perf_counter


@dataclass
class Rep:
    item_s: list            # seconds per timed op
    wall_s: float           # timed seconds of the whole rep
    work: int               # samples (train) or images processed
    failed: int             # timed ops whose output check failed
    outputs: np.ndarray     # compared bit for bit across reps
    quality: dict = field(default_factory=dict)


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean smooth-L1 (beta 1), the training objective, in plain numpy."""
    d = np.abs(np.asarray(pred, np.float64) - np.asarray(target, np.float64))
    return float(np.where(d < 1.0, 0.5 * d * d, d - 0.5).mean())


def bit_identical(saved: model.QualityTransformer,
                  loaded: model.QualityTransformer) -> bool:
    a, b = saved.named_parameters(), loaded.named_parameters()
    return a.keys() == b.keys() and all(
        a[k].data.dtype == b[k].data.dtype
        and a[k].data.shape == b[k].data.shape
        and a[k].data.tobytes() == b[k].data.tobytes() for k in a)


def round_trip(m: model.QualityTransformer, path: str):
    """Save and reload through the module attributes (so a tracer sees both
    calls); returns the loaded model and the file size."""
    checkpoint.save_checkpoint(path, m)
    loaded = checkpoint.build_model(checkpoint.load_checkpoint(path))
    return loaded, os.path.getsize(path)


def center_crop(image: np.ndarray) -> np.ndarray:
    hw = C7.crop_hw
    _, H, W = image.shape
    y, x = (H - hw) // 2, (W - hw) // 2
    return image[:, y:y + hw, x:x + hw].copy()


def valid_map(amap: np.ndarray) -> bool:
    """An attention map covers the crop and lies in [0, 1]."""
    return (amap.shape == (C7.crop_hw, C7.crop_hw)
            and bool(np.all(np.isfinite(amap)))
            and amap.min() >= 0.0 and amap.max() <= 1.0)


def marker(fn, marks: list, tracer: Tracer):
    """Timestamp-only wrapper: each call to `fn` after the first of a rep
    starts the next timed op (a training step, or an image)."""
    def marked(*args, **kwargs):
        if marks and tracer.op is not None:
            tracer.op += 1
        marks.append(clock())
        return fn(*args, **kwargs)

    return marked


class Workload:
    name = ""
    dtype = ""

    def __init__(self, seed: int, smoke: bool, workdir: str, tracer: Tracer):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.setup_ok = True
        self.ckpt_bytes = 0

    def setup(self, round_no: int) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        pass


class TrainC7(Workload):
    """Fixed-length `fit` from the same initial parameters in every rep."""
    name, dtype = "train_c7", "float32"

    def __init__(self, *args):
        super().__init__(*args)
        self.steps, self.tail, self.bases = ((8, 2, 8) if self.smoke
                                             else (50, 25, 400))
        self.cfg = training.TrainConfig(
            epochs=4, base_lr=3e-3, batch_size=32, crops_per_image=2,
            seed=self.seed, precision=32)
        self.marks: list[float] = []
        self._forward_scores = training.forward_scores
        training.forward_scores = marker(self._forward_scores, self.marks,
                                         self.tracer)

    def close(self) -> None:
        training.forward_scores = self._forward_scores

    def setup(self, round_no: int) -> None:
        corpus = data.gen_synthetic_dataset(
            self.bases, 5, ["contrast_reduction"],
            Rng(("train_c7", self.seed)), hw=24)
        self.train, _ = data.split(corpus, 0.8, self.seed)
        self.model = model.init_model(C7, Rng(("model", self.seed)),
                                      dtype=np.float32)
        self.params = self.model.named_parameters()
        self.init = {k: p.data.copy() for k, p in self.params.items()}

    def rep(self) -> Rep:
        for k, p in self.params.items():
            p.data = self.init[k].copy()
            p.zero_grad()
        self.marks.clear()
        t0 = clock()
        try:
            log = training.fit(self.model, self.train, self.cfg,
                               max_steps=self.steps)
        except NonFiniteError:
            t1 = clock()
            n = len(self.marks)
            return Rep(np.diff(self.marks + [t1]).tolist(), t1 - t0,
                       n * self.cfg.batch_size, n, np.full(n, np.nan))
        t1 = clock()
        item_s = np.diff([t0] + self.marks[1:] + [t1]).tolist()
        losses = log.losses()
        failed = int((~np.isfinite(losses)).sum())
        tail = float(losses[-self.tail:].mean())
        if not tail < losses[0]:
            failed += 1
        return Rep(item_s, t1 - t0, len(losses) * self.cfg.batch_size,
                   failed, losses,
                   {"loss_tail": tail, "first_loss": float(losses[0])})


class EvalFiles(Workload):
    """`evaluate` of a briefly trained float32 checkpoint over PPM files."""
    name, dtype = "eval_files", "float32"

    def __init__(self, *args):
        super().__init__(*args)
        self.bases, self.train_steps = (1, 2) if self.smoke else (10, 10)
        self.marks: list[float] = []
        self._load_image = metrics.load_image
        metrics.load_image = marker(self._load_image, self.marks, self.tracer)

    def close(self) -> None:
        metrics.load_image = self._load_image

    def setup(self, round_no: int) -> None:
        out = os.path.join(self.workdir, f"round{round_no}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen-data", "--out", out,
                             "--bases", str(self.bases), "--levels", "5",
                             "--image-hw", "64", "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError(f"panelqa gen-data exited with {code}")
        self.manifest_path = os.path.join(out, "manifest.csv")
        trained = model.init_model(C7, Rng(("model", self.seed)),
                                   dtype=np.float32)
        cfg = training.TrainConfig(epochs=1, base_lr=3e-3, batch_size=32,
                                   crops_per_image=2, seed=self.seed,
                                   precision=32)
        training.fit(trained, data.read_manifest(self.manifest_path), cfg,
                     max_steps=self.train_steps)
        self.model, self.ckpt_bytes = round_trip(
            trained, os.path.join(out, "model.ckpt"))
        self.setup_ok &= bit_identical(trained, self.model)

    def rep(self) -> Rep:
        t0 = clock()
        manifest = data.read_manifest(self.manifest_path)
        self.marks.clear()
        try:
            report = metrics.evaluate(self.model, manifest, crops_per_image=5,
                                      seed=self.seed)
        except metrics.MetricError:
            t1 = clock()
            n = len(self.marks)
            return Rep(np.diff(self.marks + [t1]).tolist(), t1 - t0, n, n,
                       np.full(n, np.nan))
        # The attention map of the first image, as `panelqa attn-map` draws
        # it after an evaluation; its time counts in the last image.
        crop = center_crop(data.load_image(manifest.samples[0]))
        amap = metrics.attention_map(self.model,
                                     Tensor(crop.astype(np.float32)))
        t1 = clock()
        preds = report.predictions
        failed = int((~np.isfinite(preds)).sum())
        if not (np.isfinite(report.srcc) and np.isfinite(report.plcc)
                and valid_map(amap)):
            failed += 1
        return Rep(np.diff(self.marks + [t1]).tolist(), t1 - t0, len(preds),
                   failed, preds,
                   {"score_loss": smooth_l1(preds, report.labels),
                    "srcc": report.srcc, "plcc": report.plcc})


class DiagSingle(Workload):
    """`predict` and `attention_map` of each center crop at batch 1."""
    name, dtype = "diag_single", "float64"

    def setup(self, round_no: int) -> None:
        corpus = data.gen_synthetic_dataset(
            1 if self.smoke else 5, 5, list(data.DISTORTION_KINDS),
            Rng(("diag_single", self.seed)), hw=32)
        self.items = [(center_crop(s.image_ref), s.score)
                      for s in corpus.samples]
        fresh = model.init_model(C7, Rng(("model", self.seed)),
                                 dtype=np.float64)
        self.model, self.ckpt_bytes = round_trip(
            fresh, os.path.join(self.workdir, f"round{round_no}.ckpt"))
        self.setup_ok &= bit_identical(fresh, self.model)

    def rep(self) -> Rep:
        item_s, scores, failed = [], [], 0
        for crop, _ in self.items:
            image = Tensor(crop)
            op = self.tracer.op
            t0 = clock()
            pred = model.predict(self.model, image)
            amap = metrics.attention_map(self.model, image)
            t1 = clock()
            item_s.append(t1 - t0)
            self.tracer.op = None           # the check is not timed
            ref = model.forward_scores(self.model, Tensor(crop[None])).data[0]
            self.tracer.op = op + 1
            scores.append(pred.score)
            if not (abs(pred.score - float(ref)) <= 1e-12
                    and valid_map(amap)):
                failed += 1
        scores = np.array(scores)
        labels = np.array([label for _, label in self.items])
        return Rep(item_s, float(sum(item_s)), len(item_s), failed, scores,
                   {"score_loss": smooth_l1(scores, labels)})


WORKLOADS = {w.name: w for w in (TrainC7, EvalFiles, DiagSingle)}


@dataclass
class Outcome:
    setup_s: list           # seconds per set-up round
    plain: list             # reps run without the tracer
    traced: list            # reps run with the tracer installed
    failed: int
    setup_ok: bool
    ckpt_bytes: int


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        workdir: str, tracer: Tracer) -> Outcome:
    """Set up SETUP_ROUNDS times, then run reps until `seconds` have passed.
    With `trace`, set-up is traced and reps alternate plain / traced, so the
    traced run also measures the tracer's overhead."""
    os.makedirs(workdir, exist_ok=True)
    w = WORKLOADS[name](seed, smoke, workdir, tracer)
    try:
        setup_s = []
        for r in range(SETUP_ROUNDS):
            tracer.op = SETUP_OP
            if trace:
                tracer.install()
            t0 = clock()
            try:
                w.setup(r)
            finally:
                setup_s.append(clock() - t0)
                tracer.uninstall()
        plain, traced, failed = [], [], 0
        first = None
        deadline = clock() + seconds
        op = 0
        while True:
            traced_rep = trace and len(plain) > len(traced)
            tracer.op = op
            if traced_rep:
                tracer.install()
            try:
                rep = w.rep()
            finally:
                tracer.uninstall()
                tracer.op = None
            op += len(rep.item_s)
            if first is None:
                first = rep.outputs
            elif not np.array_equal(rep.outputs, first):
                rep.failed += 1       # outputs differ between identical reps
            failed += min(rep.failed, len(rep.item_s))
            (traced if traced_rep else plain).append(rep)
            if clock() >= deadline and (not trace or traced):
                break
        return Outcome(setup_s, plain, traced, failed, w.setup_ok,
                       w.ckpt_bytes)
    finally:
        w.close()

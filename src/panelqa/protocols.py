"""Experiment protocols: repeated random splits with median reporting,
data-efficiency sweeps, decoder-depth ablation, and component ablation."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Manifest, atomic_write, split
from .encoder import VARIANTS, ModelConfig
from .metrics import evaluate
from .model import init_model
from .tensor import Rng
from .training import TrainConfig, fit

DATA_EFFICIENCY_FRACTIONS = (0.2, 0.4, 0.6)
DEPTH_ABLATION_DEPTHS = (1, 2, 4, 8)
COMPONENT_VARIANTS = VARIANTS


@dataclass
class RunResult:
    label: str
    run: int
    seed: int
    srcc: float
    plcc: float

    def line(self) -> str:
        lab = f"{self.label} " if self.label else ""
        return (f"{lab}run={self.run} seed={self.seed} "
                f"srcc={self.srcc:.6f} plcc={self.plcc:.6f}")


@dataclass
class Aggregate:
    label: str
    median_srcc: float
    median_plcc: float
    std_srcc: float
    std_plcc: float
    n_runs: int

    def line(self) -> str:
        lab = f"{self.label} " if self.label else ""
        return (f"{lab}runs={self.n_runs} "
                f"median_srcc={self.median_srcc:.6f} "
                f"median_plcc={self.median_plcc:.6f} "
                f"std_srcc={self.std_srcc:.6f} std_plcc={self.std_plcc:.6f}")


@dataclass
class ProtocolReport:
    mode: str
    results: list[RunResult] = field(default_factory=list)
    aggregates: list[Aggregate] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"protocol={self.mode}"]
        out += [r.line() for r in self.results]
        out += [a.line() for a in self.aggregates]
        return out

    def write(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write("\n".join(self.lines()) + "\n")


def derive_seed(seed: int, run: int) -> int:
    """Disjoint per-run seed from (base seed, run index)."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, run])
    return int(ss.generate_state(1)[0])


def run_split_train_eval(manifest: Manifest, model_cfg: ModelConfig,
                         train_cfg: TrainConfig, run_seed: int,
                         train_frac: float = 0.8,
                         eval_crops: int = 1,
                         train_groups: Optional[float] = None
                         ) -> tuple[float, float]:
    """One independent run: fresh split, fresh initialization, train, test.

    With ``train_groups``, training keeps only the first groups of the train
    side, that fraction of all groups (at most ``train_frac``)."""
    train, test = split(manifest, train_frac, run_seed)
    if train_groups is not None:
        keep = int(round(train_groups * len(manifest.groups())))
        kept = set(train.groups()[:keep])
        train = Manifest([s for s in train.samples if s.group_id in kept])
    model = init_model(model_cfg, Rng(("model", run_seed)),
                       dtype=train_cfg.dtype)
    cfg = dataclasses.replace(train_cfg, seed=run_seed)
    fit(model, train, cfg)
    report = evaluate(model, test, crops_per_image=eval_crops, seed=run_seed)
    return report.srcc, report.plcc


def _aggregate(label: str, rows: list[RunResult]) -> Aggregate:
    s = np.array([r.srcc for r in rows])
    p = np.array([r.plcc for r in rows])
    return Aggregate(label, float(np.median(s)), float(np.median(p)),
                     float(s.std()), float(p.std()), len(rows))


def _sweep(mode: str, manifest: Manifest, train_cfg: TrainConfig, settings,
           repeats: int, eval_crops: int, train_frac: float = 0.8
           ) -> ProtocolReport:
    """``repeats`` runs of each (label, seed offset, model config, train-group
    fraction) setting; run r of a setting draws the seed of ``offset + r``."""
    report = ProtocolReport(mode)
    for label, offset, model_cfg, train_groups in settings:
        rows = []
        for run in range(repeats):
            seed = derive_seed(train_cfg.seed, offset + run)
            s, p = run_split_train_eval(manifest, model_cfg, train_cfg, seed,
                                        train_frac, eval_crops, train_groups)
            rows.append(RunResult(label, run, seed, s, p))
        report.results += rows
        report.aggregates.append(_aggregate(label, rows))
    return report


def protocol_repeats(manifest: Manifest, model_cfg: ModelConfig,
                     train_cfg: TrainConfig, repeats: int = 10,
                     train_frac: float = 0.8, eval_crops: int = 1
                     ) -> ProtocolReport:
    """k independent splits/initializations; medians and std reported."""
    return _sweep("repeats", manifest, train_cfg, [("", 0, model_cfg, None)],
                  repeats, eval_crops, train_frac)


def protocol_data_efficiency(manifest: Manifest, model_cfg: ModelConfig,
                             train_cfg: TrainConfig, repeats: int = 3,
                             fractions=DATA_EFFICIENCY_FRACTIONS,
                             eval_crops: int = 1) -> ProtocolReport:
    """Sweep the training fraction with a fixed 20% held-out test side."""
    settings = [(f"frac={f:.2f}", 1000 * int(f * 100), model_cfg, f)
                for f in fractions]
    return _sweep("data-efficiency", manifest, train_cfg, settings, repeats,
                  eval_crops)


def protocol_depth_ablation(manifest: Manifest, model_cfg: ModelConfig,
                            train_cfg: TrainConfig, repeats: int = 3,
                            depths=DEPTH_ABLATION_DEPTHS,
                            eval_crops: int = 1) -> ProtocolReport:
    settings = [(f"depth={d}", 2000 * d,
                 dataclasses.replace(model_cfg, decoder_depth=d), None)
                for d in depths]
    return _sweep("depth-ablation", manifest, train_cfg, settings, repeats,
                  eval_crops)


def protocol_component_ablation(manifest: Manifest, model_cfg: ModelConfig,
                                train_cfg: TrainConfig, repeats: int = 3,
                                variants=COMPONENT_VARIANTS,
                                eval_crops: int = 1) -> ProtocolReport:
    settings = [(f"variant={v}", 3000 * (i + 1),
                 dataclasses.replace(model_cfg, variant=v), None)
                for i, v in enumerate(variants)]
    return _sweep("component-ablation", manifest, train_cfg, settings,
                  repeats, eval_crops)

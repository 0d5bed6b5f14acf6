"""Experiment protocols: repeated random splits with median reporting,
data-efficiency sweeps, decoder-depth ablation, and component ablation."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Manifest, split
from .encoder import ModelConfig
from .metrics import evaluate
from .model import init_model
from .tensor import Rng
from .training import TrainConfig, fit

DATA_EFFICIENCY_FRACTIONS = (0.2, 0.4, 0.6)
DEPTH_ABLATION_DEPTHS = (1, 2, 4, 8)
COMPONENT_VARIANTS = ("encoder_only", "panel_no_decoder",
                      "decoder_random_queries", "decoder_cls_queries", "full")


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines()) + "\n")


def derive_seed(seed: int, run: int) -> int:
    """Disjoint per-run seed from (base seed, run index)."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, run])
    return int(ss.generate_state(1)[0])


def run_split_train_eval(manifest: Manifest, model_cfg: ModelConfig,
                         train_cfg: TrainConfig, run_seed: int,
                         train_frac: float = 0.8,
                         eval_crops: int = 1,
                         train_manifest: Optional[Manifest] = None,
                         test_manifest: Optional[Manifest] = None
                         ) -> tuple[float, float]:
    """One independent run: fresh split, fresh initialization, train, test."""
    if train_manifest is None or test_manifest is None:
        train_manifest, test_manifest = split(manifest, train_frac, run_seed)
    model = init_model(model_cfg, Rng(("model", run_seed)),
                       dtype=train_cfg.dtype)
    cfg = dataclasses.replace(train_cfg, seed=run_seed)
    fit(model, train_manifest, cfg)
    report = evaluate(model, test_manifest, crops_per_image=eval_crops,
                      seed=run_seed)
    return report.srcc, report.plcc


def _aggregate(label: str, rows: list[RunResult]) -> Aggregate:
    s = np.array([r.srcc for r in rows])
    p = np.array([r.plcc for r in rows])
    return Aggregate(label, float(np.median(s)), float(np.median(p)),
                     float(s.std()), float(p.std()), len(rows))


def protocol_repeats(manifest: Manifest, model_cfg: ModelConfig,
                     train_cfg: TrainConfig, repeats: int = 10,
                     train_frac: float = 0.8, eval_crops: int = 1
                     ) -> ProtocolReport:
    """k independent splits/initializations; medians and std reported."""
    report = ProtocolReport("repeats")
    for run in range(repeats):
        seed = derive_seed(train_cfg.seed, run)
        s, p = run_split_train_eval(manifest, model_cfg, train_cfg, seed,
                                    train_frac, eval_crops)
        report.results.append(RunResult("", run, seed, s, p))
    report.aggregates.append(_aggregate("", report.results))
    return report


def protocol_data_efficiency(manifest: Manifest, model_cfg: ModelConfig,
                             train_cfg: TrainConfig, repeats: int = 3,
                             fractions=DATA_EFFICIENCY_FRACTIONS,
                             eval_crops: int = 1) -> ProtocolReport:
    """Sweep the training fraction with a fixed 20% held-out test side."""
    report = ProtocolReport("data-efficiency")
    groups_total = len(manifest.groups())
    for frac in fractions:
        rows = []
        for run in range(repeats):
            seed = derive_seed(train_cfg.seed, 1000 * int(frac * 100) + run)
            train80, test20 = split(manifest, 0.8, seed)
            # keep frac of all groups for training (frac <= 0.8)
            keep = int(round(frac * groups_total))
            kept_groups = set(train80.groups()[:keep])
            train_sub = Manifest(
                [s for s in train80.samples if s.group_id in kept_groups],
                train80.provenance)
            s, p = run_split_train_eval(
                manifest, model_cfg, train_cfg, seed,
                eval_crops=eval_crops,
                train_manifest=train_sub, test_manifest=test20)
            rows.append(RunResult(f"frac={frac:.2f}", run, seed, s, p))
        report.results += rows
        report.aggregates.append(_aggregate(f"frac={frac:.2f}", rows))
    return report


def protocol_depth_ablation(manifest: Manifest, model_cfg: ModelConfig,
                            train_cfg: TrainConfig, repeats: int = 3,
                            depths=DEPTH_ABLATION_DEPTHS,
                            eval_crops: int = 1) -> ProtocolReport:
    report = ProtocolReport("depth-ablation")
    for depth in depths:
        cfg_d = dataclasses.replace(model_cfg, decoder_depth=depth)
        rows = []
        for run in range(repeats):
            seed = derive_seed(train_cfg.seed, 2000 * depth + run)
            s, p = run_split_train_eval(manifest, cfg_d, train_cfg, seed,
                                        eval_crops=eval_crops)
            rows.append(RunResult(f"depth={depth}", run, seed, s, p))
        report.results += rows
        report.aggregates.append(_aggregate(f"depth={depth}", rows))
    return report


def protocol_component_ablation(manifest: Manifest, model_cfg: ModelConfig,
                                train_cfg: TrainConfig, repeats: int = 3,
                                variants=COMPONENT_VARIANTS,
                                eval_crops: int = 1) -> ProtocolReport:
    report = ProtocolReport("component-ablation")
    for vi, variant in enumerate(variants):
        cfg_v = dataclasses.replace(model_cfg, variant=variant)
        rows = []
        for run in range(repeats):
            seed = derive_seed(train_cfg.seed, 3000 * (vi + 1) + run)
            s, p = run_split_train_eval(manifest, cfg_v, train_cfg, seed,
                                        eval_crops=eval_crops)
            rows.append(RunResult(f"variant={variant}", run, seed, s, p))
        report.results += rows
        report.aggregates.append(_aggregate(f"variant={variant}", rows))
    return report

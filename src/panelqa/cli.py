"""Command-line surface: data generation, training, evaluation, protocols,
gradient checking, and diagnostics.

Configuration is plain ``key = value`` text with ``#`` comments, read by
``panelqa.config``; command-line flags override file values, and the effective
configuration is echoed into every output directory. Commands that read a
checkpoint take its model keys, and reject a differing one set in the file or
by a flag. Unknown keys and invalid values are rejected before any
computation.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as dat
from . import protocols as proto
from .checkpoint import build_model, load_checkpoint, load_optimizer, save_checkpoint
from .config import ConfigError, build, convert, keys, parse, write
from .encoder import ModelConfig
from .metrics import attention_map, center_crop, evaluate, panel_cosine
from .model import init_model
from .plots import svg_heatmap, svg_line, svg_scatter
from .tensor import Rng, Tensor, grad_check
from .training import OptimizerState, TrainConfig, fit, smooth_l1

DEFAULT_KINDS = ",".join(dat.DISTORTION_KINDS)


@dataclass
class RunConfig:
    """Every tunable of a run: the model and training records, plus the keys
    only the commands read. Defaults follow the full-size recipe."""
    model: ModelConfig = field(default_factory=ModelConfig,
                               metadata={"cli": False})
    train: TrainConfig = field(default_factory=TrainConfig,
                               metadata={"cli": False})
    # synthetic data generation
    bases: int = 100
    kinds: str = DEFAULT_KINDS
    levels: int = 5
    image_hw: int = 64
    # evaluation / protocols
    eval_crops: int = 10
    mode: str = "repeats"
    repeats: int = 10
    train_frac: float = 0.8

    def text(self) -> str:
        return write(self.model) + write(self.train) + write(self)


SCHEMA = keys(ModelConfig, TrainConfig, RunConfig)


def parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), SCHEMA, path)


def _set_values(args: argparse.Namespace) -> dict:
    """Values of the keys set in ``--config`` or by a flag; flags win."""
    values = parse_config_file(args.config) if args.config else {}
    for name, kind in SCHEMA.items():
        override = getattr(args, name)
        if override is not None:
            values[name] = convert(name, kind, override)
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = _set_values(args)
    return build(RunConfig, values, model=build(ModelConfig, values),
                 train=build(TrainConfig, values))


def _checkpoint_model(cfg: RunConfig, args):
    """The model of ``--checkpoint``, and ``cfg`` with its model keys. A model
    key set in ``--config`` or by a flag must match the checkpoint's."""
    model = build_model(load_checkpoint(args.checkpoint))
    values = _set_values(args)
    for name in keys(ModelConfig):
        stored = getattr(model.config, name)
        if name in values and values[name] != stored:
            raise ConfigError(f"{name} = {values[name]} does not match "
                              f"{name} = {stored} of {args.checkpoint}")
    return model, replace(cfg, model=model.config)


def _prepare_out(cfg: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfg.text())
    return out_dir


# -- commands -----------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    kinds = [k.strip() for k in cfg.kinds.split(",") if k.strip()]
    manifest = dat.gen_synthetic_dataset(cfg.bases, cfg.levels, kinds,
                                         Rng(("gen", cfg.train.seed)),
                                         hw=cfg.image_hw)
    file_manifest = dat.materialize(manifest, out)
    dat.write_manifest(os.path.join(out, "manifest.csv"), file_manifest)
    print(f"wrote {len(file_manifest)} samples to {out}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = dat.read_manifest(args.manifest)
    train_cfg = cfg.train
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        model = build_model(ckpt, config=cfg.model)
        state = load_optimizer(ckpt, model.named_parameters())
    else:
        model = init_model(cfg.model, Rng(("model", train_cfg.seed)),
                           dtype=train_cfg.dtype)
        state = OptimizerState.init(model.named_parameters())
    log = fit(model, manifest, train_cfg, state=state)
    log.write(os.path.join(out, "train.log"))
    save_checkpoint(os.path.join(out, "model.ckpt"), model, optimizer=state)
    svg_line(os.path.join(out, "loss.svg"), log.losses(), title="loss per step")
    train_report = evaluate(model, manifest, crops_per_image=cfg.eval_crops,
                            seed=train_cfg.seed)
    print(f"train srcc={train_report.srcc:.6f} plcc={train_report.plcc:.6f}")
    if args.test_manifest:
        test_report = evaluate(model, dat.read_manifest(args.test_manifest),
                               crops_per_image=cfg.eval_crops,
                               seed=train_cfg.seed)
        print(f"test srcc={test_report.srcc:.6f} plcc={test_report.plcc:.6f}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    model, cfg = _checkpoint_model(cfg, args)
    out = _prepare_out(cfg, args.out)
    manifest = dat.read_manifest(args.manifest)
    report = evaluate(model, manifest, crops_per_image=cfg.eval_crops,
                      seed=cfg.train.seed)
    report.write(os.path.join(out, "eval.txt"))
    svg_scatter(os.path.join(out, "scatter.svg"), report.labels,
                report.predictions, title="label vs prediction")
    print(f"n={report.n} srcc={report.srcc:.6f} plcc={report.plcc:.6f}")
    return 0


def cmd_protocol(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = dat.read_manifest(args.manifest)
    model_cfg, train_cfg = cfg.model, cfg.train
    kwargs = dict(repeats=cfg.repeats, eval_crops=cfg.eval_crops)
    if cfg.mode == "repeats":
        report = proto.protocol_repeats(manifest, model_cfg, train_cfg,
                                        train_frac=cfg.train_frac, **kwargs)
    elif cfg.mode == "data-efficiency":
        report = proto.protocol_data_efficiency(manifest, model_cfg,
                                                train_cfg, **kwargs)
    elif cfg.mode == "depth-ablation":
        report = proto.protocol_depth_ablation(manifest, model_cfg,
                                               train_cfg, **kwargs)
    elif cfg.mode == "component-ablation":
        report = proto.protocol_component_ablation(manifest, model_cfg,
                                                   train_cfg, **kwargs)
    else:
        raise ConfigError(f"unknown protocol mode {cfg.mode!r}")
    report.write(os.path.join(out, "protocol.txt"))
    for line in report.lines():
        print(line)
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    from .model import forward_scores
    mc, seed = cfg.model, cfg.train.seed
    model = init_model(mc, Rng(("model", seed)), dtype=np.float64)
    rng = Rng(("gradcheck", seed))
    img = Tensor(rng.uniform((1, mc.channels, mc.crop_hw, mc.crop_hw)))
    target = Tensor(np.array([0.7]))

    def loss():
        return smooth_l1(forward_scores(model, img), target,
                         beta=cfg.train.smooth_l1_beta)

    err = grad_check(loss, model.named_parameters(), eps=args.eps)
    print(f"max_rel_error={err:.3e} eps={args.eps:.1e} "
          f"params={sum(p.size for p in model.named_parameters().values())}")
    return 0 if err <= args.tolerance else 1


def cmd_panel_sim(cfg: RunConfig, args) -> int:
    model, cfg = _checkpoint_model(cfg, args)
    out = _prepare_out(cfg, args.out)
    manifest = dat.read_manifest(args.manifest)
    diag = panel_cosine(model, manifest)
    diag.write(os.path.join(out, "panel.txt"))
    svg_heatmap(os.path.join(out, "panel.svg"), diag.cosine,
                title="panel cosine similarity")
    print(f"mean_offdiag={diag.mean_offdiag():.6f} "
          f"mean_spread={diag.score_spread.mean():.6e}")
    return 0


def cmd_attn_map(cfg: RunConfig, args) -> int:
    model, cfg = _checkpoint_model(cfg, args)
    out = _prepare_out(cfg, args.out)
    image = dat.read_image(args.image)
    crop = center_crop(image, model.config.crop_hw).astype(model.dtype)
    amap = attention_map(model, Tensor(crop))
    svg_heatmap(os.path.join(out, "attn.svg"), amap, title="quality attention")
    dat.write_ppm(os.path.join(out, "attn.ppm"), np.repeat(amap[None], 3, axis=0))
    print(f"attention map {amap.shape[0]}x{amap.shape[1]} written to {out}")
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", default="out", help="output directory")
    for name in SCHEMA:
        p.add_argument("--" + name.replace("_", "-"), default=None, dest=name)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelqa",
        description="Blind image quality assessment with an attention-panel "
                    "transformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    _add_shared(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fine-tune a model on a manifest")
    _add_shared(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("protocol", help="repeat/ablation experiment protocols")
    _add_shared(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all gradients")
    _add_shared(p)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("panel-sim", help="panel cosine-similarity diagnostics")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_panel_sim)

    p = sub.add_parser("attn-map", help="decoder attention heat map for one image")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_attn_map)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        return args.func(cfg, args)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

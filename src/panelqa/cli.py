"""Command-line surface: data generation, training, evaluation, protocols,
gradient checking, and diagnostics.

Configuration is plain ``key = value`` text with ``#`` comments, read by
``panelqa.config``; command-line flags override file values, and the effective
configuration is echoed into every output directory. A command that reads a
checkpoint loads it first: its model keys and precision are the base values,
and a differing one set in the file or by a flag is rejected. Unknown keys,
invalid values and unreadable inputs are rejected before any computation and
before the output directory is made.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import data as dat
from . import protocols as proto
from .checkpoint import CheckpointError, build_model, load_checkpoint, save_checkpoint
from .config import ConfigError, build, convert, keys, parse, write
from .encoder import ModelConfig
from .metrics import attention_map, center_crop, evaluate, panel_cosine
from .model import forward_scores, init_model
from .plots import svg_heatmap, svg_line, svg_scatter
from .tensor import Rng, Tensor, grad_check
from .training import OptimizerState, TrainConfig, fit, smooth_l1

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
    kinds: str = ",".join(dat.DISTORTION_KINDS)
    levels: int = 5
    image_hw: int = 64
    # evaluation / protocols
    eval_crops: int = 10
    mode: str = "repeats"
    repeats: int = 10
    train_frac: float = 0.8

    def __post_init__(self):
        if self.mode not in proto.PROTOCOLS:
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        for name in ("bases", "image_hw", "eval_crops", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")

    def text(self) -> str:
        return write(self.model) + write(self.train) + write(self)


SCHEMA = keys(ModelConfig, TrainConfig, RunConfig)


def parse_config_file(path: str) -> dict:
    return parse(dat.read_text(path, ConfigError), SCHEMA, path)


def build_run_config(args: argparse.Namespace, ckpt=None) -> RunConfig:
    """The keys set in ``--config``, flags winning, over the model keys and
    precision of ``ckpt``; a set value must match the checkpoint's."""
    values = parse_config_file(args.config) if args.config else {}
    for name, kind in SCHEMA.items():
        override = getattr(args, name)
        if override is not None:
            values[name] = convert(name, kind, override)
    if ckpt is not None:
        stored = {k: getattr(ckpt.config, k) for k in keys(ModelConfig)}
        stored["precision"] = 8 * ckpt.dtype.itemsize
        for name, value in stored.items():
            if values.setdefault(name, value) != value:
                raise ConfigError(f"{name} = {values[name]} does not match "
                                  f"{name} = {value} of {ckpt.path}")
    return build(RunConfig, values, model=build(ModelConfig, values),
                 train=build(TrainConfig, values))


def _read_manifest(path: str, mc: ModelConfig, scored: bool) -> dat.Manifest:
    """The manifest at ``path``, each image checked by `_read_image`; a
    ``scored`` one needs the n >= 2 and two distinct scores of `evaluate`."""
    manifest = dat.read_manifest(path)
    if scored and len(manifest) < 2:
        raise ValueError(f"{path}: evaluate needs a manifest with n >= 2")
    if scored and np.ptp(manifest.scores()) == 0:
        raise ValueError(f"{path}: evaluate needs two distinct scores")
    for s in manifest:
        _read_image(s.image_ref, mc)
    return manifest


def _read_image(path: str, mc: ModelConfig) -> np.ndarray:
    """The image file at ``path``, in the model's channels and holding its crop."""
    image = dat.read_image(path)
    c, h, w = image.shape
    if c != mc.channels:
        raise ValueError(f"{path}: image has {c} channels, the model takes "
                         f"{mc.channels}")
    if h < mc.crop_hw or w < mc.crop_hw:
        raise ValueError(f"{path}: image {h}x{w} smaller than crop {mc.crop_hw}")
    return image


def _prepare_out(cfg: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    with dat.atomic_write(os.path.join(out_dir, "config.txt")) as fh:
        fh.write(cfg.text())
    return out_dir


# -- commands -----------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, args) -> int:
    kinds = [k.strip() for k in cfg.kinds.split(",") if k.strip()]
    manifest = dat.gen_synthetic_dataset(cfg.bases, cfg.levels, kinds,
                                         Rng(("gen", cfg.train.seed)),
                                         hw=cfg.image_hw)
    out = _prepare_out(cfg, args.out)
    file_manifest = dat.materialize(manifest, out)
    dat.write_manifest(os.path.join(out, "manifest.csv"), file_manifest)
    print(f"wrote {len(file_manifest)} samples to {out}")
    return 0


def cmd_train(cfg: RunConfig, args, ckpt=None, model=None) -> int:
    manifest = _read_manifest(args.manifest, cfg.model, scored=True)
    test_manifest = (_read_manifest(args.test_manifest, cfg.model, scored=True)
                     if args.test_manifest else None)
    if ckpt is None:
        model = init_model(cfg.model, Rng(("model", cfg.train.seed)),
                           dtype=cfg.train.dtype)
    elif ckpt.optimizer is None:
        raise CheckpointError(f"{ckpt.path}: checkpoint carries no optimizer state")
    state = ckpt.optimizer if ckpt else OptimizerState.init(model.named_parameters())
    out = _prepare_out(cfg, args.out)
    log = fit(model, manifest, cfg.train, state=state)
    log.write(os.path.join(out, "train.log"))
    save_checkpoint(os.path.join(out, "model.ckpt"), model, optimizer=state)
    svg_line(os.path.join(out, "loss.svg"), log.losses(), title="loss per step")
    for name, data in (("train", manifest), ("test", test_manifest)):
        if data is not None:
            report = evaluate(model, data, crops_per_image=cfg.eval_crops,
                              seed=cfg.train.seed)
            print(f"{name} srcc={report.srcc:.6f} plcc={report.plcc:.6f}")
    return 0


def cmd_eval(cfg: RunConfig, args, ckpt, model) -> int:
    manifest = _read_manifest(args.manifest, cfg.model, scored=True)
    report = evaluate(model, manifest, crops_per_image=cfg.eval_crops,
                      seed=cfg.train.seed)
    out = _prepare_out(cfg, args.out)
    report.write(os.path.join(out, "eval.txt"))
    svg_scatter(os.path.join(out, "scatter.svg"), report.labels,
                report.predictions, title="label vs prediction")
    print(f"n={report.n} srcc={report.srcc:.6f} plcc={report.plcc:.6f}")
    return 0


def cmd_protocol(cfg: RunConfig, args) -> int:
    manifest = _read_manifest(args.manifest, cfg.model, scored=False)
    if len(manifest.groups()) < 2:
        raise ValueError(f"{args.manifest}: need at least 2 groups to split")
    report = proto.PROTOCOLS[cfg.mode](
        manifest, cfg.model, cfg.train, repeats=cfg.repeats,
        eval_crops=cfg.eval_crops, train_frac=cfg.train_frac)
    report.write(os.path.join(_prepare_out(cfg, args.out), "protocol.txt"))
    for line in report.lines():
        print(line)
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    mc, seed = cfg.model, cfg.train.seed
    model = init_model(mc, Rng(("model", seed)), dtype=np.float64)
    rng = Rng(("gradcheck", seed))
    img = Tensor(rng.uniform((1, mc.channels, mc.crop_hw, mc.crop_hw)))

    def loss():
        return smooth_l1(forward_scores(model, img), np.array([0.7]),
                         beta=cfg.train.smooth_l1_beta)

    err = grad_check(loss, model.named_parameters(), eps=args.eps)
    print(f"max_rel_error={err:.3e} eps={args.eps:.1e} "
          f"params={sum(p.size for p in model.named_parameters().values())}")
    return 0 if err <= args.tolerance else 1


def cmd_panel_sim(cfg: RunConfig, args, ckpt, model) -> int:
    manifest = _read_manifest(args.manifest, cfg.model, scored=False)
    diag = panel_cosine(model, manifest)
    out = _prepare_out(cfg, args.out)
    diag.write(os.path.join(out, "panel.txt"))
    svg_heatmap(os.path.join(out, "panel.svg"), diag.cosine,
                title="panel cosine similarity")
    print(f"mean_offdiag={diag.mean_offdiag():.6f} "
          f"mean_spread={diag.score_spread.mean():.6e}")
    return 0


def cmd_attn_map(cfg: RunConfig, args, ckpt, model) -> int:
    image = _read_image(args.image, model.config)
    amap = attention_map(model, Tensor(center_crop(image, model.config.crop_hw)))
    out = _prepare_out(cfg, args.out)
    svg_heatmap(os.path.join(out, "attn.svg"), amap, title="quality attention")
    dat.write_ppm(os.path.join(out, "attn.ppm"), np.repeat(amap[None], 3, axis=0))
    print(f"attention map {amap.shape[0]}x{amap.shape[1]} written to {out}")
    return 0


# -- argument parsing ---------------------------------------------------------

_REQUIRED = {"required": True}

# subcommand -> help text, the flag naming the checkpoint it reads (if any)
# and its command-only flags. `main` loads that checkpoint and its model and
# hands both to the module's cmd_<subcommand>, dashes read as underscores
COMMANDS = {
    "gen-data": ("generate a synthetic labeled corpus", None, {}),
    "train": ("fine-tune a model on a manifest", "resume",
              {"--manifest": _REQUIRED, "--test-manifest": {},
               "--resume": {"help": "checkpoint to continue from"}}),
    "eval": ("evaluate a checkpoint on a manifest", "checkpoint",
             {"--checkpoint": _REQUIRED, "--manifest": _REQUIRED}),
    "protocol": ("repeat/ablation experiment protocols", None,
                 {"--manifest": _REQUIRED}),
    "gradcheck": ("finite-difference check of all gradients", None,
                  {"--eps": {"type": float, "default": 1e-4},
                   "--tolerance": {"type": float, "default": 1e-4}}),
    "panel-sim": ("panel cosine-similarity diagnostics", "checkpoint",
                  {"--checkpoint": _REQUIRED, "--manifest": _REQUIRED}),
    "attn-map": ("decoder attention heat map for one image", "checkpoint",
                 {"--checkpoint": _REQUIRED, "--image": _REQUIRED}),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelqa",
        description="Blind image quality assessment with an attention-panel "
                    "transformer")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", default="out", help="output directory")
        for name in SCHEMA:
            p.add_argument("--" + name.replace("_", "-"), default=None,
                           dest=name)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        path = vars(args).get(COMMANDS[args.command][1])
        ckpt = load_checkpoint(path) if path else None
        loaded = (ckpt, build_model(ckpt)) if ckpt else ()
        cfg = build_run_config(args, ckpt)
        # looked up at call time, so a wrapper installed on the module runs
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(cfg, args, *loaded)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Output fingerprint: hashes of what the CLI writes and of short training
runs, for checking that a change keeps every output byte-identical.

    python3 tools/outputs.py DIR > outputs.txt

Runs the command list of ``tools/reach.py`` (a toy corpus, every command and
each protocol mode) into the new directory ``DIR``. For each run it prints the
exit code and the sha256 of its stdout and stderr, then ``sha256 path`` for
every file written under ``DIR``. Then it prints a hash over the losses,
gradient norms and final parameters of a 12-step criterion-7 fit in float32
and in float64, and the sha256 of the float32 fit's checkpoint saved with its
optimizer state (written into ``DIR`` after the file list), which pins the
moment records. Last, it prints a hash over the image bytes of a second
synthetic corpus (3 base images, every distortion kind at 5 levels, 24 x 24
pixels), so that the data generator is covered at a schedule other than the
toy corpus's, and for each variant a hash over the names and bytes of
``init_model``'s parameters, in float32 and float64, at the criterion-7 shape
with ``decoder_depth`` 2, so that a model change shows which variants it
moved. Output paths appear in stdout, so compare two
trees by running each into the same ``DIR`` (remove it in between) and
diffing the two prints. It exits 1 if a run failed. It takes a few seconds
and is not part of the test suite.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reach  # noqa: E402  (sets the thread count and the import path)

FIT_STEPS = 12


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return sha(fh.read())


def run_commands(out_dir: str) -> bool:
    from panelqa import cli
    ok = True
    for argv in reach.commands(out_dir):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        ok &= code == 0
        print(f"exit={code} stdout={sha(out.getvalue().encode())} "
              f"stderr={sha(err.getvalue().encode())}  {' '.join(argv)}")
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            print(f"{file_sha(path)}  {path}")
    return ok


def fit_hash(precision: int, ckpt_path: str | None = None) -> str:
    """The criterion-7 recipe of the ``train_c7`` benchmark workload, on a
    smaller corpus, at seed 1; saves the model and its optimizer state to
    ``ckpt_path`` if one is given."""
    import numpy as np
    from panelqa import checkpoint, data, model, training
    from panelqa.tensor import Rng
    from workloads import C7
    corpus = data.gen_synthetic_dataset(40, 5, ["contrast_reduction"],
                                        Rng(("train_c7", 1)), hw=24)
    train, _ = data.split(corpus, 0.8, 1)
    cfg = training.TrainConfig(epochs=4, base_lr=3e-3, batch_size=32,
                               crops_per_image=2, seed=1, precision=precision)
    m = model.init_model(C7, Rng(("model", 1)), dtype=cfg.dtype)
    state = training.OptimizerState.init(m.named_parameters())
    log = training.fit(m, train, cfg, max_steps=FIT_STEPS, state=state)
    if ckpt_path is not None:
        checkpoint.save_checkpoint(ckpt_path, m, optimizer=state)
    h = hashlib.sha256(log.losses().tobytes())
    h.update(np.array([r.grad_norm for r in log.records]).tobytes())
    for name, p in sorted(m.named_parameters().items()):
        h.update(name.encode() + p.data.tobytes())
    return h.hexdigest()


def corpus_hash() -> str:
    """The data generator at a schedule the toy corpus does not use."""
    from panelqa import data
    from panelqa.tensor import Rng
    corpus = data.gen_synthetic_dataset(3, 5, data.DISTORTION_KINDS,
                                        Rng(("outputs", 1)), hw=24)
    h = hashlib.sha256()
    for sample in corpus:
        h.update(sample.image_ref.tobytes())
    return h.hexdigest()


def init_hash(variant: str) -> str:
    """Every initializer of ``variant``, at a shape the toy config does not
    use."""
    import dataclasses
    import numpy as np
    from panelqa import model
    from panelqa.tensor import Rng
    from workloads import C7
    h = hashlib.sha256()
    cfg = dataclasses.replace(C7, decoder_depth=2, variant=variant)
    for dtype in (np.float32, np.float64):
        m = model.init_model(cfg, Rng(("init", variant)), dtype=dtype)
        for name, p in m.named_parameters().items():
            h.update(name.encode() + p.data.tobytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or os.path.exists(argv[0]):
        print("usage: outputs.py DIR  (DIR must not exist)", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(argv[0])
    os.makedirs(out_dir)
    ok = run_commands(out_dir)
    ckpt = os.path.join(out_dir, f"fit-float32-{FIT_STEPS}-steps.ckpt")
    for precision in (32, 64):
        print(f"{fit_hash(precision, ckpt if precision == 32 else None)}  "
              f"fit-float{precision}-{FIT_STEPS}-steps")
    print(f"{file_sha(ckpt)}  {os.path.basename(ckpt)}")
    print(f"{corpus_hash()}  corpus-3x5-hw24")
    from panelqa import encoder
    for variant in encoder.VARIANTS:
        print(f"{init_hash(variant)}  init-c7-depth2-{variant}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

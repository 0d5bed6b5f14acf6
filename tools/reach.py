"""Reachability sweep: which statements of ``src/panelqa`` does no command,
protocol mode or benchmark workload run?

    python3 tools/reach.py

In one process, under ``sys.settrace`` and inside a temporary directory, it
runs every CLI command on a toy corpus (with ``--config``, ``train
--test-manifest``, ``train --resume``, a float32 ``train`` with
``normalize_scores``, each variant, each protocol mode) and the three
``perfbench`` workloads in smoke mode. It then prints, for each module, the
lines of each function that never ran; a function that was never called is
one line, marked ``(perfbench wraps it)`` when the benchmark's tracer
(``tracing.TARGETS``) wraps it, so it stays until the benchmark drops that
wrap. Input checks that only a malformed input reaches, and helpers that
only the tests call, are listed too: the sweep finds candidates, and reading
the code decides what is dead. Last it prints the package's size, the
non-blank lines of ``src/panelqa/*.py``, and the tape nodes (``Tensor._make``
calls) of one criterion-7 ``forward_panel`` on a batch of 2 float32 images,
in total and per op.
It takes a few seconds and is not part of the test suite.
"""
from __future__ import annotations

import contextlib
import dis
import io
import os
import sys
import tempfile
import time
from collections import Counter, defaultdict

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "panelqa")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

TOY_CFG = """\
patch_size = 4
token_dim = 16
heads = 2
encoder_depth = 2
decoder_depth = 1
panel_size = 3
mlp_ratio = 2.0
crop_hw = 12
epochs = 2  # so that train reads each image in more than one epoch
batch_size = 8
crops_per_image = 1
bases = 4
levels = 3
image_hw = 16
eval_crops = 1
repeats = 1
"""

hits: dict[str, set[int]] = defaultdict(set)


def _trace_line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_call(frame, event, arg):
    """Traces the frames of the package's own files only. The call marks
    the first line, so a one-line lambda counts as run."""
    if not frame.f_code.co_filename.startswith(PKG + os.sep):
        return None
    hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def commands(tmp: str) -> list[list[str]]:
    """Each CLI run of the sweep; every one must exit 0."""
    cfg = os.path.join(tmp, "toy.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(TOY_CFG)
    from panelqa.protocols import PROTOCOLS
    from panelqa.encoder import VARIANTS

    def out(name: str) -> list[str]:
        return ["--config", cfg, "--out", os.path.join(tmp, name)]

    data = os.path.join(tmp, "data", "manifest.csv")
    ckpt = os.path.join(tmp, "run", "model.ckpt")
    runs = [["gen-data", *out("data")],
            ["train", "--manifest", data, "--test-manifest", data, *out("run")],
            ["train", "--manifest", data, "--resume", ckpt, *out("resumed")],
            ["train", "--manifest", data, "--precision", "32",
             "--normalize-scores", "true", *out("run32")],
            ["eval", "--checkpoint", ckpt, "--manifest", data, *out("eval")],
            ["panel-sim", "--checkpoint", ckpt, "--manifest", data,
             *out("panel")],
            ["attn-map", "--checkpoint", ckpt, "--image",
             os.path.join(tmp, "data", "img00000.ppm"), *out("attn")],
            ["gradcheck", "--token-dim", "4", "--encoder-depth", "1",
             "--panel-size", "2", "--mlp-ratio", "1.0", "--crop-hw", "4",
             "--channels", "1", *out("gradcheck")]]
    runs += [["train", "--manifest", data, "--variant", v, *out(f"run-{v}")]
             for v in VARIANTS if v != "full"]
    runs += [["protocol", "--manifest", data, "--mode", mode,
              *out(f"protocol-{mode}")] for mode in PROTOCOLS]
    return runs


def sweep(tmp: str) -> None:
    """Imports the package under the tracer, so that its module-level
    statements count, then runs every command and workload."""
    from panelqa import cli
    import tracing
    import workloads
    for argv in commands(tmp):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"panelqa {argv[0]} exited with {code}: "
                             f"{err.getvalue().strip()}")
    for name in workloads.WORKLOADS:
        workloads.run(name, 1, 0.0, False, True, os.path.join(tmp, name),
                      tracing.Tracer())


def forward_nodes() -> Counter:
    """Tape nodes (``Tensor._make`` calls, as the benchmark's tracer counts
    them) that one criterion-7 ``forward_panel`` records with gradients on,
    for a batch of 2 float32 images, by op name."""
    import numpy as np
    from panelqa.model import forward_panel, init_model
    from panelqa.tensor import Rng, Tensor
    from workloads import C7
    model = init_model(C7, Rng(0), dtype=np.float32)
    made: Counter = Counter()
    make = Tensor.__dict__["_make"]

    def counted(data, parents, vjp):
        # an op is named by its vjp
        made[vjp.__qualname__.split(".<locals>")[0]] += 1
        return make.__func__(data, parents, vjp)

    Tensor._make = staticmethod(counted)
    try:
        forward_panel(model, Tensor(np.zeros((2, 3, 16, 16), np.float32)))
    finally:
        Tensor._make = make
    return made


def statement_lines(code) -> set[int]:
    """Lines that hold an instruction of ``code`` after its prologue (the
    instructions up to RESUME, which belong to the ``def`` line)."""
    instructions = list(dis.get_instructions(code))
    start = next((i + 1 for i, ins in enumerate(instructions)
                  if ins.opname == "RESUME"), 0)
    return {ins.positions.lineno for ins in instructions[start:]
            if ins.positions and ins.positions.lineno}


def runs_of(lines: list[int]) -> list[tuple[int, int]]:
    out = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1] = (out[-1][0], line)
        else:
            out.append((line, line))
    return out


def traced() -> set[tuple[str, int]]:
    """(file, first line) of each function that perfbench's tracer wraps."""
    import tracing
    codes = [owner.__dict__[attr].__code__ for owner, attr, _ in tracing.TARGETS]
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def report(path: str, wrapped: set[tuple[str, int]]) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    reached = hits.get(path, set())
    out = []

    def visit(code, shown: set[int]) -> None:
        """Reports the lines of ``code`` that never ran, leaving out those
        an enclosing function already reported (``shown``)."""
        lines = statement_lines(code)
        missed = sorted(lines - reached - shown)
        name = getattr(code, "co_qualname", code.co_name)
        if missed and lines <= set(missed) and code.co_name != "<module>":
            mark = (" (perfbench wraps it)"
                    if (path, code.co_firstlineno) in wrapped else "")
            out.append(f"  {name}: never called (line {code.co_firstlineno})"
                       + mark)
            shown = shown | set(range(code.co_firstlineno, max(lines) + 1))
        elif missed:
            out.append(f"  {name}:")
            for first, last in runs_of(missed):
                span = f"{first}" if first == last else f"{first}-{last}"
                out.append(f"    {span:>9}  {text[first - 1].strip()}")
            shown = shown | set(missed)
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                visit(const, shown)

    visit(compile(source, path, "exec"), set())
    return out


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        sys.settrace(_trace_call)
        try:
            sweep(tmp)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    wrapped, nonblank = traced(), 0
    for module in sorted(os.listdir(PKG)):
        if module.endswith(".py"):
            path = os.path.join(PKG, module)
            lines = report(path, wrapped)
            print(module + (":" if lines else ": every statement ran"))
            for line in lines:
                print(line)
            with open(path, encoding="utf-8") as fh:
                nonblank += sum(1 for row in fh if row.strip())
    print(f"# {nonblank} non-blank lines in src/panelqa/*.py")
    nodes = forward_nodes()
    print(f"# {sum(nodes.values())} tape nodes per criterion-7 forward_panel: "
          + ", ".join(f"{op} {n}" for op, n in nodes.most_common()))
    print(f"# swept in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

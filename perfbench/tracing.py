"""Span tracer that times panelqa's layers from outside the package.

`Tracer.install()` replaces each traced function at the module attribute its
callers look it up through (its import site) with a wrapper that records a
span; `Tracer.uninstall()` puts the originals back. Spans stay in memory as
``[name, start, end, parent, op, made]`` lists: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the timed operation the span belongs
to (an int; -1 during set-up; None for untimed checks) and ``made`` the
number of tape ops (`Tensor._make` calls) created inside the span.
"""
from __future__ import annotations

import gzip
import time
from collections import defaultdict

import panelqa.checkpoint as checkpoint
import panelqa.cli as cli
import panelqa.data as data
import panelqa.decoder as decoder
import panelqa.encoder as encoder
import panelqa.metrics as metrics
import panelqa.model as model
import panelqa.tensor as tensor
import panelqa.training as training

SETUP_OP = -1

# (owner, attribute, layer). A function reached through several import
# sites is wrapped at each of them under one layer name.
TARGETS = [
    (tensor.Tensor, "backward", "tensor.backward"),
    (encoder, "gelu", "tensor.gelu"),
    (decoder, "gelu", "tensor.gelu"),
    (encoder, "layer_norm", "tensor.layer_norm"),
    (decoder, "layer_norm", "tensor.layer_norm"),
    (encoder, "softmax_lastdim", "tensor.softmax_lastdim"),
    (encoder, "matmul", "tensor.matmul"),
    (decoder, "matmul", "tensor.matmul"),
    (encoder, "embed", "encoder.embed"),
    (encoder, "encoder_block", "encoder.encoder_block"),
    (encoder, "attention", "encoder.attention"),
    (decoder, "attention", "encoder.attention"),
    (decoder, "make_queries", "decoder.make_queries"),
    (decoder, "cross_attend", "decoder.cross_attend"),
    (decoder, "score_head", "decoder.score_head"),
    (model, "forward_panel", "model.forward_panel"),
    (metrics, "forward_panel", "model.forward_panel"),
    (model, "forward_scores", "model.forward_scores"),
    (training, "forward_scores", "model.forward_scores"),
    (training, "optimizer_step", "training.optimizer_step"),
    (training, "smooth_l1", "training.smooth_l1"),
    (training, "sample_crops", "training.sample_crops"),
    (metrics, "sample_crops", "training.sample_crops"),
    (training, "fit", "training.fit"),
    (data, "read_image", "data.read_image"),
    (data, "read_manifest", "data.read_manifest"),
    (data, "gen_synthetic_dataset", "data.gen_synthetic_dataset"),
    (data, "materialize", "data.materialize"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "srcc", "metrics.srcc"),
    (metrics, "attention_map", "metrics.attention_map"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (cli, "cmd_gen_data", "cli.gen_data"),
]

# Layers of the timed operations: metric name of the self time per op. Each
# also gets `<layer>.call_ms`, the self time per call. `decoder.attention`
# is `encoder.attention` reached from inside a decoder span (see `_owner`).
TIMED = {
    "tensor.backward": "tensor.backward.ms",
    "tensor.gelu": "tensor.gelu.ms",
    "tensor.layer_norm": "tensor.layer_norm.ms",
    "tensor.softmax_lastdim": "tensor.softmax_lastdim.ms",
    "tensor.matmul": "tensor.matmul.ms",
    "encoder.embed": "encoder.embed.ms",
    "encoder.encoder_block": "encoder.encoder_block.ms",
    "encoder.attention": "encoder.attention.ms",
    "decoder.attention": "decoder.attention.ms",
    "decoder.make_queries": "decoder.make_queries.ms",
    "decoder.cross_attend": "decoder.cross_attend.ms",
    "decoder.score_head": "decoder.score_head.ms",
    "model.forward_panel": "model.forward_panel.ms",
    "model.forward_scores": "model.forward_scores.ms",
    "training.optimizer_step": "training.optimizer_step.ms",
    "training.smooth_l1": "training.smooth_l1.ms",
    "training.sample_crops": "training.sample_crops.ms",
    "training.fit": "training.fit.self_ms",
    "data.read_image": "data.read_image.ms",
    "data.read_manifest": "data.read_manifest.ms",
    "metrics.evaluate": "metrics.evaluate.self_ms",
    "metrics.srcc": "metrics.srcc.ms",
    "metrics.attention_map": "metrics.attention_map.self_ms",
}

# Layers of set-up: metric name and seconds-to-unit scale, per set-up round.
SETUP = {
    "data.gen_synthetic_dataset": ("data.gen_synthetic_dataset.s", 1.0),
    "data.materialize": ("data.materialize.s", 1.0),
    "checkpoint.save": ("checkpoint.save.ms", 1e3),
    "checkpoint.load": ("checkpoint.load.ms", 1e3),
    "cli.gen_data": ("cli.gen_data.s", 1.0),
}


def _owner(spans, span) -> str:
    """Layer that owns a span. Attention reached from a decoder span (the
    query block reaches it through `mhsa`) belongs to the decoder."""
    name = span[0]
    if name == "encoder.attention":
        parent = span[3]
        while parent >= 0:
            if spans[parent][0].startswith("decoder."):
                return "decoder.attention"
            parent = spans[parent][3]
    return name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.made = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    self.made]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[5] = self.made - span[5]

        return traced

    def _counting_make(self, make):
        def counted(*args, **kwargs):
            self.made += 1
            return make(*args, **kwargs)

        return staticmethod(counted)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        make = tensor.Tensor.__dict__["_make"]
        self._saved.append((tensor.Tensor, "_make", make))
        setattr(tensor.Tensor, "_make", self._counting_make(make.__func__))
        for owner, attr, layer in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """{(owner layer, op class): [self seconds, calls, ops made]} where the
        op class is "timed", "setup" or "check"."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, made in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0, 0])
        for i, span in enumerate(self.spans):
            op = span[4]
            kind = ("check" if op is None else
                    "setup" if op == SETUP_OP else "timed")
            acc = out[(_owner(self.spans, span), kind)]
            acc[0] += span[2] - span[1] - child[i]
            acc[1] += 1
            acc[2] += span[5]
        return dict(out)

    def layer_metrics(self, timed_ops: int, setup_rounds: int) -> dict:
        """Per-layer metrics: self time per timed op and per call for the
        timed layers, per set-up round for the set-up layers, and tape ops
        created per model forward."""
        st = self.self_times()
        out = {}
        for layer, name in TIMED.items():
            total, calls, _ = st.get((layer, "timed"), (0.0, 0, 0))
            out[name] = 1e3 * total / timed_ops if timed_ops else 0.0
            out[f"{layer}.call_ms"] = 1e3 * total / calls if calls else 0.0
        for layer, (name, scale) in SETUP.items():
            total = st.get((layer, "setup"), (0.0, 0, 0))[0]
            out[name] = scale * total / setup_rounds if setup_rounds else 0.0
        _, calls, made = st.get(("model.forward_panel", "timed"), (0.0, 0, 0))
        out["tensor.nodes_per_forward"] = made / calls if calls else 0.0
        return out

    def write(self, path: str) -> None:
        """Spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op,made\n")
            for i, (name, t0, t1, parent, op, made) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},"
                         f"{'' if op is None else op},{made}\n")

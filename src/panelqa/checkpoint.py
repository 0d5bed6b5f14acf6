"""Binary checkpoints: bit-exact, seekable, language-neutral.

Layout (all integers little-endian):
  magic "DEIQ" | u32 version | u32 config_len | config utf-8 | u64 step |
  u8 has_optimizer | u32 n_tensors | tensor records
Tensor record: u32 name_len | name utf-8 | u8 dtype (1=f32, 2=f64) |
  u32 rank | rank x u64 dims | raw little-endian element bytes.
Optimizer moments are "opt.m." / "opt.v." records, present iff has_optimizer=1.
Every tensor has the model's dtype, float32 or float64; the writer refuses
and the reader rejects a file that mixes dtypes.
The config is the model's ``key = value`` text, written and read by
``panelqa.config`` like ``config.txt``; a header must name every
``ModelConfig`` key, and a malformed one fails naming the file and the key.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import keys, parse, write
from .data import atomic_write
from .encoder import ModelConfig
from .model import QualityTransformer, init_model
from .tensor import Rng, Tensor
from .training import OptimizerState

MAGIC = b"DEIQ"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


class CheckpointError(IOError):
    pass


@dataclass
class Checkpoint:
    path: str   # the file it was read from, named by every error
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    step: int = 0
    opt_m: Optional[dict[str, np.ndarray]] = None
    opt_v: Optional[dict[str, np.ndarray]] = None


def _read_config(path: str, raw: bytes) -> ModelConfig:
    """The header's model config; every key must be present."""
    try:
        values = parse(raw.decode(), keys(ModelConfig), "header")
        missing = [k for k in keys(ModelConfig) if k not in values]
        if missing:
            raise ValueError(f"missing config key {missing[0]!r}")
        return ModelConfig(**values)
    except ValueError as exc:   # ConfigError and UnicodeDecodeError too
        raise CheckpointError(f"{path}: bad config header: {exc}") from None


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode()
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


class _Reader:
    """Reads a checkpoint's bytes front to back; every error names the file."""

    def __init__(self, path: str, raw: bytes):
        self.path, self.raw, self.pos, self.names = path, memoryview(raw), 0, set()

    def error(self, message: str) -> CheckpointError:
        return CheckpointError(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.raw) - self.pos:
            raise self.error(f"truncated checkpoint while reading {what}: "
                             f"{n} bytes claimed, {len(self.raw) - self.pos} "
                             f"left at byte {self.pos}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def uint(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def tensor(self, index: int) -> tuple[str, np.ndarray]:
        """One tensor record; its errors also name the tensor and the byte
        offset where the record starts."""
        start = self.pos
        where = f"tensor record {index} at byte {start}"
        name = self.take(self.uint("<I", f"name length of {where}"),
                         f"name of {where}")
        try:
            name = bytes(name).decode()
        except UnicodeDecodeError:
            raise self.error(f"{where}: name is not UTF-8") from None
        where = f"tensor {name} at byte {start}"
        if name in self.names:
            raise self.error(f"{where}: repeats an earlier record's name")
        self.names.add(name)
        code = self.uint("<B", f"dtype code of {where}")
        if code not in _CODE_DTYPES:
            raise self.error(f"{where}: unknown dtype code {code}")
        rank = self.uint("<I", f"rank of {where}")
        dims = struct.unpack(f"<{rank}Q", self.take(8 * rank, f"dims of {where}"))
        dtype = _CODE_DTYPES[code]
        # a product of Python integers cannot overflow, so no claim passes
        # the length check by wrapping around
        data = self.take(math.prod(dims) * dtype.itemsize, f"data of {where}")
        try:
            return name, np.frombuffer(data, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:   # a zero dim beside one numpy cannot hold
            raise self.error(f"{where}: bad dims {dims}: {exc}") from None


def _check_dtypes(path: str, records: list[tuple[str, np.ndarray]]) -> None:
    """Every record is float32 or float64, in the first record's dtype."""
    for name, arr in records:
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: tensor {name} is {arr.dtype}; a "
                                  f"checkpoint holds float32 or float64")
        first, dtype = records[0][0], records[0][1].dtype
        if arr.dtype != dtype:
            raise CheckpointError(
                f"{path}: tensor {name} is {arr.dtype}, but the first tensor "
                f"{first} is {dtype}; a checkpoint holds one dtype")


def save_checkpoint(path: str, model: QualityTransformer,
                    optimizer: Optional[OptimizerState] = None) -> None:
    """The header's step is the optimizer's, or 0 without one. The dtypes are
    checked before anything is written."""
    params = model.named_parameters()
    records: list[tuple[str, np.ndarray]] = [(k, p.data) for k, p in params.items()]
    if optimizer is not None:
        records += [(f"opt.m.{k}", v) for k, v in optimizer.m.items()]
        records += [(f"opt.v.{k}", v) for k, v in optimizer.v.items()]
    _check_dtypes(path, records)
    cfg_bytes = write(model.config).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<Q", 0 if optimizer is None else optimizer.step))
        fh.write(struct.pack("<B", 1 if optimizer is not None else 0))
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records:
            _write_tensor(fh, name, arr)


def load_checkpoint(path: str) -> Checkpoint:
    """Every size in the file is checked against the bytes that remain before
    it is read; a malformed file raises ``CheckpointError`` naming it."""
    with open(path, "rb") as fh:
        r = _Reader(path, fh.read())
    magic = bytes(r.raw[:4])
    if magic != MAGIC:
        raise r.error(f"bad magic {magic!r}, not a checkpoint")
    r.pos = 4
    version = r.uint("<I", "version")
    if version != VERSION:
        raise r.error(f"unsupported checkpoint version {version}")
    config = _read_config(path, bytes(r.take(r.uint("<I", "config length"),
                                             "config")))
    step = r.uint("<Q", "step")
    flag_at = r.pos
    has_opt = r.uint("<B", "optimizer flag")
    records = [r.tensor(i) for i in range(r.uint("<I", "tensor count"))]
    if r.pos < len(r.raw):
        raise r.error(f"{len(r.raw) - r.pos} trailing bytes at byte {r.pos}")
    _check_dtypes(path, records)
    tensors, opt_m, opt_v = {}, {}, {}
    for name, arr in records:
        if name.startswith("opt.m."):
            opt_m[name[6:]] = arr
        elif name.startswith("opt.v."):
            opt_v[name[6:]] = arr
        else:
            tensors[name] = arr
    if has_opt != bool(opt_m or opt_v):   # 1 exactly when opt.* records follow
        raise r.error(f"optimizer flag {has_opt} at byte {flag_at} does not "
                      f"match the {len(opt_m) + len(opt_v)} opt.* records")
    return Checkpoint(path=path, config=config, tensors=tensors, step=step,
                      opt_m=opt_m if has_opt else None,
                      opt_v=opt_v if has_opt else None)


def _check_records(path: str, stored: dict[str, np.ndarray],
                   params: dict[str, Tensor], prefix: str = "") -> None:
    """``stored`` holds one array of each parameter's shape and nothing else;
    errors name the file and the records."""
    missing = sorted(params.keys() - stored.keys())
    extra = sorted(stored.keys() - params.keys())
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor name mismatch: missing="
            f"{[prefix + k for k in missing]} extra={[prefix + k for k in extra]}")
    for name, p in params.items():
        if stored[name].shape != p.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for tensor {prefix}{name}: checkpoint "
                f"{stored[name].shape} vs model {p.shape}")


def build_model(ckpt: Checkpoint) -> QualityTransformer:
    """Reconstruct the model from a checkpoint, in the dtype of its tensors."""
    dtype = next(iter(ckpt.tensors.values())).dtype if ckpt.tensors else np.float64
    model = init_model(ckpt.config, Rng(0), dtype=dtype)
    params = model.named_parameters()
    _check_records(ckpt.path, ckpt.tensors, params)
    for name, p in params.items():
        p.data = ckpt.tensors[name].astype(dtype)
    return model


def load_optimizer(ckpt: Checkpoint, params: dict[str, Tensor]) -> OptimizerState:
    """The AdamW state of ``params``: both moments of every parameter."""
    if ckpt.opt_m is None:
        raise CheckpointError(f"{ckpt.path}: checkpoint carries no optimizer state")
    for prefix, stored in (("opt.m.", ckpt.opt_m), ("opt.v.", ckpt.opt_v)):
        _check_records(ckpt.path, stored, params, prefix)
    return OptimizerState(m={k: ckpt.opt_m[k].copy() for k in params},
                          v={k: ckpt.opt_v[k].copy() for k in params},
                          step=ckpt.step)


def load_encoder_weights(model: QualityTransformer, ckpt: Checkpoint) -> int:
    """Copy matching encoder-schema tensors (embedding.* / enc_blocks.*) from
    an external checkpoint into the model; returns how many were loaded."""
    params = model.named_parameters()
    found = {k: arr for k, arr in ckpt.tensors.items()
             if k.startswith(("embedding.", "enc_blocks.")) and k in params}
    _check_records(ckpt.path, found, {k: params[k] for k in found})
    for name, arr in found.items():
        params[name].data = arr.astype(params[name].data.dtype)
    return len(found)

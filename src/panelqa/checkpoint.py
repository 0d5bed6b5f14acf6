"""Binary checkpoints: bit-exact, seekable, language-neutral.

Layout (all integers little-endian):
  magic "DEIQ" | u32 version | u32 config_len | config utf-8 | u64 step |
  u8 has_optimizer | u32 n_tensors | tensor records
Tensor record: u32 name_len | name utf-8 | u8 dtype (1=f32, 2=f64) |
  u32 rank | rank x u64 dims | raw little-endian element bytes.
Optimizer moment tensors are stored with "opt.m." / "opt.v." name prefixes.
Every tensor has the model's dtype; a file that mixes dtypes is rejected.
The config is the model's ``key = value`` text, written and read by
``panelqa.config`` like ``config.txt``; a header must name every
``ModelConfig`` key, and a malformed one fails naming the file and the key.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import keys, parse, write
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
    version: int
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


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))
    name = _read_exact(fh, nlen, "tensor name").decode()
    (code,) = struct.unpack("<B", _read_exact(fh, 1, "dtype code"))
    if code not in _CODE_DTYPES:
        raise CheckpointError(f"unknown dtype code {code} for tensor {name}")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
    dims = [struct.unpack("<Q", _read_exact(fh, 8, "dim"))[0]
            for _ in range(rank)]
    dtype = _CODE_DTYPES[code]
    count = int(np.prod(dims)) if dims else 1
    raw = _read_exact(fh, count * dtype.itemsize, f"data of {name}")
    return name, np.frombuffer(raw, dtype=dtype).reshape(dims).copy()


def save_checkpoint(path: str, model: QualityTransformer,
                    optimizer: Optional[OptimizerState] = None,
                    step: int = 0) -> None:
    params = model.named_parameters()
    records: list[tuple[str, np.ndarray]] = [(k, p.data) for k, p in params.items()]
    if optimizer is not None:
        records += [(f"opt.m.{k}", v) for k, v in optimizer.m.items()]
        records += [(f"opt.v.{k}", v) for k, v in optimizer.v.items()]
        step = optimizer.step
    cfg_bytes = write(model.config).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<Q", step))
        fh.write(struct.pack("<B", 1 if optimizer is not None else 0))
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records:
            _write_tensor(fh, name, arr)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(
                f"{path}: bad magic {magic!r}, not a checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        config = _read_config(path, _read_exact(fh, clen, "config"))
        (step,) = struct.unpack("<Q", _read_exact(fh, 8, "step"))
        (has_opt,) = struct.unpack("<B", _read_exact(fh, 1, "optimizer flag"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors, opt_m, opt_v = {}, {}, {}
        for i in range(count):
            name, arr = _read_tensor(fh)
            if i == 0:
                first = (name, arr.dtype)
            elif arr.dtype != first[1]:
                raise CheckpointError(
                    f"{path}: tensor {name} is {arr.dtype}, but the first "
                    f"tensor {first[0]} is {first[1]}; a checkpoint holds "
                    f"one dtype")
            if name.startswith("opt.m."):
                opt_m[name[6:]] = arr
            elif name.startswith("opt.v."):
                opt_v[name[6:]] = arr
            else:
                tensors[name] = arr
    return Checkpoint(version=version, config=config, tensors=tensors,
                      step=step,
                      opt_m=opt_m if has_opt else None,
                      opt_v=opt_v if has_opt else None)


def build_model(ckpt: Checkpoint, config: Optional[ModelConfig] = None
                ) -> QualityTransformer:
    """Reconstruct the model from a checkpoint. A config, when given, must
    match the stored one; shape mismatches name the offending tensor."""
    if config is not None and config != ckpt.config:
        raise CheckpointError(
            f"config mismatch: checkpoint has {ckpt.config}, requested {config}")
    dtype = next(iter(ckpt.tensors.values())).dtype if ckpt.tensors else np.float64
    model = init_model(ckpt.config, Rng(0), dtype=dtype)
    params = model.named_parameters()
    missing = set(params) - set(ckpt.tensors)
    extra = set(ckpt.tensors) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"parameter name mismatch: missing={sorted(missing)} "
            f"extra={sorted(extra)}")
    for name, p in params.items():
        arr = ckpt.tensors[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for tensor {name}: checkpoint "
                f"{arr.shape} vs model {p.data.shape}")
        p.data = arr.astype(dtype)
    return model


def load_optimizer(ckpt: Checkpoint, params: dict[str, Tensor]) -> OptimizerState:
    if ckpt.opt_m is None:
        raise CheckpointError("checkpoint carries no optimizer state")
    state = OptimizerState.init(params)
    state.step = ckpt.step
    for name in params:
        if name not in ckpt.opt_m:
            raise CheckpointError(f"optimizer state missing for {name}")
        state.m[name] = ckpt.opt_m[name].copy()
        state.v[name] = ckpt.opt_v[name].copy()
    return state


def load_encoder_weights(model: QualityTransformer, ckpt: Checkpoint) -> int:
    """Copy matching encoder-schema tensors (embedding.* / enc_blocks.*) from
    an external checkpoint into the model; returns how many were loaded."""
    params = model.named_parameters()
    loaded = 0
    for name, arr in ckpt.tensors.items():
        if not name.startswith(("embedding.", "enc_blocks.")):
            continue
        if name not in params:
            continue
        target = params[name]
        if arr.shape != target.data.shape:
            raise CheckpointError(
                f"shape mismatch for tensor {name}: checkpoint "
                f"{arr.shape} vs model {target.data.shape}")
        target.data = arr.astype(target.data.dtype)
        loaded += 1
    return loaded

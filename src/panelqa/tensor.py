"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (encoder, decoder, training) is built from the handful
of primitives here. Each operation records its parents and a vector-Jacobian
callback on the output tensor; ``Tensor.backward`` replays them in reverse
topological order. Arrays are numpy, float32 or float64 per run.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on autodiff contract violations (non-scalar backward, etc.)."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN/Inf is detected where finiteness is required."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape recording (used by finite differences)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, extent in enumerate(shape)
        if extent == 1 and grad.shape[lead + i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional row-major array, optionally participating in gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _vjp: Optional[Callable] = None,
                 _op: str = "leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # -- tape plumbing -------------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate .grad of every requires_grad tensor reachable from self.

        Only valid on a scalar (single-element) tensor. The recorded tape is
        released afterwards so tensors can be reused.
        """
        if self.size != 1:
            raise GradError(
                f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            # release the tape entry
            node._parents = ()
            node._vjp = None

    # -- op construction -----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              vjp: Callable, op: str) -> "Tensor":
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if req:
            return Tensor(data, requires_grad=True, _parents=tuple(parents),
                          _vjp=vjp, _op=op)
        return Tensor(data, _op=op)

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = self.data + other.data
        a_shape, b_shape = self.shape, other.shape
        return Tensor._make(
            out, (self, other),
            lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)),
            "add")

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out = self.data * other.data
        a, b = self, other
        return Tensor._make(
            out, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape),
                       _unbroadcast(g * a.data, b.shape)),
            "mul")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        """Basic indexing by ints and slices only. Such a key never selects
        an element twice, so the backward is one scatter assignment."""
        for k in key if isinstance(key, tuple) else (key,):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer, slice)):
                raise TypeError(f"Tensor index must be an int or a slice, "
                                f"got {type(k).__name__} {k!r}")
        src = self

        def vjp(g):
            full = np.zeros_like(src.data)
            full[key] = g
            return (full,)

        return Tensor._make(np.ascontiguousarray(self.data[key]), (self,), vjp,
                            "slice")

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._make(self.data.reshape(shape), (self,),
                            lambda g: (g.reshape(old),), "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return Tensor._make(np.ascontiguousarray(self.data.transpose(axes)),
                            (self,),
                            lambda g: (g.transpose(inv),), "transpose")

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, src_shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, src_shape).copy(),)

        return Tensor._make(np.asarray(out), (self,), vjp, "sum")

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


# -- free-function primitives ------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes; with
    `bias` (2-D `b` only), the affine map ``a @ b + bias`` as one node."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    if bias is not None:
        if b.ndim != 2 or bias.shape != b.shape[-1:]:
            raise ShapeError(
                f"matmul bias {bias.shape} needs a 2-D weight, got {b.shape}")
        out += bias.data

    def vjp(g):
        if b.ndim == 2:
            # weight gradient as one GEMM: fold the leading axes into rows
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ b.data.T).reshape(a.shape)
            gb = a.data.reshape(-1, a.shape[-1]).T @ g2
            return (ga, gb, g2.sum(axis=0))
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return (ga, gb)

    parents = (a, b) if bias is None else (a, b, bias)
    return Tensor._make(out, parents, vjp, "matmul")


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtracted)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor._make(y, (x,), vjp, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Row means are GEMVs against a constant 1/n vector, one pass each."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    n = x.shape[-1]
    rows = x.data.reshape(-1, n)
    mean_of = np.full(n, 1.0 / n, dtype=x.dtype)
    xc = rows - (rows @ mean_of)[:, None]
    inv = 1.0 / np.sqrt((xc * xc) @ mean_of + eps)[:, None]
    xhat = np.multiply(xc, inv, out=xc)
    out = xhat * gain.data
    out += bias.data

    def vjp(g):
        g2 = g.reshape(-1, n)
        gx = g2 * xhat
        ones = np.ones(len(g2), dtype=g2.dtype)
        # row means of g*gain and g*gain*xhat, as GEMVs against gain/n
        gain_n = gain.data / n
        dx = g2 * gain.data
        dx -= (g2 @ gain_n)[:, None]
        dx -= xhat * (gx @ gain_n)[:, None]
        dx *= inv
        return (dx.reshape(x.shape), ones @ gx, ones @ g2)

    return Tensor._make(out.reshape(x.shape), (x, gain, bias), vjp,
                        "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    xd = x.data
    x2 = xd * xd
    t = x2 * xd                      # x**3 without numpy's slow power path
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= xd
    out *= 0.5

    def vjp(g):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), in two buffers
        d = np.multiply(t, t, dtype=np.result_type(t, g))
        np.subtract(1.0, d, out=d)
        d *= xd
        du = x2 * (3 * 0.044715 * _GELU_C)
        du += _GELU_C
        d *= du
        d += t
        d += 1.0
        d *= 0.5
        d *= g
        return (d,)

    return Tensor._make(out, (x,), vjp, "gelu")


# -- deterministic random numbers --------------------------------------------

def _seed_ints(seed) -> tuple:
    """Normalize a seed (int, str, or tuple of those) to ints for SeedSequence;
    strings hash via blake2s so streams are stable across platforms."""
    import hashlib
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    out = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2s(part.encode(), digest_size=8).digest()
            out.append(int.from_bytes(digest, "little"))
        else:
            out.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return tuple(out)


class Rng:
    """Seeded deterministic generator (PCG64); identical seed, identical stream."""

    def __init__(self, seed):
        self._seed = seed
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(_seed_ints(seed))))

    def child(self, *key: int) -> "Rng":
        """Independent stream derived from (seed, key); disjoint across keys."""
        base = self._seed if isinstance(self._seed, (list, tuple)) else (self._seed,)
        return Rng(tuple(base) + tuple(key))

    def normal(self, shape, std=1.0, dtype=np.float64) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * std).astype(dtype)

    def trunc_normal(self, shape, std=0.02) -> np.ndarray:
        """Normal(0, std) resampled until within two standard deviations."""
        out = self._gen.standard_normal(size=shape)
        bad = np.abs(out) > 2.0
        while bad.any():
            out[bad] = self._gen.standard_normal(size=int(bad.sum()))
            bad = np.abs(out) > 2.0
        return out * std

    def uniform(self, shape, lo=0.0, hi=1.0) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=shape)

    def integers(self, lo, hi, size=None):
        return self._gen.integers(lo, hi, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# -- finite-difference oracle -------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               eps: float = 1e-4) -> float:
    """Compare analytic gradients of scalar f() against central differences.

    Returns the max relative error |a - n| / max(|a|, |n|, 1e-8) over every
    element of every parameter. Requires 64-bit parameters.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 parameters ({name})")
        p.zero_grad()
    loss = f()
    if not math.isfinite(loss.item()):
        raise NonFiniteError("non-finite loss at the unperturbed point")
    loss.backward()
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            analytic[name] = np.zeros_like(p.data)
        else:
            analytic[name] = p.grad.copy()
    worst = 0.0
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            aflat = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f().item()
                flat[i] = orig - eps
                fm = f().item()
                flat[i] = orig
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    raise NonFiniteError(
                        f"non-finite loss while perturbing parameter {name}[{i}]")
                num = (fp - fm) / (2.0 * eps)
                a = aflat[i]
                rel = abs(a - num) / max(abs(a), abs(num), 1e-8)
                worst = max(worst, rel)
    return worst

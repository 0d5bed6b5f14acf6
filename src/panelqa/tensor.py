"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (encoder, decoder, training) is built from the handful
of primitives here. Each operation records its parents and a vector-Jacobian
callback on the output tensor; ``Tensor.backward`` replays them in reverse
topological order. Arrays are numpy, float32 or float64 per run.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on autodiff contract violations (non-scalar backward, etc.)."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN/Inf is detected where finiteness is required."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Turns tape recording off (finite differences, `evaluate`, `predict`)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp: Optional[Callable] = None

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

    # -- tape plumbing -------------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add d(self)/d(leaf) to .grad of every requires_grad leaf (a tensor
        no op made) reachable from self; intermediate gradients are freed once
        their vjp has run. Only valid on a scalar (single-element) tensor. The
        recorded tape is released afterwards so tensors can be reused."""
        if self.size != 1:
            raise GradError(
                f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                # a parent without requires_grad has no parents: leaving it
                # out keeps the post-order, so gradients sum in the same order
                stack.extend((p, False) for p in node._parents
                             if p.requires_grad and p not in seen)
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                grads[parent] = grads[parent] + pg if parent in grads else pg
            # release the tape entry
            node._parents = ()
            node._vjp = None

    # -- op construction -----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              vjp: Callable) -> "Tensor":
        """One op's output, on the tape if a parent requires gradients. The
        vjp names the op: ``vjp.__qualname__.split(".<locals>")[0]``."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad, out._parents, out._vjp = True, tuple(parents), vjp
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Tensor"):
        out = self.data + other.data
        a_shape, b_shape = self.shape, other.shape
        return Tensor._make(out, (self, other), lambda g: (
            _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))

    def __mul__(self, other: "Tensor"):
        out = self.data * other.data
        a, b = self, other
        return Tensor._make(
            out, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape),
                       _unbroadcast(g * a.data, b.shape)))

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

        return Tensor._make(np.ascontiguousarray(self.data[key]), (self,), vjp)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, shape: tuple) -> "Tensor":
        old = self.shape
        return Tensor._make(self.data.reshape(shape), (self,),
                            lambda g: (g.reshape(old),))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        out = self.data.sum(axis=axis)
        src_shape = self.shape

        def vjp(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, src_shape).copy(),)

        return Tensor._make(np.asarray(out), (self,), vjp)

    def mean(self, axis=None) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * Tensor(np.asarray(1.0 / n, self.dtype))


# -- free-function primitives ------------------------------------------------

def matmul(a: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """The affine map ``a @ w (+ bias)`` of (..., K) rows by a (K, N) weight,
    as one node."""
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul needs (..., K) rows and a (K, N) weight, "
                         f"got {a.shape} @ {w.shape}")
    out = a.data @ w.data
    if bias is not None:
        if bias.shape != w.shape[1:]:
            raise ShapeError(f"matmul bias {bias.shape} does not match the "
                             f"weight {w.shape}")
        out += bias.data

    def vjp(g):
        # weight gradient as one GEMM: fold the leading axes into rows;
        # no input gradient when `a` needs none, as for image patches
        g2 = g.reshape(-1, g.shape[-1])
        ga = (g2 @ w.data.T).reshape(a.shape) if a.requires_grad else None
        gw = a.data.reshape(-1, a.shape[-1]).T @ g2
        return (ga, gw, g2.sum(axis=0))

    parents = (a, w) if bias is None else (a, w, bias)
    return Tensor._make(out, parents, vjp)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtracted)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor._make(y, (x,), vjp)


def _norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the last axis of ``x``, then affine: the output, and the
    normalized rows and inverse deviations that `_norm_vjp` takes. Row means
    are GEMVs against a constant 1/n vector, one pass each."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    mean_of = np.full(n, 1.0 / n, dtype=x.dtype)
    xc = rows - (rows @ mean_of)[:, None]
    inv = 1.0 / np.sqrt((xc * xc) @ mean_of + 1e-6)[:, None]
    xhat = np.multiply(xc, inv, out=xc)
    out = xhat * gain
    out += bias
    return out.reshape(x.shape), xhat, inv


def _norm_vjp(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
              gain: np.ndarray):
    """Gradients of `_norm` for the incoming ``g``: input, gain and bias."""
    n = xhat.shape[-1]
    g2 = g.reshape(-1, n)
    gx = g2 * xhat
    ones = np.ones(len(g2), dtype=g2.dtype)
    # row means of g*gain and g*gain*xhat, as GEMVs against gain/n
    gain_n = gain / n
    dx = g2 * gain
    dx -= (g2 @ gain_n)[:, None]
    xhat *= (gx @ gain_n)[:, None]         # the forward's rows, now dead
    dx -= xhat
    dx *= inv
    return dx.reshape(g.shape), ones @ gx, ones @ g2


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out, xhat, inv = _norm(x.data, gain.data, bias.data)
    return Tensor._make(out, (x, gain, bias),
                        lambda g: _norm_vjp(g, xhat, inv, gain.data))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(x: np.ndarray):
    """Tanh GELU of ``x``: the output, and the ``x**2`` and tanh terms that
    `_gelu_vjp` takes."""
    x2 = x * x
    t = x2 * x                       # x**3 without numpy's slow power path
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, x2, t


def _gelu_vjp(g: np.ndarray, x: np.ndarray, x2: np.ndarray, t: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``g`` times the derivative of `_gelu` at ``x``. The derivative is
    built in ``x2`` and, if given, in ``out``; both are overwritten."""
    # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)
    d = np.multiply(t, t, out=out, dtype=np.result_type(t, g))
    np.subtract(1.0, d, out=d)
    d *= x
    x2 *= 3 * 0.044715 * _GELU_C
    x2 += _GELU_C
    d *= x2
    d += t
    d += 1.0
    d *= 0.5
    d *= g
    return d


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    out, x2, t = _gelu(x.data)
    return Tensor._make(out, (x,), lambda g: (_gelu_vjp(g, x.data, x2, t),))


def mlp(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
        w2: Tensor, b2: Tensor) -> Tensor:
    """The pre-norm residual MLP ``x + gelu(LN(x) @ w1 + b1) @ w2 + b2`` as
    one node, bit for bit the five nodes it fuses."""
    h, xhat, inv = _norm(x.data, gain.data, bias.data)
    a = h @ w1.data
    a += b1.data
    act, a2, t = _gelu(a)
    y = act @ w2.data
    y += b2.data
    y += x.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        rows = h.reshape(-1, h.shape[-1])
        # a forward buffer takes a gradient once its weight gradient is
        # taken: the GELU output its derivative, the normed rows their own
        gw2 = act.reshape(-1, act.shape[-1]).T @ g2
        ga = _gelu_vjp((g2 @ w2.data.T).reshape(a.shape), a, a2, t, out=act)
        ga2 = ga.reshape(-1, ga.shape[-1])
        gw1 = rows.T @ ga2
        np.matmul(ga2, w1.data.T, out=rows)
        gx, ggain, gbias = _norm_vjp(h, xhat, inv, gain.data)
        gx += g
        return (gx, ggain, gbias, gw1, ga2.sum(axis=0), gw2, g2.sum(axis=0))

    return Tensor._make(y, (x, gain, bias, w1, b1, w2, b2), vjp)


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

    def trunc_normal(self, shape) -> np.ndarray:
        """Normal(0, 0.02) resampled until within two standard deviations."""
        out = self._gen.standard_normal(size=shape)
        bad = np.abs(out) > 2.0
        while bad.any():
            out[bad] = self._gen.standard_normal(size=int(bad.sum()))
            bad = np.abs(out) > 2.0
        return out * 0.02

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

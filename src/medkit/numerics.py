"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoder, classifier heads, generator) is built from the
ops in this module. The graph is define-by-run: every op returns a new Tensor
that remembers its parents and a closure computing parent gradients. Tensors
are value-like: treat them as immutable once constructed; only the optimizer
writes ``data`` in place, and only between graph builds.

It holds only what the models run: the ops add (+), mul (*), matmul,
transpose (.T), concat, take_rows, softmax_cross_entropy, lstm and
transformer_layer (whose array forward, layer_forward, is also the KV-cached
decode step), backward, no_grad, Rng, the initializers, Adam, fit and its
TrainConfig, and the checkpoint format. Ops take Tensors only. The reference
ops these are checked against and the finite-difference grad_check are in
tests/oracles.py.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import logging
import math
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class NumericsError(Exception):
    """Raised when an op produces non-finite values or the graph is misused."""


class ShapeError(NumericsError):
    """Operand shapes do not conform."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """One node of the computation graph, holding a float64 ndarray.

    `requires_grad` marks trainable leaves; op outputs inherit it from their
    parents so backward() knows what to visit. Non-finite values are rejected
    at construction, which turns any NaN/Inf produced by a forward op into an
    immediate error instead of a silent poisoned training run.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericsError("non-finite values in tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the graph: inside the block every op output
    has no parents, no backward closure and requires_grad False, so nothing
    computed there can be differentiated. Values are computed (and checked
    for non-finite entries) exactly as outside. Blocks nest; the previous
    mode is restored on exit, also when the block raises. The mode is
    process-wide, not per thread."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


# -- arithmetic --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as the non-finite check
        out = a.data + b.data

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = a.data * b.data

    def backward_fn(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(out, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors; gradients flow to both operands."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.data @ b.data

    def backward_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), backward_fn)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose needs a 2-D tensor")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward_fn(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(parts), backward_fn)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D tensor by integer index (duplicates allowed)."""
    if a.ndim != 2:
        raise ShapeError("take_rows needs a 2-D tensor")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take_rows needs a 1-D index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("row index out of range")
    out = a.data[idx]

    def backward_fn(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        return (z,)

    return _make(out, (a,), backward_fn)


# -- fused layers --------------------------------------------------------------


def _grid(lengths, rows: int) -> np.ndarray:
    """(B, longest) mask of the positions of sequences of `lengths` (default:
    one) laid end to end in `rows` rows. Lengths must be integers: a boolean
    mask is not a list of lengths."""
    lengths = np.asarray([rows] if lengths is None else lengths)
    if lengths.dtype.kind not in "iu" or lengths.ndim != 1 or lengths.sum() != rows or lengths.min() < 1:
        raise ShapeError(f"sequence lengths {lengths.tolist()} do not split {rows} rows")
    return np.arange(lengths.max()) < lengths[:, None]


def _spread(rows: np.ndarray, at, size: int) -> np.ndarray:
    """A zero array of `size` rows with `rows` written at row indices `at`."""
    out = np.zeros((size,) + rows.shape[1:])
    out[at] = rows
    return out


_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])  # sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 for the i, f, o gates
_GATE_SHIFT = np.array([0.5, 0.5, 0.0, 0.5])


def lstm(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False, lengths=None) -> Tensor:
    """One LSTM pass from zero states over the rows of x (rows, in_dim), one
    sequence or, with `lengths`, sequences laid end to end, as one graph node;
    returns the (rows, hidden) hidden states in row order. The 4 * hidden
    columns of wx, wh and b are the [input, forget, cell, output] gates. Step s
    is one gate matmul over position s (reverse: s-th from the end) of every
    sequence still going. The backward pass is hand-written BPTT; non-finite
    gate pre-activations raise NumericsError.
    """
    k = wh.shape[0]
    if x.ndim != 2 or wx.shape != (x.shape[1], 4 * k) or wh.shape != (k, 4 * k) or b.shape != (4 * k,):
        raise ShapeError(f"lstm shapes disagree: x {x.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    grid = _grid(lengths, x.shape[0])
    lengths = grid.sum(axis=1)
    batch, n = grid.shape
    # time-major states hold the sequences longest first: the first going[s] run step s
    rank = np.empty(batch, dtype=np.int64)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(batch)
    going = (lengths > np.arange(n)[:, None]).sum(axis=1)
    owner, position = np.divmod(np.flatnonzero(grid), n)
    step = lengths[owner] - 1 - position if reverse else position
    slot = step * batch + rank[owner]  # each row's (step, sequence) cell, flattened
    scale, shift = np.repeat(_GATE_SCALE, k), np.repeat(_GATE_SHIFT, k)
    hs, cs = np.zeros((n + 1, batch, k)), np.zeros((n + 1, batch, k))  # hs[s]: the state before step s
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as the check below
        z = _spread(x.data @ wx.data, slot, n * batch).reshape(n, batch, 4 * k)
        acts = np.zeros_like(z)
        i, f, g, o = np.split(acts, 4, axis=2)  # gate views of acts
        for s, m in enumerate(going):
            z[s, :m] = z[s, :m] + hs[s, :m] @ wh.data + b.data
            acts[s, :m] = np.tanh(z[s, :m] * scale) * scale + shift
            cs[s + 1, :m] = f[s, :m] * cs[s, :m] + i[s, :m] * g[s, :m]
            hs[s + 1, :m] = o[s, :m] * np.tanh(cs[s + 1, :m])
    if not np.isfinite(z).all():
        raise NumericsError("non-finite lstm gate pre-activations")

    def backward_fn(grad):
        carried = _spread(grad, slot, n * batch).reshape(n, batch, k)
        tanh_c = np.tanh(cs[1:])
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        # dz[s] = [dc, dc, dc, dh] * coef[s]: each gate's partner in c or h times its slope
        coef = np.concatenate([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g), tanh_c * o * (1.0 - o)], axis=2)
        dz = np.zeros((n, batch, 4 * k))
        dh, dc = np.zeros((batch, k)), np.zeros((batch, k))
        for s in range(n - 1, -1, -1):
            m = going[s]
            dh[:m] += carried[s, :m]
            dc[:m] += dh[:m] * dc_dh[s, :m]
            dz[s, :m] = np.concatenate([dc[:m], dc[:m], dc[:m], dh[:m]], axis=1) * coef[s, :m]
            dc[:m] *= f[s, :m]
            dh[:m] = dz[s, :m] @ wh.data.T
        rows = dz.reshape(n * batch, 4 * k)[slot]
        return rows @ wx.data.T, x.data.T @ rows, hs[:-1].reshape(n * batch, k).T @ dz.reshape(n * batch, 4 * k), rows.sum(axis=0)

    return _make(hs[1:].reshape(n * batch, k)[slot], (x, wx, wh, b), backward_fn)


def transformer_layer(x: Tensor, weights: Sequence[Tensor], heads: int, keep, eps: float = 1e-5, lengths=None) -> Tensor:
    """One transformer layer over the rows of x (rows, hidden) as one graph
    node whose parents are x and `weights`: multi-head attention, its output
    projection, residual and LayerNorm, then a GELU feed-forward block,
    residual and LayerNorm. `weights` lists the layer's parameters in this
    order: every head's query weight, every head's key weight, every head's
    value weight (each (hidden, head_dim)), then wo, bo, the first LayerNorm's
    gain and bias, w1, b1, w2, b2, the second LayerNorm's gain and bias.
    The forward pass is layer_forward; the backward pass is hand-written.
    """
    if x.ndim != 2 or heads < 1 or len(weights) != 3 * heads + 10:
        raise ShapeError(f"transformer_layer needs a 2-D x and 3 * heads + 10 weights, got x {x.shape}, {len(weights)} weights and {heads} heads")
    hidden, d, ffn = x.shape[1], weights[0].shape[-1], weights[3 * heads + 4].shape[-1]
    shapes = [(hidden, d)] * (3 * heads) + [(heads * d, hidden), (hidden,), (hidden,), (hidden,), (hidden, ffn), (ffn,), (ffn, hidden), (hidden,), (hidden,), (hidden,)]
    if [w.shape for w in weights] != shapes:
        raise ShapeError(f"transformer_layer weight shapes {[w.shape for w in weights]} do not fit x {x.shape} and {heads} heads")
    out, backward_fn = layer_forward(x.data, layer_arrays(weights, heads), heads, keep, eps, lengths)
    return _make(out, (x, *weights), backward_fn)


def layer_arrays(weights: Sequence[Tensor], heads: int) -> tuple[np.ndarray, ...]:
    """layer_forward's arrays for transformer_layer's `weights`: the query,
    key and value weights joined into one projection, then the other ten."""
    return (np.concatenate([w.data for w in weights[: 3 * heads]], axis=1), *(w.data for w in weights[3 * heads :]))


def _layer_norm(h: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """LayerNorm over the last axis, eps inside the square root; returns the
    output, the normalized rows and their inverse deviations. A sum over n
    divided by n is what ndarray.mean computes, without its Python wrapper."""
    n = h.shape[-1]
    centred = h - h.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((centred**2).sum(axis=-1, keepdims=True) / n + eps)
    y = centred * inv
    return y * gain + bias, y, inv


def _layer_norm_backward(grad: np.ndarray, y: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """Gradients of _layer_norm's input, gain and bias."""
    dy = grad * gain
    return inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True)), (grad * y).sum(axis=0), grad.sum(axis=0)


_GELU_C = np.sqrt(2.0 / np.pi)


def layer_forward(x: np.ndarray, w: Sequence[np.ndarray], heads: int, keep, eps: float = 1e-5, lengths=None, cache: dict | None = None):
    """transformer_layer on arrays, with `w` from layer_arrays; returns the
    output rows and a function from their gradient to the gradients of x and
    of each of transformer_layer's weights. Training and decoding both run it.

    The rows are one sequence or, with `lengths`, sequences laid end to end,
    each attending only within itself; sequences and heads run batched, and
    only the scores are padded, to the longest sequence. `keep[i, j]` says
    whether position i may attend to position j (a 1-D mask is broadcast
    over queries). A dropped key scores -1e30; a row with no kept key attends
    to key 0 alone. Scores are scaled by 1/sqrt(head_dim), and GELU is the
    tanh approximation.

    A non-finite QKV projection, score (also where the mask would hide it) or
    output raises NumericsError. A non-finite value anywhere else reaches the
    output: NaN * 0 is NaN, inf - inf is NaN in LayerNorm and GELU maps -inf
    to NaN.

    With a `cache` (a dict) x is one sequence holding only the positions not
    yet seen: their keys and values, (heads, positions, head_dim) arrays, are
    appended to cache["k"] and cache["v"], and `keep` has one column per
    cached-plus-new key. The gradient function covers calls without a cache.
    """
    w_qkv, wo, bo, gain1, bias1, w1, b1, w2, b2, gain2, bias2 = w
    grid = None if lengths is None else _grid(lengths, x.shape[0])
    batch, n = (1, x.shape[0]) if grid is None else grid.shape
    real = slice(None) if grid is None else np.flatnonzero(grid)  # where the rows sit in the (B * n) padded grid
    d = w_qkv.shape[1] // (3 * heads)
    factor = 1.0 / math.sqrt(d)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value surfaces as the checks
        proj = x @ w_qkv
        if not np.isfinite(proj).all():
            raise NumericsError("non-finite attention projections")
        q, k, v = (proj if grid is None else _spread(proj, real, batch * n)).reshape(batch, n, 3, heads, d).transpose(2, 0, 3, 1, 4)  # each (B, heads, n, d)
        if cache is not None:
            if "k" in cache:
                k = np.concatenate([cache["k"], k[0]], axis=1)[None]
                v = np.concatenate([cache["v"], v[0]], axis=1)[None]
            cache.update(k=k[0], v=v[0])
        p = q @ k.transpose(0, 1, 3, 2)
        p *= factor
        if not np.isfinite(p).all():
            raise NumericsError("non-finite attention scores")
        keep = np.asarray(keep, dtype=bool)
        if grid is not None:
            keep = keep & grid[:, None, None, :]
        if not keep.all():
            live = keep.any(axis=-1)
            if not live.all():
                keep = keep.copy()
                keep[..., 0] |= ~live
            np.copyto(p, -1e30, where=~keep)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)  # the attention weights
        attn = (p @ v).transpose(0, 2, 1, 3).reshape(batch * n, heads * d)[real]
        x1, y1, inv1 = _layer_norm(x + (attn @ wo + bo), gain1, bias1, eps)
        z = x1 @ w1 + b1
        t = z * z * z  # GELU: t = tanh(C * (z + 0.044715 * (z * z * z))), in place with that rounding
        t *= 0.044715
        t += z
        t *= _GELU_C
        np.tanh(t, out=t)
        hidden = (t + 1.0) * z
        hidden *= 0.5
        out, y2, inv2 = _layer_norm(x1 + (hidden @ w2 + b2), gain2, bias2, eps)
    if not np.isfinite(out).all():
        raise NumericsError("non-finite transformer layer output")

    def backward_fn(grad):
        dh2, dgain2, dbias2 = _layer_norm_backward(grad, y2, inv2, gain2)
        dz = 1.0 - t * t
        dz *= z
        dz *= 0.5 * _GELU_C
        slope = z * (3 * 0.044715) * z
        slope += 1.0
        dz *= slope
        dz += (t + 1.0) * 0.5  # GELU'(z) = 0.5 * z * (1 - t^2) * C * (1 + 3 * 0.044715 * z^2) + 0.5 * (1 + t)
        dz *= dh2 @ w2.T
        dh1, dgain1, dbias1 = _layer_norm_backward(dh2 + dz @ w1.T, y1, inv1, gain1)
        g = dh1 @ wo.T
        g = (g if grid is None else _spread(g, real, batch * n)).reshape(batch, n, heads, d).transpose(0, 2, 1, 3)
        ds = g @ v.transpose(0, 1, 3, 2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= factor  # p * (dp - sum(dp * p)) * factor, dp = g @ v.T
        dproj = np.empty((batch, n, 3, heads, d))  # dq, dk, dv written through (B, heads, n, d) views
        for i, (a, b) in enumerate([(ds, k), (ds.transpose(0, 1, 3, 2), q), (p.transpose(0, 1, 3, 2), g)]):
            np.matmul(a, b, out=dproj[:, :, i].transpose(0, 2, 1, 3))
        dproj = dproj.reshape(batch * n, 3 * heads * d)[real]
        dw = (attn.T @ dh1, dh1.sum(axis=0), dgain1, dbias1, x1.T @ dz, dz.sum(axis=0), hidden.T @ dh2, dh2.sum(axis=0), dgain2, dbias2)
        return (dh1 + dproj @ w_qkv.T, *np.split(x.T @ dproj, 3 * heads, axis=1), *dw)

    return out, backward_fn


# -- loss --------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, targets, reduction="mean") -> Tensor:
    """Fused log-softmax + NLL over rows of `logits`; the gradient with respect
    to the logits is (softmax - one_hot), which stays stable for any scale.
    `reduction` is "mean", "sum", or one weight per row for a weighted sum."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs 2-D logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, k = logits.data.shape
    if t.shape[0] != n:
        raise ShapeError("one target per logits row required")
    if t.size and (t.min() < 0 or t.max() >= k):
        raise ShapeError("target id out of range")
    if isinstance(reduction, str):
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        reduction = np.full(n, 1.0 / n if reduction == "mean" else 1.0)
    weights = np.asarray(reduction, dtype=np.float64).reshape(n)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    nll = (np.log(total) - shifted[np.arange(n), t][:, None]).reshape(-1)

    def backward_fn(g):
        d = probs.copy()
        d[np.arange(n), t] -= 1.0
        d *= float(g) * weights[:, None]
        return (d,)

    return _make(np.asarray(nll @ weights), (logits,), backward_fn)


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate gradients of `loss` into every reachable requires_grad leaf
    (a tensor no recorded op produced). Repeated calls without zeroing keep
    accumulating."""
    if not isinstance(loss, Tensor):
        raise NumericsError("backward needs a Tensor")
    if loss.data.size != 1:
        raise NumericsError("backward needs a scalar loss")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:  # a leaf: keep its gradient
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if id(parent) in pending:
                pending[id(parent)] = pending[id(parent)] + pg
            else:
                pending[id(parent)] = np.asarray(pg, dtype=np.float64)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# -- randomness and initialization -------------------------------------------


class Rng:
    """Seeded random source; identical seeds yield identical draw sequences.

    `spawn(tag)` derives an independent child stream from a stable hash of
    (seed, tag), so subsystems stay reproducible regardless of call order."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, tag: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode("utf-8")).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, k: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=replace)


def xavier_uniform(rng: Rng, rows: int, cols: int) -> Tensor:
    """Xavier/Glorot uniform weight init for an (in, out)-shaped matrix."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, (rows, cols)), requires_grad=True)


def zeros_param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape: int) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


# -- optimizer ----------------------------------------------------------------


class Adam:
    """Adam with per-group learning rates (bias-corrected moments).

    `groups` is a list of {"name": str, "lr": float, "params": dict} entries;
    separate groups let the encoder fine-tune at a different rate than the
    freshly initialized heads.
    """

    def __init__(self, groups: list[dict], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.groups = []
        for g in groups:
            params = dict(g["params"])
            self.groups.append({"name": g.get("name", "group"), "lr": float(g["lr"]), "params": params})
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = {}
        self._v = {}
        for g in self.groups:
            for name, p in g["params"].items():
                key = (g["name"], name)
                self._m[key] = np.zeros_like(p.data)
                self._v[key] = np.zeros_like(p.data)
        # the step's numerator and denominator, viewed per parameter
        self._scratch = np.empty((2, max((m.size for m in self._m.values()), default=0)))

    def zero_grad(self) -> None:
        for g in self.groups:
            zero_grads(g["params"].values())

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for g in self.groups:
            lr = g["lr"]
            for name, p in g["params"].items():
                if p.grad is None:
                    continue
                key = (g["name"], name)
                m, v = self._m[key], self._v[key]
                num, den = (row[: m.size].reshape(m.shape) for row in self._scratch)
                # in place, rounding as p -= lr * (m / c1) / (sqrt(v / c2) + eps)
                m *= self.beta1
                m += np.multiply(p.grad, 1.0 - self.beta1, out=num)
                v *= self.beta2
                v += np.multiply(np.multiply(p.grad, p.grad, out=den), 1.0 - self.beta2, out=den)
                np.multiply(np.divide(m, c1, out=num), lr, out=num)
                np.sqrt(np.divide(v, c2, out=den), out=den)
                den += self.eps
                p.data -= np.divide(num, den, out=num)

    def state_summary(self) -> dict:
        """Small JSON-able snapshot; exposes the learning-rate groups."""
        return {
            "step": self.t,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "groups": [
                {"name": g["name"], "lr": g["lr"], "param_count": int(sum(p.size for p in g["params"].values())), "params": sorted(g["params"])}
                for g in self.groups
            ],
        }


@dataclass
class TrainHistory:
    """One row per completed epoch (epoch, loss, lr, seconds); `aborted` marks
    a run rolled back after a non-finite value."""

    rows: list[dict] = field(default_factory=list)
    aborted: bool = False
    optimizer_state: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "loss", "lr", "seconds"])
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


@dataclass
class TrainConfig:
    """What fit reads: `epochs` passes over the items, one Adam step per
    `batch_size` items, `lr` the first parameter group's rate, `seed` the
    shuffling stream's, and the train accuracy that ends training early
    (None: run every epoch)."""

    epochs: int
    lr: float
    batch_size: int = 8
    seed: int = 0
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def fit(batch_loss, items: Sequence, groups: list[dict], config: TrainConfig, tag: str) -> TrainHistory:
    """The training loop: config.epochs passes over `items`, each in a fresh
    order from Rng(config.seed).spawn(tag), one Adam step (`groups`, the first
    at config.lr) per config.batch_size items.

    `batch_loss(batch, rng)` returns (loss, weight, correct): the loss Tensor
    (None skips the batch), the weight of its value in the epoch's logged
    mean, and how many items it got right, for config.stop_at_train_acc.
    `rng` is the shuffling stream, for draws the loss makes. The first
    group's lr is logged. Empty `items` raise ValueError. On a non-finite
    value (NumericsError) every parameter rolls back to the end of the last
    completed epoch and the history is marked aborted; a ShapeError is a bug,
    not divergence, and propagates as it is.
    """
    if not items:
        raise ValueError(f"{tag}: nothing to train on")
    rng = Rng(config.seed).spawn(tag)
    opt = Adam(groups)
    params = [p for g in opt.groups for p in g["params"].values()]
    history = TrainHistory()
    last_good = [p.data.copy() for p in params]
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(items))
        total = weights = correct = 0
        try:
            for start in range(0, len(order), config.batch_size):
                loss, weight, right = batch_loss([items[int(i)] for i in order[start : start + config.batch_size]], rng)
                correct += right
                if loss is None:
                    continue
                opt.zero_grad()
                backward(loss)
                opt.step()
                total += loss.item() * weight
                weights += weight
        except ShapeError:
            raise
        except NumericsError:
            logger.error("%s: non-finite value at epoch %d; rolling back", tag, epoch)
            for p, data in zip(params, last_good):
                p.data = data
            history.aborted = True
            break
        last_good = [p.data.copy() for p in params]
        accuracy = correct / len(items)
        history.rows.append({"epoch": epoch, "loss": total / max(1, weights), "lr": opt.groups[0]["lr"], "seconds": time.perf_counter() - started})
        logger.info("%s epoch %d loss %.4f acc %.3f", tag, epoch, history.rows[-1]["loss"], accuracy)
        if config.stop_at_train_acc is not None and accuracy >= config.stop_at_train_acc:
            break
    history.optimizer_state = opt.state_summary()
    return history


def load_params(params: Mapping[str, Tensor], state: Mapping[str, np.ndarray], prefix: str = "") -> None:
    """Copy `state[prefix + name]` into each named parameter; shapes must
    match, and every tensor of `state` under `prefix` must go to a parameter."""
    unused = sorted(set(key for key in state if key.startswith(prefix)) - {prefix + name for name in params})
    if unused:
        raise ValueError(f"checkpoint tensors {unused} fit no parameter")
    for name, p in params.items():
        if prefix + name not in state:
            raise ValueError(f"checkpoint has no tensor {prefix + name!r}")
        arr = state[prefix + name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
        p.data = np.asarray(arr, dtype=np.float64).copy()


# -- checkpoint file format ---------------------------------------------------
#
# Layout (all integers little-endian uint64, floats little-endian float64):
#   magic            8 bytes  b"MEDCKPT\x00"
#   version          u64      currently 1
#   tensor count     u64
#   per tensor (sorted by name):
#     name length    u64
#     name           UTF-8 bytes
#     rank           u64
#     dims           rank * u64
#     payload        prod(dims) * f64, row-major

CHECKPOINT_MAGIC = b"MEDCKPT\x00"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write `<path>.tmp` beside `path`, then rename it over `path`, so a failed
    write keeps the previous file. No fsync: this is not power-loss safe."""
    items = sorted(named.items())
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<QQ", CHECKPOINT_VERSION, len(items)))
            for name, value in items:
                arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<Q", len(encoded)) + encoded + struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a truncated or otherwise malformed file raises
    NumericsError naming the file, never a struct or buffer error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise NumericsError(f"{path}: not a checkpoint file (bad magic)")
    offset = 8

    def take(size: int) -> int:
        """Claim the next `size` bytes; returns where they start."""
        nonlocal offset
        if offset + size > len(blob):
            raise NumericsError(f"{path}: truncated checkpoint: needs {offset + size} bytes, file has {len(blob)}")
        start = offset
        offset += size
        return start

    def u64s(count: int) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}Q", blob, take(8 * count))

    (version,) = u64s(1)
    if version != CHECKPOINT_VERSION:
        raise NumericsError(f"{path}: unsupported checkpoint version {version}")
    (count,) = u64s(1)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = u64s(1)
        start = take(name_len)
        try:
            name = blob[start:offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NumericsError(f"{path}: corrupt tensor name in checkpoint: {exc}") from exc
        (rank,) = u64s(1)
        dims = u64s(rank)
        n = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n)).reshape(dims)
        out[name] = arr.astype(np.float64)
    if offset != len(blob):
        raise NumericsError(f"{path}: trailing bytes in checkpoint")
    return out

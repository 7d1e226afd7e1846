"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoder, classifier heads, generator) is built from the
ops in this module. The graph is define-by-run: every op returns a new Tensor
that remembers its parents and a closure computing parent gradients until
backward consumes both. Tensors are otherwise value-like: immutable once
constructed, except that the optimizer writes ``data`` between graph builds.

It holds only what the models run: the ops add (+), mul (*), matmul,
transpose (.T), concat, take_rows, softmax_cross_entropy, lstm and
transformer_layer (whose array forward, layer_forward, is also the KV-cached
decode step), backward, no_grad, Rng, the initializers, Adam, fit and its
TrainConfig, and the checkpoint format. Ops take Tensors only; any other
operand raises ShapeError. The two fused layers take sequences laid end to
end with their lengths and pad nothing; attention is either over every key
or causal, the two masks the models use. The reference ops these are
checked against (attention under any mask among them) and the
finite-difference grad_check are in tests/oracles.py.
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
    if not all(isinstance(p, Tensor) for p in parents):  # an ndarray's .data, a memoryview, gets most ops this far
        raise ShapeError(f"ops take Tensors, got {', '.join(type(p).__name__ for p in parents)}")
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
    if not isinstance(a, Tensor) or a.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D Tensor, got {a.shape if isinstance(a, Tensor) else type(a).__name__}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward_fn(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _make(out, tuple(parts), backward_fn)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D tensor by integer index (duplicates allowed)."""
    if not isinstance(a, Tensor) or a.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D Tensor, got {a.shape if isinstance(a, Tensor) else type(a).__name__}")
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


def _lengths(lengths, rows: int) -> np.ndarray:
    """The lengths of the sequences laid end to end in `rows` rows (default:
    one sequence), checked to be integers of at least 1 that sum to `rows`;
    a boolean mask is not a list of lengths."""
    lengths = np.asarray([rows] if lengths is None else lengths)
    if lengths.dtype.kind not in "iu" or lengths.ndim != 1 or lengths.sum() != rows or lengths.min() < 1:
        raise ShapeError(f"sequence lengths {lengths.tolist()} do not split {rows} rows")
    return lengths


_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])  # sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 for the i, f, o gates
_GATE_SHIFT = np.array([0.5, 0.5, 0.0, 0.5])


def lstm(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False, lengths=None) -> Tensor:
    """One LSTM pass from zero states over the rows of x (rows, in_dim), one
    sequence or, with `lengths`, sequences laid end to end, as one graph node;
    returns the (rows, hidden) hidden states in row order. The 4 * hidden
    columns of wx, wh and b are the [input, forget, cell, output] gates.

    The pass runs over a step-major copy of the rows, with the sequences
    sorted longest first: block 0 holds their zero start states and block
    s + 1 holds position s (reverse: s-th from the end) of every sequence
    still going. Step s is one gate matmul from the first rows of block s to
    block s + 1, on contiguous slices; rows move between the two orders once
    each way. The backward pass is hand-written BPTT; non-finite gate
    pre-activations raise NumericsError.
    """
    k = wh.shape[0]
    if x.ndim != 2 or wx.shape != (x.shape[1], 4 * k) or wh.shape != (k, 4 * k) or b.shape != (4 * k,):
        raise ShapeError(f"lstm shapes disagree: x {x.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    lengths = _lengths(lengths, x.shape[0])
    batch = len(lengths)
    going = batch - np.cumsum(np.bincount(lengths))[:-1]  # going[s]: the sequences that run step s
    at = np.cumsum([0, batch, *going]).tolist()  # block t is rows at[t]:at[t + 1]
    rank = np.argsort(np.argsort(-lengths, kind="stable"))  # each sequence's place, longest first
    owner = np.repeat(np.arange(batch), lengths)
    position = np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]
    slot = np.take(at, lengths[owner] - position if reverse else position + 1) + rank[owner]  # each row's step-major row
    scale, shift = np.repeat(_GATE_SCALE, k), np.repeat(_GATE_SHIFT, k)
    z, hs, cs = np.zeros((at[-1], 4 * k)), np.zeros((at[-1], k)), np.zeros((at[-1], k))
    acts = np.zeros_like(z)
    i, f, g, o = np.split(acts, 4, axis=1)  # gate views of acts
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as the check below
        z[slot] = x.data @ wx.data
        for p, a, e in zip(at, at[1:], at[2:]):  # rows a:e start from the states in rows p:p + e - a
            z[a:e] = z[a:e] + hs[p : p + e - a] @ wh.data + b.data
            acts[a:e] = np.tanh(z[a:e] * scale) * scale + shift
            cs[a:e] = f[a:e] * cs[p : p + e - a] + i[a:e] * g[a:e]
            hs[a:e] = o[a:e] * np.tanh(cs[a:e])
    if not np.isfinite(z).all():
        raise NumericsError("non-finite lstm gate pre-activations")

    def backward_fn(grad):
        carried = np.zeros_like(hs)
        carried[slot] = grad
        prev = np.arange(at[-1])  # each row's previous state: block 0 is its own
        prev[batch:] -= np.repeat([batch, *going[:-1]], going)
        tanh_c = np.tanh(cs)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        # dz = [dc, dc, dc, dh] * coef, coef built in dz: each gate's partner in c or h times its slope, 0 in block 0's gateless rows
        dz = np.empty_like(acts)
        gates = dz.reshape(-1, 4, k)
        np.multiply(g * i, 1.0 - i, out=gates[:, 0])
        np.multiply(cs[prev] * f, 1.0 - f, out=gates[:, 1])
        np.multiply(i, 1.0 - g * g, out=gates[:, 2])
        np.multiply(tanh_c * o, 1.0 - o, out=gates[:, 3])
        dh, dc = np.zeros((batch, k)), np.zeros((batch, k))
        for a, e in reversed(list(zip(at[1:], at[2:]))):
            m = e - a
            dh[:m] += carried[a:e]
            dc[:m] += dh[:m] * dc_dh[a:e]
            gates[a:e, :3] *= dc[:m, None]
            gates[a:e, 3] *= dh[:m]
            dc[:m] *= f[a:e]
            dh[:m] = dz[a:e] @ wh.data.T
        rows = dz[slot]
        return rows @ wx.data.T, x.data.T @ rows, hs[prev].T @ dz, rows.sum(axis=0)

    return _make(hs[slot], (x, wx, wh, b), backward_fn)


def transformer_layer(x: Tensor, weights: Sequence[Tensor], heads: int, causal: bool, eps: float = 1e-5, lengths=None) -> Tensor:
    """One transformer layer over the rows of x (rows, hidden) as one graph
    node whose parents are x and `weights`: multi-head attention, its output
    projection, residual and LayerNorm, then a GELU feed-forward block,
    residual and LayerNorm. `weights` lists the layer's parameters in this
    order: every head's query weight, every head's key weight, every head's
    value weight (each (hidden, head_dim)), then wo, bo, the first LayerNorm's
    gain and bias, w1, b1, w2, b2, the second LayerNorm's gain and bias.
    `causal` and `lengths` are layer_forward's; the backward pass is
    hand-written.
    """
    if x.ndim != 2 or heads < 1 or len(weights) != 3 * heads + 10:
        raise ShapeError(f"transformer_layer needs a 2-D x and 3 * heads + 10 weights, got x {x.shape}, {len(weights)} weights and {heads} heads")
    hidden, d, ffn = x.shape[1], weights[0].shape[-1], weights[3 * heads + 4].shape[-1]
    shapes = [(hidden, d)] * (3 * heads) + [(heads * d, hidden), (hidden,), (hidden,), (hidden,), (hidden, ffn), (ffn,), (ffn, hidden), (hidden,), (hidden,), (hidden,)]
    if [w.shape for w in weights] != shapes:
        raise ShapeError(f"transformer_layer weight shapes {[w.shape for w in weights]} do not fit x {x.shape} and {heads} heads")
    out, backward_fn = layer_forward(x.data, layer_arrays(weights, heads), heads, causal, eps, lengths)
    return _make(out, (x, *weights), backward_fn)


def layer_arrays(weights: Sequence[Tensor], heads: int) -> tuple[np.ndarray, ...]:
    """layer_forward's arrays for transformer_layer's `weights`: the query,
    key and value weights joined into one projection, then the other ten."""
    return (np.concatenate([w.data for w in weights[: 3 * heads]], axis=1), *(w.data for w in weights[3 * heads :]))


def _layer_norm(h: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """LayerNorm over the last axis, eps inside the square root; returns the
    output, the normalized rows and their inverse deviations. A sum over n
    divided by n is what ndarray.mean computes; one row (a decode step) takes
    scalar statistics, the same bits without broadcasting's per-call cost."""
    n = h.shape[-1]
    if h.shape[0] == 1:
        centred = h - np.add.reduce(h[0]) / n
        inv = 1.0 / np.sqrt(np.add.reduce(centred[0] ** 2) / n + eps)
    else:
        centred = h - np.add.reduce(h, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(np.add.reduce(centred**2, axis=-1, keepdims=True) / n + eps)
    y = centred * inv
    return y * gain + bias, y, inv


def _layer_norm_backward(grad: np.ndarray, y: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """Gradients of _layer_norm's input, gain and bias."""
    dy = grad * gain
    return inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True)), (grad * y).sum(axis=0), grad.sum(axis=0)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(z: np.ndarray, keep_tanh: bool = False):
    """GELU's output (t + 1.0) * z * 0.5, t = tanh(C * (z + 0.044715 * (z * z * z))), in place with that rounding and
    built in t's buffer; with `keep_tanh`, (t, output). Backward recomputes the bits forward computed from z alone."""
    t = z * z
    t *= z
    t *= 0.044715
    t += z
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0 if keep_tanh else np.add(t, 1.0, out=t)
    out *= z
    out *= 0.5
    return (t, out) if keep_tanh else out


def _gelu_backward(z: np.ndarray, dh2: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of z and w2 from dh2, the gradient of GELU(z) @ w2. z's, GELU'(z) * (dh2 @ w2.T), goes into
    the recomputed GELU output once w2's has used it, with one scratch array and the bits fresh arrays would give."""
    t, dz = _gelu(z, keep_tanh=True)
    dw2 = dz.T @ dh2
    np.subtract(1.0, np.multiply(t, t, out=dz), out=dz)
    dz *= z
    dz *= 0.5 * _GELU_C
    scratch = np.multiply(z, 3 * 0.044715)
    scratch *= z
    scratch += 1.0
    dz *= scratch
    dz += np.multiply(np.add(t, 1.0, out=t), 0.5, out=t)  # GELU'(z) = 0.5 * z * (1 - t^2) * C * (1 + 3 * 0.044715 * z^2) + 0.5 * (1 + t)
    dz *= np.matmul(dh2, w2.T, out=scratch)
    return dz, dw2


def layer_forward(x: np.ndarray, w: Sequence[np.ndarray], heads: int, causal: bool, eps: float = 1e-5, lengths=None, kv: np.ndarray | None = None, last_only: bool = False):
    """transformer_layer on arrays, with `w` from layer_arrays; returns the
    output rows and a function from their gradient to the gradients of x and
    of each of transformer_layer's weights. Training and decoding both run it.

    The rows are one sequence or, with `lengths`, sequences laid end to end,
    each attending only within itself: a sequence of l rows is one unpadded
    (heads, l, l) block of scores. Without `causal` every query sees every
    key of its sequence. With it, a span of q query rows over K keys drops
    key j for query i when j > K - q + i, so each position sees itself and
    the positions before it, and a single row sees every key. A dropped key
    scores -1e30. Scores are scaled by 1/sqrt(head_dim); GELU is the tanh
    approximation.

    A non-finite QKV projection, score (also one that causality drops) or
    output raises NumericsError. A non-finite value anywhere else reaches the
    output: NaN * 0 is NaN, inf - inf is NaN in LayerNorm and GELU maps -inf
    to NaN.

    With `kv`, a (2, heads, positions, head_dim) view of a key/value
    buffer, x is one sequence's last len(x) positions: their keys and values
    are written in place into the view's last len(x) positions, and the rows
    attend over all of it. With `last_only` only the last row queries and
    runs the rest of the layer, and one row is returned.

    A call with `kv` or under no_grad can never run a backward: it returns
    None for the function and frees each intermediate once its last reader
    has run. Any other call keeps only what its backward cannot rebuild bit
    for bit: qkv, the attention weights, each LayerNorm's y and inv, and z.
    """
    w_qkv, wo, bo, gain1, bias1, w1, b1, w2, b2, gain2, bias2 = w
    ends = [len(x)] if lengths is None else np.cumsum(_lengths(lengths, len(x))).tolist()
    spans = list(zip([0] + ends[:-1], ends))  # each sequence's rows
    d = w_qkv.shape[1] // (3 * heads)
    factor = 1.0 / math.sqrt(d)
    keep = kv is None and _grad_enabled  # whether a backward can run
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value surfaces as the checks
        qkv = (x @ w_qkv).reshape(len(x), 3, heads, d).transpose(1, 2, 0, 3)  # q, k and v, each (heads, rows, d)
        if not np.isfinite(qkv).all():
            raise NumericsError("non-finite attention projections")
        queries, rows = qkv[0], x
        if kv is not None:
            kv[:, :, -len(x) :] = qkv[1:]
        if last_only:
            queries, rows, spans = queries[:, -1:], x[-1:], [(0, 1)]
        saved, attn = [], np.empty((len(rows), heads * d))  # what backward reads of each sequence, and the heads' outputs
        for a, b in spans:
            k, v = qkv[1:, :, a:b] if kv is None else kv
            p = queries[:, a:b] @ k.swapaxes(-1, -2)
            p *= factor
            if not np.isfinite(p).all():
                raise NumericsError("non-finite attention scores")
            if causal and b - a > 1:
                np.copyto(p, -1e30, where=~np.tri(b - a, k.shape[1], k.shape[1] - (b - a), dtype=bool))
            p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            np.matmul(p, v, out=attn[a:b].reshape(b - a, heads, d).transpose(1, 0, 2))
            if keep:
                saved.append((p, qkv[:, :, a:b]))  # the (heads, l, keys) attention weights, and q, k and v
        del qkv, queries, k, v, p  # with keep, saved holds what backward reads of them
        x1, y1, inv1 = _layer_norm(rows + (attn @ wo + bo), gain1, bias1, eps)
        del attn
        z = x1 @ w1 + b1
        h = _gelu(z) @ w2
        if not keep:
            del z
        out, y2, inv2 = _layer_norm(x1 + (h + b2), gain2, bias2, eps)
    if not np.isfinite(out).all():
        raise NumericsError("non-finite transformer layer output")

    def backward_fn(grad):
        dh2, dgain2, dbias2 = _layer_norm_backward(grad, y2, inv2, gain2)
        dz, dw2 = _gelu_backward(z, dh2, w2)
        dh1, dgain1, dbias1 = _layer_norm_backward(dh2 + dz @ w1.T, y1, inv1, gain1)
        g = dh1 @ wo.T
        dproj = np.empty((len(x), 3, heads, d))
        dqkv = dproj.transpose(1, 2, 0, 3)  # dq, dk and dv, written through (heads, rows, d) views
        attn = np.empty((len(x), heads * d))  # the heads' outputs, rebuilt as the forward pass built them
        for (a, b), (p, (q, k, v)) in zip(spans, saved):
            np.matmul(p, v, out=attn[a:b].reshape(b - a, heads, d).transpose(1, 0, 2))
            gs = g[a:b].reshape(b - a, heads, d).transpose(1, 0, 2)
            ds = gs @ v.swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= factor  # p * (dp - sum(dp * p)) * factor, dp = g @ v.T
            for i, (m, n) in enumerate([(ds, k), (ds.swapaxes(-1, -2), q), (p.swapaxes(-1, -2), gs)]):
                np.matmul(m, n, out=dqkv[i, :, a:b])
        dproj = dproj.reshape(len(x), 3 * heads * d)
        dw = (attn.T @ dh1, dh1.sum(axis=0), dgain1, dbias1, (y1 * gain1 + bias1).T @ dz, dz.sum(axis=0), dw2, dh2.sum(axis=0), dgain2, dbias2)
        return (dh1 + dproj @ w_qkv.T, *np.split(x.T @ dproj, 3 * heads, axis=1), *dw)

    return out, backward_fn if keep else None


# -- loss --------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, targets, reduction="mean") -> Tensor:
    """Fused log-softmax + NLL over rows of `logits`; the gradient with respect
    to the logits is (softmax - one_hot), which stays stable for any scale.
    `reduction` is "mean" or one weight per row for a weighted sum."""
    if not isinstance(logits, Tensor) or logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs 2-D Tensor logits, got {logits.shape if isinstance(logits, Tensor) else type(logits).__name__}")
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, k = logits.data.shape
    if t.shape[0] != n:
        raise ShapeError("one target per logits row required")
    if t.size and (t.min() < 0 or t.max() >= k):
        raise ShapeError("target id out of range")
    if isinstance(reduction, str):
        if reduction != "mean":
            raise ValueError(f"unknown reduction {reduction!r}")
        reduction = np.full(n, 1.0 / n)
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


def _consumed(grad):
    raise NumericsError("backward already ran through this graph")


def backward(loss: Tensor) -> None:
    """Accumulate gradients of `loss` into every reachable requires_grad leaf
    (a tensor no recorded op produced), also across graphs until zeroed. It
    consumes the graph: an op output drops its parents and saved arrays once
    its gradients reach them; backward through it again raises NumericsError."""
    if not isinstance(loss, Tensor):
        raise NumericsError("backward needs a Tensor")
    if loss.data.size != 1:
        raise NumericsError("backward needs a scalar loss")

    topo, seen, stack = [], set(), [(loss, False)]  # post-order, the ids visited, (node, children pushed)
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
    while topo:
        node = topo.pop()
        g = pending.pop(id(node), None)
        if node._backward_fn is None:  # a leaf: keep its gradient
            if g is not None and node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parents, backward_fn = node._parents, node._backward_fn
        node._parents, node._backward_fn = (), _consumed
        for parent, pg in zip(parents, () if g is None else backward_fn(g)):
            if pg is not None and parent.requires_grad:
                pending[id(parent)] = pending[id(parent)] + pg if id(parent) in pending else np.asarray(pg, dtype=np.float64)


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

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def xavier_uniform(rng: Rng | None, rows: int, cols: int) -> Tensor:
    """Xavier/Glorot uniform weight init for an (in, out)-shaped matrix; zeros without an `rng`."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(np.zeros((rows, cols)) if rng is None else rng.uniform(-limit, limit, (rows, cols)), requires_grad=True)


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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, groups: list[dict]):
        self.groups = [{"name": g["name"], "lr": float(g["lr"]), "params": dict(g["params"])} for g in groups]
        self.t = 0
        keyed = {(g["name"], name): p for g in self.groups for name, p in g["params"].items()}
        self._m = {key: np.zeros_like(p.data) for key, p in keyed.items()}
        self._v = {key: np.zeros_like(p.data) for key, p in keyed.items()}

    def zero_grad(self) -> None:
        for g in self.groups:
            zero_grads(g["params"].values())

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        for g in self.groups:
            lr = g["lr"]
            for name, p in g["params"].items():
                if p.grad is None:
                    continue
                m, v = self._m[g["name"], name], self._v[g["name"], name]
                m *= self.BETA1
                m += (1.0 - self.BETA1) * p.grad
                v *= self.BETA2
                v += (1.0 - self.BETA2) * (p.grad * p.grad)
                p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)

    def state_summary(self) -> dict:
        """Small JSON-able snapshot; exposes the learning-rate groups."""
        groups = [{"name": g["name"], "lr": g["lr"], "param_count": int(sum(p.size for p in g["params"].values())), "params": sorted(g["params"])} for g in self.groups]
        return {"step": self.t, "beta1": self.BETA1, "beta2": self.BETA2, "eps": self.EPS, "groups": groups}


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
            writer.writerows(self.rows)


@dataclass
class TrainConfig:
    """What fit reads: `epochs` passes over the items, one Adam step per
    `batch_size` items, `lr` the first parameter group's rate and `seed` the
    shuffling stream's."""

    epochs: int
    lr: float
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def fit(batch_loss, items: Sequence, groups: list[dict], config: TrainConfig, tag: str) -> TrainHistory:
    """The training loop: config.epochs passes over `items`, each in a fresh
    order from Rng(config.seed).spawn(tag), one Adam step (`groups`, the first
    at config.lr) per config.batch_size items.

    `batch_loss(batch, rng)` returns (loss, weight, correct): the loss Tensor
    (None skips the batch), the weight of its value in the epoch's logged
    mean, and how many items it got right, for the logged train accuracy.
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
    history.optimizer_state = opt.state_summary()
    return history


def load_params(params: Mapping[str, Tensor], state: Mapping[str, np.ndarray], prefix: str = "") -> None:
    """Point each named parameter at `state[prefix + name]` as float64, a float64 array uncopied;
    shapes must match, and every tensor of `state` under `prefix` must go to a parameter."""
    unused = sorted(set(key for key in state if key.startswith(prefix)) - {prefix + name for name in params})
    if unused:
        raise ValueError(f"checkpoint tensors {unused} fit no parameter")
    for name, p in params.items():
        if prefix + name not in state:
            raise ValueError(f"checkpoint has no tensor {prefix + name!r}")
        arr = state[prefix + name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
        p.data = np.asarray(arr, dtype=np.float64)


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


def save_checkpoint(path, named: Mapping[str, "Tensor | np.ndarray"]) -> str:
    """Write `<path>.tmp` beside `path`, then rename it over `path`, so a failed
    write keeps the previous file; returns the sha256 hex digest of the bytes
    written. No fsync: this is not power-loss safe."""
    items = sorted(named.items())
    tmp = f"{os.fspath(path)}.tmp"
    preamble = CHECKPOINT_MAGIC + struct.pack("<QQ", CHECKPOINT_VERSION, len(items))
    digest = hashlib.sha256(preamble)
    try:
        with open(tmp, "wb") as fh:
            fh.write(preamble)
            for name, value in items:
                arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
                encoded = name.encode("utf-8")
                header = struct.pack("<Q", len(encoded)) + encoded + struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape)
                for chunk in (header, np.ascontiguousarray(arr, dtype="<f8").tobytes()):
                    fh.write(chunk)
                    digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def load_checkpoint(path, sha256: str | None = None) -> dict[str, np.ndarray]:
    """Read a checkpoint; a truncated or otherwise malformed file, or one whose
    bytes do not have the `sha256` hex digest given, raises NumericsError
    naming the file, never a struct or buffer error."""
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
    if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
        raise NumericsError(f"{path}: checkpoint bytes do not match the digest its meta records")
    return out

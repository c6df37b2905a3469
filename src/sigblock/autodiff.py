"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records, for every derived
value, the parent tensors and a closure that accumulates adjoints into
them. Calling :func:`backward` on a scalar walks the recorded graph in
reverse topological order, leaving ``grad`` arrays on every tensor that
requires gradients. Only the operations needed by the training pipeline
are implemented; all of them support float64 data exclusively.

Graph recording is skipped entirely when no input requires gradients, so
the same functions double as the inference path at near-numpy speed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    """Node in the computation graph: a value plus adjoint bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def accumulate_rows(self, rows: np.ndarray, g: np.ndarray) -> None:
        """Add ``g[k]`` to gradient row ``rows[k]``; ``rows`` are unique.

        The other rows are left alone, so once the zero gradient exists a
        call costs time in the rows it touches only. A dense update would
        add 0.0 to them, which changes no value except a -0.0 into 0.0.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self.grad[rows] = g
        else:
            self.grad[rows] += g

    def zero_grad(self) -> None:
        self.grad = None

    # Operator sugar used throughout the training code.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes introduced or expanded by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(-_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * data / b.data, b.data.shape))

    return _node(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def backward(g):
        a.accumulate(g * c)

    return _node(data, (a,), backward)


def add_const(a: Tensor, c) -> Tensor:
    data = a.data + c

    def backward(g):
        a.accumulate(g)

    return _node(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _node(data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        a.accumulate(g * (1.0 - data * data))

    return _node(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # Stable on both tails: e = exp(-|x|) <= 1 never overflows; x >= 0
    # takes 1 / (1 + e) and x < 0 takes e / (1 + e).
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0, e)
    data /= 1.0 + e

    def backward(g):
        a.accumulate(g * data * (1.0 - data))

    return _node(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a.accumulate(g * data)

    return _node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        a.accumulate(g / a.data)

    return _node(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        a.accumulate(g * 0.5 / data)

    return _node(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a.accumulate(np.full(a.data.shape, g))
        elif keepdims:
            a.accumulate(np.broadcast_to(g, a.data.shape))
        else:
            a.accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _node(data, (a,), backward)


def getitem(a: Tensor, key) -> Tensor:
    data = a.data[key]

    def backward(g):
        if _is_advanced(key):
            # flat position of every element of a[key], in its C order
            where = np.arange(a.data.size).reshape(a.data.shape)[key]
            buf = _scatter_sum(where.reshape(-1), g.reshape(-1), a.data.size)
            buf = buf.reshape(a.data.shape)
        else:
            buf = np.zeros_like(a.data)
            buf[key] = g
        a.accumulate(buf)

    return _node(data, (a,), backward)


def _is_advanced(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, np.ndarray) or isinstance(p, (list,)) for p in parts)


def _scatter_sum(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Rows ``values[i]`` summed into an (n, ...) zero array at ``index[i]``.

    One flattened ``np.bincount``, which adds in input order starting from
    zero, so every sum is bitwise the one an element-by-element loop
    gives. ``index`` holds non-negative row numbers below ``n``.
    """
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    flat = np.asarray(index, dtype=np.int64)
    if width != 1:
        flat = (flat[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1), minlength=n * width)
    return out.reshape((n,) + values.shape[1:])


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by non-negative integer index; rows may repeat."""
    data = a.data[idx]

    def backward(g):
        a.accumulate(_scatter_sum(idx, g, a.data.shape[0]))

    return _node(data, (a,), backward)


def scatter_rows(src: Tensor, row_ids: np.ndarray, n_out: int) -> Tensor:
    """Sum rows of ``src`` into an (n_out, d) result at positions ``row_ids``."""
    data = _scatter_sum(row_ids, src.data, n_out)

    def backward(g):
        src.accumulate(g[row_ids])

    return _node(data, (src,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return _node(data, tuple(tensors), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a.accumulate(g.reshape(a.data.shape))

    return _node(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate((g - dot) * data)

    return _node(data, (a,), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = np.squeeze(m + np.log(s), axis=axis)
    soft = e / s

    def backward(g):
        a.accumulate(np.expand_dims(g, axis) * soft)

    return _node(data, (a,), backward)


def embedding_bag(table: Tensor, indices: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Sum of table rows per bag, like a sparse (bags x buckets) matmul.

    Bag ``b`` sums ``table[indices[offsets[b]:offsets[b+1]]]``, from zero
    and in index order; an empty bag yields a zero row. The backward pass
    touches only the gradient rows of the ids that occur.
    """
    n_bags = len(offsets) - 1
    counts = np.diff(offsets)
    data = _bag_sum(table.data, indices, offsets[:-1], counts)

    def backward(g):
        rows, inverse = np.unique(indices, return_inverse=True)
        bag_ids = np.repeat(np.arange(n_bags), counts)
        table.accumulate_rows(rows, _scatter_sum(inverse, g[bag_ids], len(rows)))

    return _node(data, (table,), backward)


def _bag_sum(
    rows: np.ndarray, indices: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per bag, the sum of ``rows[indices[start:start + count]]``.

    The bags are sorted longest first, so the bags holding a k-th id form
    a prefix; step k adds those rows into that prefix. Every bag sums from
    zero in index order, as an element-by-element loop would, and no step
    holds more than one row per bag.
    """
    out = np.zeros((len(counts), rows.shape[1]))
    if not len(indices):
        return out
    order = np.argsort(-counts, kind="stable")
    starts = starts[order]
    longest = int(counts[order[0]])
    # live[k]: how many bags hold more than k ids
    live = np.searchsorted(-counts[order], -np.arange(longest), side="left")
    for k, n in enumerate(live.tolist()):
        out[:n] += rows[indices[starts[:n] + k]]
    data = np.empty_like(out)
    data[order] = out
    return data


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar ``loss`` into every parameter.

    The graph is released as it is consumed, so a tensor graph can be
    backpropagated once per forward pass.
    """
    if loss.data.ndim != 0:
        raise ValueError("backward() expects a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._parents = ()
            node._backward = None
            node.grad = None

"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records, for every derived
value, the parent tensors and a closure that accumulates adjoints into
them. Calling :func:`backward` on a scalar walks the recorded graph in
reverse topological order, leaving ``grad`` arrays on every tensor that
requires gradients. Only the operations needed by the training pipeline
are implemented; all of them support float64 data exclusively.

Graph recording is skipped entirely when no input requires gradients, so
the same functions double as the inference path. Each call still costs
its numpy work plus about a microsecond of Python, which dominates on
small inputs such as a single record; so the LSTM, the longest chain of
small steps, is one hand-written op (:func:`lstm_sequence`) rather than
a dozen nodes per timestep.
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

    Every bag sums from zero in index order, as an element-by-element loop
    would. The loop runs over the shorter axis. With fewer bags than the
    longest bag has ids, each bag takes the last row of a ``cumsum`` over
    its rows, which adds in order from the first row; ``+ 0.0`` then turns
    an all -0.0 sum into the 0.0 a sum from zero gives. Otherwise the bags
    are sorted longest first, so the bags holding a k-th id form a prefix,
    and step k adds those rows into that prefix.
    """
    out = np.zeros((len(counts), rows.shape[1]))
    if not len(indices):
        return out
    longest = int(counts.max())
    if len(counts) < longest:
        for b, (start, count) in enumerate(zip(starts.tolist(), counts.tolist())):
            if count:
                out[b] = rows[indices[start : start + count]].cumsum(axis=0)[-1] + 0.0
        return out
    order = np.argsort(-counts, kind="stable")
    starts = starts[order]
    # live[k]: how many bags hold more than k ids
    live = np.searchsorted(-counts[order], -np.arange(longest), side="left")
    for k, n in enumerate(live.tolist()):
        out[:n] += rows[indices[starts[:n] + k]]
    data = np.empty_like(out)
    data[order] = out
    return data


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable on both tails.

    ``e = exp(-|x|) <= 1`` never overflows; x >= 0 takes 1 / (1 + e) and
    x < 0 takes e / (1 + e).
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def lstm_sequence(
    x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False
) -> Tensor:
    """One LSTM direction over a batch of equal-length sequences.

    ``x`` is (n, L, d); the result is (n, L, H), the hidden state at every
    position. The gate blocks of ``wx`` (d, 4H), ``wh`` (H, 4H) and ``b``
    (4H,) are input, forget, cell and output, in that order. The state
    starts at zero and reads positions 0 to L - 1, or L - 1 to 0 when
    ``reverse``. Per step::

        z = (x_t @ wx + h @ wh) + b
        c = f * c + i * g        i, f, o = sigmoid(z blocks), g = tanh(z block)
        h = o * tanh(c)

    One tape node stands for the whole sequence. It keeps the gates and
    cell states of every step only when an input requires gradients; its
    backward is backpropagation through time, with the weight and input
    gradients of all steps taken in one matmul each.
    """
    n, length, dim = x.data.shape
    hidden = wh.data.shape[0]
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    steps = range(length - 1, -1, -1) if reverse else range(length)
    track = x.requires_grad or wx.requires_grad or wh.requires_grad or b.requires_grad
    # hs[k + 1] is the hidden state after step k, hs[0] the zero start
    hs = np.zeros((length + 1, n, hidden))
    if track:
        gates = np.empty((length, n, 4 * hidden))  # i, f, g, o per step
        cells = np.zeros((length + 1, n, hidden))  # cells[k] enters step k
        tanh_c = np.empty((length, n, hidden))
    h = hs[0]
    c = np.zeros((n, hidden))
    for k, t in enumerate(steps):
        z = (x.data[:, t, :] @ wx.data + h @ wh.data) + b.data
        s = _sigmoid(z)
        g = np.tanh(z[:, h2:h3])
        c = s[:, h1:h2] * c + s[:, :h1] * g
        tc = np.tanh(c)
        h = np.multiply(s[:, h3:], tc, out=hs[k + 1])
        if track:
            s[:, h2:h3] = g
            gates[k] = s
            cells[k + 1] = c
            tanh_c[k] = tc
    data = (hs[:0:-1] if reverse else hs[1:]).transpose(1, 0, 2)

    def backward(gout):
        g_steps = gout.transpose(1, 0, 2)
        if reverse:
            g_steps = g_steps[::-1]
        # derivative of each gate's activation at its pre-activation
        dact = gates * (1.0 - gates)
        dact[:, :, h2:h3] = 1.0 - gates[:, :, h2:h3] ** 2
        dz = np.empty((length, n, 4 * hidden))
        dh = np.zeros((n, hidden))
        dc = np.zeros((n, hidden))
        wh_t = wh.data.T
        for k in range(length - 1, -1, -1):
            gk = gates[k]
            dh = dh + g_steps[k]
            dc = dc + dh * gk[:, h3:] * (1.0 - tanh_c[k] ** 2)
            dzk = dz[k]
            dzk[:, :h1] = dc * gk[:, h2:h3]
            dzk[:, h1:h2] = dc * cells[k]
            dzk[:, h2:h3] = dc * gk[:, :h1]
            dzk[:, h3:] = dh * tanh_c[k]
            dzk *= dact[k]
            if k:
                dc = dc * gk[:, h1:h2]
                dh = dzk @ wh_t
        flat = dz.reshape(length * n, 4 * hidden)
        if wx.requires_grad:
            xs = x.data.transpose(1, 0, 2)
            if reverse:
                xs = xs[::-1]
            wx.accumulate(xs.reshape(length * n, dim).T @ flat)
        if wh.requires_grad:
            wh.accumulate(hs[:-1].reshape(length * n, hidden).T @ flat)
        if b.requires_grad:
            b.accumulate(flat.sum(axis=0))
        if x.requires_grad:
            dx = (flat @ wx.data.T).reshape(length, n, dim)
            if reverse:
                dx = dx[::-1]
            x.accumulate(dx.transpose(1, 0, 2))

    return _node(data, (x, wx, wh, b), backward)


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

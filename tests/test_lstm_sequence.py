"""The fused BiLSTM op against the per-step tape LSTM it replaces.

``lstm_tape`` below is the encoder's former LSTM: one tape node per
matmul, add, gate slice, sigmoid, tanh and product, step by step, run
once per direction. The fused :func:`autodiff.bilstm` must give the same
forward bits and the same gradients up to summation order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock import autodiff as ad

from conftest import relative_error


def tape_sigmoid(a: ad.Tensor) -> ad.Tensor:
    data = ad._sigmoid(a.data)
    return ad._node(data, (a,), lambda g: a.accumulate(g * data * (1.0 - data)))


def tape_tanh(a: ad.Tensor) -> ad.Tensor:
    data = np.tanh(a.data)
    return ad._node(data, (a,), lambda g: a.accumulate(g * (1.0 - data * data)))


def tape_index(a: ad.Tensor, key) -> ad.Tensor:
    """``a[key]`` for a basic index (integers and slices) as a tape node."""
    data = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        a.accumulate(buf)

    return ad._node(data, (a,), backward)


def lstm_tape(v_steps, wx, wh, b, hidden, batch):
    h = ad.Tensor(np.zeros((batch, hidden)))
    c = ad.Tensor(np.zeros((batch, hidden)))
    states = []
    for v in v_steps:
        z = ad.add(ad.add(ad.matmul(v, wx), ad.matmul(h, wh)), b)
        # one elementwise sigmoid over all gates; the cell slice is unused
        gates = tape_sigmoid(z)
        i = tape_index(gates, np.s_[:, :hidden])
        f = tape_index(gates, np.s_[:, hidden : 2 * hidden])
        g = tape_tanh(tape_index(z, np.s_[:, 2 * hidden : 3 * hidden]))
        o = tape_index(gates, np.s_[:, 3 * hidden :])
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, tape_tanh(c))
        states.append(h)
    return states


def oracle(x, wx, wh, b):
    """(L, n, 2H) forward and backward hidden states of the per-step tape
    LSTM, run per direction on the halves of the stacked weights."""
    n, length, _ = x.data.shape
    hidden = wh.data.shape[1]
    v_steps = [tape_index(x, np.s_[:, k, :]) for k in range(length)]

    def direction(d):
        return [tape_index(t, d) for t in (wx, wh, b)]

    fwd = lstm_tape(v_steps, *direction(0), hidden, n)
    bwd = lstm_tape(v_steps[::-1], *direction(1), hidden, n)[::-1]
    return ad.concat(
        [ad.reshape(ad.concat([f, r], axis=1), (1, n, 2 * hidden)) for f, r in zip(fwd, bwd)],
        axis=0,
    )


def make_inputs(rng, n, length, dim, hidden, scale, requires_grad):
    x = rng.standard_normal((n, length, dim)) * scale
    # pin some entries at the saturating values
    pinned = rng.random(x.shape) < 0.2
    x[pinned] = rng.choice([-40.0, 40.0], size=int(pinned.sum()))
    arrays = [
        x,
        rng.standard_normal((2, dim, 4 * hidden)),
        rng.standard_normal((2, hidden, 4 * hidden)),
        rng.standard_normal((2, 4 * hidden)),
    ]
    return [ad.Tensor(a, requires_grad=requires_grad) for a in arrays]


cases = st.tuples(
    st.integers(1, 5),  # n
    st.integers(1, 12),  # L
    st.integers(1, 4),  # d
    st.integers(1, 4),  # H
    st.sampled_from([0.1, 1.0, 40.0]),  # input scale
    st.integers(0, 2**32 - 1),
)


@given(cases)
@settings(max_examples=150, deadline=None)
def test_forward_is_per_step_tape_bitwise(case):
    n, length, dim, hidden, scale, seed = case
    rng = np.random.default_rng(seed)
    inputs = make_inputs(rng, n, length, dim, hidden, scale, requires_grad=False)
    got = ad.bilstm(*inputs)
    want = oracle(*inputs)
    assert got.data.shape == (length, n, 2 * hidden)
    assert got.data.tobytes() == want.data.tobytes()
    # nothing recorded, nothing kept for a backward pass
    assert not got.requires_grad
    assert got._backward is None and got._parents == ()

    tracked = [ad.Tensor(t.data, requires_grad=True) for t in inputs]
    assert ad.bilstm(*tracked).data.tobytes() == want.data.tobytes()


@given(cases)
@settings(max_examples=150, deadline=None)
def test_gradients_match_per_step_tape(case):
    n, length, dim, hidden, scale, seed = case
    rng = np.random.default_rng(seed)
    fused = make_inputs(rng, n, length, dim, hidden, scale, requires_grad=True)
    taped = [ad.Tensor(t.data.copy(), requires_grad=True) for t in fused]
    weights = ad.Tensor(rng.standard_normal((length, n, 2 * hidden)))
    ad.backward(ad.tsum(ad.mul(ad.bilstm(*fused), weights)))
    ad.backward(ad.tsum(ad.mul(oracle(*taped), weights)))
    for got, want in zip(fused, taped):
        assert got.grad.shape == want.data.shape
        scale_floor = max(float(np.abs(want.grad).max()), 1e-300)
        assert relative_error(got.grad, want.grad, floor=scale_floor) < 1e-12


def test_only_inputs_that_require_gradients_get_them():
    rng = np.random.default_rng(0)
    x, wx, wh, b = make_inputs(rng, 3, 4, 2, 3, 1.0, requires_grad=False)
    wh.requires_grad = True
    ad.backward(ad.tsum(ad.bilstm(x, wx, wh, b)))
    assert wh.grad is not None and wh.grad.shape == wh.data.shape
    assert x.grad is None and wx.grad is None and b.grad is None

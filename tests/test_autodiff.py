"""Finite-difference checks for every tape operation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock import autodiff as ad

from conftest import relative_error


def fd_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        lp = fn()
        flat[k] = orig - eps
        lm = fn()
        flat[k] = orig
        gflat[k] = (lp - lm) / (2 * eps)
    return g


def check_op(build, shapes, seed=0, eps=1e-6, tol=1e-7):
    """``build(tensors) -> scalar tensor``; checks every input gradient."""
    rng = np.random.default_rng(seed)
    tensors = [ad.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = build(tensors)
    ad.backward(out)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_grad(lambda: float(build(tensors).data), t.data, eps)
        assert relative_error(analytic, numeric) < tol, (analytic, numeric)


def test_add_mul_broadcast():
    check_op(lambda ts: ad.tsum(ad.mul(ad.add(ts[0], ts[1]), ts[2])), [(3, 4), (4,), (3, 4)])


def test_sub_div():
    def build(ts):
        return ad.tsum(ad.div(ad.sub(ts[0], ts[1]), ad.add_const(ad.mul(ts[2], ts[2]), 1.0)))

    check_op(build, [(2, 3), (2, 3), (2, 3)])


def test_matmul_lstm_sequence():
    # Inputs at half scale keep most gates off saturation, so no gradient
    # entry is so small that central-difference noise swamps it.
    def build(ts):
        x = ad.reshape(ad.matmul(ts[0], ts[1]), (2, 3, 4))
        wx, wh = ad.scale(ts[2], 0.5), ad.scale(ts[3], 0.5)
        fwd = ad.lstm_sequence(x, wx, wh, ts[4])
        bwd = ad.lstm_sequence(x, wx, wh, ts[4], reverse=True)
        return ad.tsum(ad.mul(fwd, bwd))

    check_op(build, [(6, 5), (5, 4), (4, 8), (2, 8), (8,)], eps=1e-5, tol=1e-6)


def test_sigmoid_matches_masked_reference_bitwise():
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(0)
    arrays = [
        np.array([1000.0, -1000.0, 0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300]),
        rng.standard_normal(5000) * 40.0,
        rng.standard_normal((7, 5)),
    ]
    for x in arrays:
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = ad._sigmoid(x)
        want = masked(x)
        assert got.tobytes() == want.tobytes()


def test_sqrt():
    check_op(lambda ts: ad.tsum(ad.sqrt(ad.add_const(ad.mul(ts[0], ts[0]), 0.5))), [(5,)])


def test_sum_axis_keepdims():
    def build(ts):
        s = ad.tsum(ts[0], axis=1, keepdims=True)
        return ad.tsum(ad.mul(s, ts[1]))

    check_op(build, [(3, 4), (3, 1)])


def test_getitem_slicing():
    def build(ts):
        return ad.tsum(ad.mul(ts[0][:, 1:3], ts[0][:, 0:2]))

    check_op(build, [(3, 4)])


def test_take_and_scatter_rows():
    idx = np.array([0, 2, 2, 1])

    def build(ts):
        taken = ad.take_rows(ts[0], idx)
        spread = ad.scatter_rows(taken, np.array([1, 1, 0, 2]), 3)
        return ad.tsum(ad.mul(spread, spread))

    check_op(build, [(3, 4)])


def test_concat_reshape():
    def build(ts):
        c = ad.concat([ts[0], ts[1]], axis=1)
        return ad.tsum(ad.mul(ad.reshape(c, (12,)), ad.reshape(c, (12,))))

    check_op(build, [(3, 2), (3, 2)])


def test_softmax_logsumexp():
    def build(ts):
        sm = ad.softmax(ts[0], axis=1)
        lse = ad.logsumexp(ts[1], axis=1)
        return ad.add(ad.tsum(ad.mul(sm, ts[1])), ad.tsum(lse))

    check_op(build, [(3, 5), (3, 5)])


def test_embedding_bag():
    indices = np.array([0, 1, 1, 3, 2])
    offsets = np.array([0, 2, 2, 5])  # middle bag empty

    def build(ts):
        bags = ad.embedding_bag(ts[0], indices, offsets)
        return ad.tsum(ad.mul(bags, bags))

    check_op(build, [(4, 3)])


def test_embedding_bag_empty_bag_is_zero():
    table = ad.Tensor(np.ones((4, 3)))
    bags = ad.embedding_bag(table, np.array([1, 2]), np.array([0, 0, 2]))
    assert np.array_equal(bags.data[0], np.zeros(3))
    assert np.array_equal(bags.data[1], np.full(3, 2.0))


# Oracles for the exact scatters: np.add.at adds one element at a time,
# in input order, starting from zero.


def add_at_bag_sum(rows, indices, offsets):
    counts = np.diff(offsets)
    out = np.zeros((len(counts), rows.shape[1]))
    np.add.at(out, np.repeat(np.arange(len(counts)), counts), rows[indices])
    return out


def add_at_bag_grad(shape, indices, offsets, g):
    counts = np.diff(offsets)
    out = np.zeros(shape)
    np.add.at(out, indices, g[np.repeat(np.arange(len(counts)), counts)])
    return out


def wide_values(rng, shape):
    """Values over 16 decades, so that summation order shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


bags = st.tuples(
    st.integers(1, 6),  # table rows: few, so ids repeat
    st.lists(st.integers(0, 7), min_size=0, max_size=8),  # bag lengths
    st.integers(0, 2**32 - 1),
)

# _bag_sum loops over bags when there are fewer bags than the longest bag
# has ids, and over id positions otherwise; draw both sides of the switch
few_long_bags = st.tuples(
    st.integers(1, 6),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, 20), min_size=n, max_size=n).filter(
            lambda lengths: len(lengths) < max(lengths)
        )
    ),
    st.integers(0, 2**32 - 1),
)
many_short_bags = st.tuples(
    st.integers(1, 6),
    st.lists(st.integers(0, 3), min_size=3, max_size=12),
    st.integers(0, 2**32 - 1),
)


@given(st.one_of(bags, few_long_bags, many_short_bags))
@settings(max_examples=200, deadline=None)
def test_embedding_bag_forward_is_add_at_bitwise(case):
    n_rows, lengths, seed = case
    rng = np.random.default_rng(seed)
    rows = wide_values(rng, (n_rows, 3))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    indices = rng.integers(0, n_rows, offsets[-1])
    got = ad.embedding_bag(ad.Tensor(rows), indices, offsets).data
    want = add_at_bag_sum(rows, indices, offsets)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lengths", [[5], [2, 3], [1, 1, 1], [0, 2, 1]])
def test_bag_sum_of_negative_zeros_is_positive_zero(lengths):
    # a sum from zero turns -0.0 + -0.0 + ... into 0.0, on both sides of
    # the bags-versus-longest switch
    rows = np.full((2, 3), -0.0)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    indices = np.arange(offsets[-1]) % 2
    got = ad.embedding_bag(ad.Tensor(rows), indices, offsets).data
    want = add_at_bag_sum(rows, indices, offsets)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()


@given(bags, bags)
@settings(max_examples=200, deadline=None)
def test_embedding_bag_backward_is_add_at_bitwise(case, second):
    # Two bag sums over one table, so the gradient is set once and then
    # accumulated into.
    n_rows, lengths, seed = case
    rng = np.random.default_rng(seed)
    table = ad.Tensor(wide_values(rng, (n_rows, 3)), requires_grad=True)
    want = np.zeros((n_rows, 3))
    loss = None
    for lens in (lengths, second[1]):
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        indices = rng.integers(0, n_rows, offsets[-1])
        g = wide_values(rng, (len(lens), 3))
        part = ad.tsum(ad.mul(ad.embedding_bag(table, indices, offsets), ad.Tensor(g)))
        loss = part if loss is None else ad.add(loss, part)
        want = want + add_at_bag_grad(want.shape, indices, offsets, g)
    ad.backward(loss)
    got = table.grad if table.grad is not None else np.zeros_like(want)
    assert got.tobytes() == want.tobytes()


@given(
    st.integers(1, 6),
    st.integers(0, 12),
    st.sampled_from([(), (3,), (2, 2)]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_scatter_sum_is_add_at_bitwise(n, count, tail, seed):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, n, count)
    values = wide_values(rng, (count,) + tail)
    want = np.zeros((n,) + tail)
    np.add.at(want, index, values)
    got = ad._scatter_sum(index, values, n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    # the ops routed through it: scatter_rows forward, take_rows and
    # advanced getitem backward
    if tail == (3,):
        assert ad.scatter_rows(ad.Tensor(values), index, n).data.tobytes() == want.tobytes()
    src = ad.Tensor(wide_values(rng, (n, 3)), requires_grad=True)
    g = wide_values(rng, (count, 3))
    ad.backward(ad.tsum(ad.mul(ad.take_rows(src, index), ad.Tensor(g))))
    want = np.zeros((n, 3))
    np.add.at(want, index, g)
    assert src.grad.tobytes() == want.tobytes()
    src.grad = None
    cols = rng.integers(0, 3, count)
    ad.backward(ad.tsum(ad.mul(src[index, cols], ad.Tensor(g[:, 0]))))
    want = np.zeros((n, 3))
    np.add.at(want, (index, cols), g[:, 0])
    assert src.grad.tobytes() == want.tobytes()


def test_grad_accumulates_over_reuse():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
    ad.backward(ad.tsum(y))
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_no_graph_without_requires_grad():
    x = ad.Tensor(np.ones(3))
    y = ad.mul(x, x)
    assert y._backward is None and y._parents == ()


def test_unbroadcast_shapes():
    g = np.ones((5, 3, 4))
    assert ad._unbroadcast(g, (3, 4)).shape == (3, 4)
    assert ad._unbroadcast(g, (1, 4)).shape == (1, 4)
    assert float(ad._unbroadcast(g, (1, 4))[0, 0]) == 15.0

"""Engine ops against naive forward oracles and finite-difference gradients."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lamptune import engine as eg

from oracles import (
    central_diff_grad,
    manual_attention,
    manual_cross_entropy,
    manual_gelu,
    manual_layer_norm,
    naive_matmul,
    naive_outer_sum,
)

RNG = np.random.default_rng(7)


def weighted_sum(out: eg.Node) -> eg.Node:
    """Scalar loss r^T out c with random r and c fixed by the shape; a
    stack is flattened to its (B*n, k) rows first."""
    x = eg.merge_lead(out) if out.value.ndim == 3 else out
    n, k = x.value.shape
    rng = np.random.default_rng([n, k])
    r, c = rng.standard_normal((1, n)), rng.standard_normal((k, 1))
    return eg.matmul(eg.matmul(eg.constant(r), x), eg.constant(c))


def scalar_through(op, arrays, which: int, reduce_extra=None):
    """Scalar loss = weighted_sum(op(arrays)) as a function of arrays[which].

    Returns (analytic grad, numeric grad) for comparison.
    """

    def run(xs):
        nodes = [eg.parameter(x) for x in xs]
        out = op(*nodes)
        loss = weighted_sum(out) if out.value.shape != (1, 1) else out
        return nodes, loss

    nodes, loss = run(arrays)
    eg.backward(loss)
    analytic = nodes[which].grad.copy()

    def f(x):
        xs = [a.copy() for a in arrays]
        xs[which] = x
        _, l = run(xs)
        return l.value[0, 0]

    numeric = central_diff_grad(f, arrays[which].copy())
    return analytic, numeric


def assert_grad(op, arrays, tol=1e-8):
    for which in range(len(arrays)):
        a, n = scalar_through(op, arrays, which)
        assert np.max(np.abs(a - n)) < tol, f"operand {which}: max err {np.max(np.abs(a - n))}"


def test_matmul_forward_matches_triple_loop():
    a = RNG.standard_normal((5, 4))
    b = RNG.standard_normal((4, 6))
    got = eg.matmul(eg.constant(a), eg.constant(b)).value
    np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-13)


def test_outer_product_sum_matches_elementwise_loops():
    m = RNG.standard_normal((6, 3))
    i = RNG.standard_normal((3, 5))
    got = eg.outer_product_sum(eg.constant(m), eg.constant(i)).value
    np.testing.assert_allclose(got, naive_outer_sum(m, i), atol=1e-13)


def test_add_scale_grads():
    x = RNG.standard_normal((3, 4))
    y = RNG.standard_normal((3, 4))
    assert_grad(eg.add, [x, y])
    assert_grad(lambda a: eg.scale(a, -2.5), [x])


def test_matmul_grads():
    a = RNG.standard_normal((4, 3))
    b = RNG.standard_normal((3, 5))
    assert_grad(eg.matmul, [a, b])


def test_batch_matmul_forward_and_grads():
    a = RNG.standard_normal((3, 4, 2))
    b = RNG.standard_normal((3, 2, 5))
    got = eg.batch_matmul(eg.constant(a), eg.constant(b)).value
    want = np.stack([naive_matmul(a[i], b[i]) for i in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-13)
    assert_grad(eg.batch_matmul, [a, b])


def test_transpose_grads():
    x = RNG.standard_normal((3, 5))
    assert_grad(lambda a: eg.matmul(eg.transpose(a), a), [x])


def test_diag_forward_and_grad():
    q = RNG.standard_normal((1, 4))
    got = eg.diag(eg.constant(q)).value
    np.testing.assert_allclose(got, np.diag(q[0]))
    w = RNG.standard_normal((4, 4))
    assert_grad(lambda a: eg.matmul(eg.diag(a), eg.constant(w)), [q])


def test_sqrt_grad_and_negative_rejected():
    q = np.abs(RNG.standard_normal((1, 5))) + 0.1
    assert_grad(eg.sqrt, [q], tol=1e-7)
    with pytest.raises(ValueError):
        eg.sqrt(eg.constant(np.array([[-1.0]])))


def test_gelu_matches_manual_and_grad():
    x = RNG.standard_normal((4, 6))
    got = eg.gelu(eg.constant(x)).value
    np.testing.assert_allclose(got, manual_gelu(x), atol=1e-13)
    assert_grad(eg.gelu, [x], tol=1e-7)


def test_layer_norm_matches_manual_and_grads():
    x = RNG.standard_normal((5, 8))
    gamma = RNG.standard_normal((1, 8))
    beta = RNG.standard_normal((1, 8))
    got = eg.layer_norm(eg.constant(x), eg.constant(gamma), eg.constant(beta)).value
    np.testing.assert_allclose(got, manual_layer_norm(x, gamma, beta), atol=1e-12)
    assert_grad(eg.layer_norm, [x, gamma, beta], tol=1e-6)


def test_softmax_rows_sum_to_one_and_grad():
    x = RNG.standard_normal((4, 7)) * 3
    out = eg.softmax(eg.constant(x)).value
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-14)
    assert_grad(eg.softmax, [x], tol=1e-7)
    s = RNG.standard_normal((2, 3, 4))
    assert_grad(eg.softmax, [s], tol=1e-7)


def test_cross_entropy_matches_manual_and_grad():
    logits = RNG.standard_normal((6, 4)) * 2
    labels = RNG.integers(0, 4, size=6)
    got = eg.cross_entropy(eg.constant(logits), labels).value[0, 0]
    assert abs(got - manual_cross_entropy(logits, labels)) < 1e-12
    assert_grad(lambda a: eg.cross_entropy(a, labels), [logits], tol=1e-7)


def test_concat_and_reshape_ops_roundtrip_grads():
    a = RNG.standard_normal((3, 4))
    s1 = RNG.standard_normal((2, 3, 4))
    s2 = RNG.standard_normal((2, 5, 4))
    assert_grad(eg.concat_axis1, [s1, s2])
    assert_grad(lambda x: eg.tile_stack(x, 3), [a])
    assert_grad(lambda x: eg.merge_lead(x), [s1])
    m = RNG.standard_normal((6, 4))
    assert_grad(lambda x: eg.split_lead(x, 2), [m])


def test_split_merge_heads_roundtrip():
    x = RNG.standard_normal((6, 8))  # B=2, T=3, d=8, H=2
    n = eg.parameter(x)
    back = eg.merge_heads(eg.split_heads(n, 2, 2), 2, 2)
    np.testing.assert_allclose(back.value, x)
    assert_grad(lambda a: eg.split_heads(a, 2, 2), [x])
    s = RNG.standard_normal((4, 3, 2))  # B=2, H=2
    assert_grad(lambda a: eg.merge_heads(a, 2, 2), [s])


def test_split_heads_layout_matches_per_head_slices():
    b, t, h, dh = 2, 3, 2, 2
    x = RNG.standard_normal((b * t, h * dh))
    out = eg.split_heads(eg.constant(x), b, h).value
    for bi in range(b):
        for hi in range(h):
            rows = x[bi * t : (bi + 1) * t, hi * dh : (hi + 1) * dh]
            np.testing.assert_allclose(out[bi * h + hi], rows)


def test_attention_matches_per_example_oracle_across_blocks():
    b, t, d, h = 3, 5, 6, 3
    key_len = np.array([5, 2, 4])  # two examples with hidden pad keys
    x = RNG.standard_normal((b * t, d))
    wq, wk, wv = (RNG.standard_normal((d, d)) for _ in range(3))
    with mock.patch.object(eg, "BLOCK_BYTES", 1):  # one example per block
        got = eg.attention(eg.constant(x @ np.hstack([wq, wk, wv])), h, key_len).value
    for i in range(b):
        rows = slice(i * t, (i + 1) * t)
        mask = np.arange(t) >= key_len[i]
        want = manual_attention(x[rows], wq, wk, wv, np.eye(d), h, mask=mask if mask.any() else None)
        np.testing.assert_allclose(got[rows], want, atol=1e-13)


def test_attention_grads_every_operand():
    qkv = RNG.standard_normal((15, 18))  # B=3, T=5, d=6: q, k and v in one operand
    with mock.patch.object(eg, "BLOCK_BYTES", 1):
        assert_grad(lambda a: eg.attention(a, 3, [5, 2, 4]), [qkv], tol=1e-7)


def test_attention_rejects_bad_shapes_and_key_lengths():
    a = eg.constant(RNG.standard_normal((6, 12)))  # B=2, T=3, d=4
    with pytest.raises(eg.ShapeError):
        eg.attention(eg.constant(RNG.standard_normal((6, 4))), 2, [3, 3])  # 4 columns are not 3d
    with pytest.raises(eg.ShapeError):
        eg.attention(eg.constant(RNG.standard_normal((2, 3, 12))), 2, [3, 3])
    with pytest.raises(eg.ShapeError):
        eg.attention(a, 3, [3, 3])  # d=4 not divisible by 3 heads
    with pytest.raises(eg.ShapeError):
        eg.attention(a, 2, [2, 2, 2, 2])  # 6 rows not divisible by B=4
    for bad in ([0, 3], [3, 4]):
        with pytest.raises(ValueError):
            eg.attention(a, 2, bad)


def test_shared_prefix_layout_and_grads():
    p = RNG.standard_normal((2, 3))
    x = RNG.standard_normal((8, 3))  # B=4 examples of 2 rows
    out = eg.shared_prefix(eg.constant(p), eg.constant(x), 4).value
    want = np.concatenate([np.concatenate([p, x[2 * i : 2 * i + 2]]) for i in range(4)])
    assert np.array_equal(out, want)
    assert_grad(lambda a, c: eg.shared_prefix(a, c, 4), [p, x])
    assert_grad(lambda a, c: eg.shared_prefix(a, c, 1), [p, x])


def test_shared_prefix_rejects_bad_shapes():
    p, x = eg.constant(RNG.standard_normal((2, 3))), eg.constant(RNG.standard_normal((6, 3)))
    with pytest.raises(eg.ShapeError):
        eg.shared_prefix(p, eg.constant(RNG.standard_normal((6, 4))), 2)  # widths differ
    with pytest.raises(eg.ShapeError):
        eg.shared_prefix(p, eg.constant(RNG.standard_normal((2, 3, 3))), 2)  # a stack
    with pytest.raises(eg.ShapeError):
        eg.shared_prefix(p, x, 4)  # 6 rows not divisible by 4 examples
    with pytest.raises(eg.ShapeError):
        eg.shared_prefix(p, x, 0)


def test_gelu_mlp_matches_manual_and_grads():
    x = RNG.standard_normal((7, 4))
    w1 = RNG.standard_normal((4, 6))
    w2 = RNG.standard_normal((6, 3))
    with mock.patch.object(eg, "BLOCK_BYTES", 100):  # two rows per block
        got = eg.gelu_mlp(eg.constant(x), eg.constant(w1), eg.constant(w2)).value
        np.testing.assert_allclose(got, manual_gelu(x @ w1) @ w2, atol=1e-13)
        assert_grad(eg.gelu_mlp, [x, w1, w2], tol=1e-7)
    with pytest.raises(eg.ShapeError):
        eg.gelu_mlp(eg.constant(x), eg.constant(w2), eg.constant(w1))


def fused_values_and_grads(block_bytes, x, ws, key_len, h):
    """Outputs and input gradients of attention feeding gelu_mlp."""
    with mock.patch.object(eg, "BLOCK_BYTES", block_bytes):
        xn = eg.parameter(x)
        mixed = eg.attention(eg.matmul(xn, eg.constant(np.hstack(ws[:3]))), h, key_len)
        out = eg.gelu_mlp(mixed, eg.constant(ws[3]), eg.constant(ws[4]))
        eg.backward(weighted_sum(out))
    return out.value, xn.grad


@given(
    block_bytes=st.integers(1, 1 << 14),
    b=st.integers(1, 4),
    t=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_fused_ops_bit_identical_for_any_block_size(block_bytes, b, t, seed):
    rng = np.random.default_rng(seed)
    d, h, f = 4, 2, 8
    x = rng.standard_normal((b * t, d))
    ws = [rng.standard_normal(s) for s in ((d, d), (d, d), (d, d), (d, f), (f, d))]
    key_len = rng.integers(1, t + 1, size=b)
    # BLOCK_BYTES of 1 puts every example and row in its own block, 1<<14
    # puts all of them in one block
    want = fused_values_and_grads(1 << 14, x, ws, key_len, h)
    got = fused_values_and_grads(block_bytes, x, ws, key_len, h)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_block_row_mean_forward_and_grad():
    x = RNG.standard_normal((6, 4))
    got = eg.block_row_mean(eg.constant(x), 2).value
    want = np.stack([(x[2 * i] + x[2 * i + 1]) / 2 for i in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert_grad(lambda a: eg.block_row_mean(a, 3), [x])


def test_outer_product_sum_grads():
    m = RNG.standard_normal((5, 3))
    i = RNG.standard_normal((3, 4))
    assert_grad(eg.outer_product_sum, [m, i])


def test_shape_violations_raise():
    a = eg.constant(RNG.standard_normal((3, 4)))
    b = eg.constant(RNG.standard_normal((5, 4)))
    with pytest.raises(eg.ShapeError):
        eg.add(a, b)
    with pytest.raises(eg.ShapeError):
        eg.matmul(a, b)
    with pytest.raises(eg.ShapeError):
        eg.diag(a)
    with pytest.raises(eg.ShapeError):
        eg.block_row_mean(a, 2)
    with pytest.raises(eg.ShapeError):
        eg.layer_norm(a, eg.constant(np.ones((1, 3))), eg.constant(np.zeros((1, 4))))


def test_non_finite_leaves_rejected():
    with pytest.raises(ValueError):
        eg.constant(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        eg.parameter(np.array([[np.inf]]))


def test_backward_requires_scalar():
    x = eg.parameter(RNG.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        eg.backward(x)


def test_frozen_leaves_get_no_gradient():
    w = eg.constant(RNG.standard_normal((3, 3)))
    x = eg.parameter(RNG.standard_normal((2, 3)))
    eg.backward(weighted_sum(eg.matmul(x, w)))
    assert not w.requires_grad
    np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))
    assert np.any(x.grad != 0)


def test_reused_node_accumulates_both_paths():
    x = eg.parameter(np.array([[2.0, 3.0]]))
    # x x^T + x 1 = sum(x^2 + x): x feeds both products and both operands
    # of the first, so dy/dx = 2x + 1
    y = eg.add(eg.matmul(x, eg.transpose(x)), eg.matmul(x, eg.constant(np.ones((2, 1)))))
    eg.backward(y)
    np.testing.assert_allclose(x.grad, 2 * x.value + 1)


def test_repeated_forward_is_bit_identical():
    a = RNG.standard_normal((17, 23))
    b = RNG.standard_normal((23, 9))

    def run():
        pa, pb = eg.parameter(a), eg.parameter(b)
        loss = weighted_sum(eg.gelu(eg.matmul(pa, pb)))
        eg.backward(loss)
        return loss.value.copy(), pa.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_deep_chain_does_not_blow_recursion():
    x = eg.parameter(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = eg.scale(y, 1.0)
    eg.backward(y)
    np.testing.assert_allclose(x.grad, np.ones((1, 1)))

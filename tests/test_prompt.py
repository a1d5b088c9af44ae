"""Prompt mechanics: init sampling, decomposition, rebuild, pooling, counts."""

import numpy as np
import pytest

from lamptune import engine as eg
from lamptune import prompt as pr

from oracles import central_diff_grad, softmax_rows, svd_via_gram

RNG = np.random.default_rng(23)


def make_vocab(n=50, d=8, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, d))
    rank = rng.permutation(n)
    return pr.VocabTable(embeddings=emb, frequency_rank=rank)


def rel_fro(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------- init


def test_init_topk_one_forces_most_frequent_row():
    vocab = make_vocab()
    sp = pr.init_source_prompt(vocab, l=3, top_k=1, seed=5)
    most_frequent = vocab.embeddings[vocab.frequency_rank[0]]
    for row in sp.tokens:
        np.testing.assert_array_equal(row, most_frequent)


def test_init_deterministic_per_seed():
    vocab = make_vocab()
    a = pr.init_source_prompt(vocab, l=10, top_k=20, seed=9)
    b = pr.init_source_prompt(vocab, l=10, top_k=20, seed=9)
    assert np.array_equal(a.tokens, b.tokens)
    c = pr.init_source_prompt(vocab, l=10, top_k=20, seed=10)
    assert not np.array_equal(a.tokens, c.tokens)


def test_init_rows_come_from_top_k():
    vocab = make_vocab(n=6000, d=4, seed=1)
    sp = pr.init_source_prompt(vocab, l=100, top_k=5000, seed=2)
    top = vocab.embeddings[vocab.frequency_rank[:5000]]
    for row in sp.tokens:
        assert np.any(np.all(top == row, axis=1))


def test_init_without_replacement_when_possible():
    vocab = make_vocab(n=40, d=3, seed=3)
    sp = pr.init_source_prompt(vocab, l=30, top_k=40, seed=4)
    assert len({row.tobytes() for row in sp.tokens}) == 30
    # more rows than candidates: replacement kicks in instead of failing
    sp2 = pr.init_source_prompt(vocab, l=50, top_k=10, seed=4)
    assert sp2.tokens.shape == (50, 3)


def test_init_rejects_degenerate_args():
    vocab = make_vocab()
    with pytest.raises(ValueError):
        pr.init_source_prompt(vocab, l=0, top_k=5, seed=0)
    with pytest.raises(ValueError):
        pr.init_source_prompt(vocab, l=5, top_k=0, seed=0)
    with pytest.raises(ValueError):
        pr.init_source_prompt(vocab, l=5, top_k=51, seed=0)


def test_vocab_rank_must_be_permutation():
    with pytest.raises(ValueError):
        pr.VocabTable(embeddings=np.zeros((3, 2)), frequency_rank=np.array([0, 0, 2]))


# ---------------------------------------------------------------- decompose


def test_decompose_identity():
    dp = pr.decompose(pr.SourcePrompt(np.eye(4)), r=2)
    np.testing.assert_allclose(dp.q, [1.0, 1.0])


def test_decompose_diagonal():
    dp = pr.decompose(pr.SourcePrompt(np.diag([3.0, 2.0])), r=1)
    np.testing.assert_allclose(dp.q, [3.0])


def test_decompose_tail_energy_matches_oracle():
    a = RNG.standard_normal((100, 512))
    dp = pr.decompose(pr.SourcePrompt(a), r=8)
    recon = dp.u @ np.diag(dp.q) @ dp.v.T
    sv = svd_via_gram(a)
    tail = float(np.sum(np.sort(sv)[:-8] ** 2))
    assert abs(np.linalg.norm(a - recon) ** 2 - tail) / tail < 1e-8


def test_decompose_q_nonnegative_descending():
    dp = pr.decompose(pr.SourcePrompt(RNG.standard_normal((30, 20))), r=10)
    assert np.all(dp.q >= 0)
    assert np.all(np.diff(dp.q) <= 0)


def test_decompose_rank_bounds():
    sp = pr.SourcePrompt(RNG.standard_normal((10, 6)))
    with pytest.raises(ValueError):
        pr.decompose(sp, r=0)
    with pytest.raises(ValueError):
        pr.decompose(sp, r=7)


# ---------------------------------------------------------------- aggregates


def test_aggregate_m_identity_case():
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.array([2.0, 1.0]), v=np.eye(2))
    np.testing.assert_array_equal(pr.aggregate_m(dp).value, [[2.0, 0.0], [0.0, 1.0]])


def test_aggregate_i_identity_case():
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.array([2.0, 1.0]), v=np.eye(2))
    np.testing.assert_array_equal(pr.aggregate_i(dp).value, [[2.0, 0.0], [0.0, 1.0]])
    dp1 = pr.DecomposedPrompt(u=np.eye(2), q=np.ones(2), v=RNG.standard_normal((5, 2)))
    np.testing.assert_allclose(pr.aggregate_i(dp1).value, dp1.v.T)


def test_aggregate_zero_q_gives_zero():
    dp = pr.DecomposedPrompt(u=RNG.standard_normal((4, 2)), q=np.zeros(2), v=RNG.standard_normal((3, 2)))
    assert np.all(pr.aggregate_m(dp).value == 0)
    assert np.all(pr.aggregate_i(dp).value == 0)


def test_aggregates_match_per_column_scaling_loop():
    u = RNG.standard_normal((10, 3))
    q = RNG.standard_normal(3)
    v = RNG.standard_normal((7, 3))
    dp = pr.DecomposedPrompt(u=u, q=q, v=v)
    m_want = np.zeros((10, 3))
    for k in range(3):
        for i in range(10):
            m_want[i, k] = u[i, k] * q[k]
    i_want = np.zeros((3, 7))
    for k in range(3):
        for j in range(7):
            i_want[k, j] = q[k] * v[j, k]
    np.testing.assert_allclose(pr.aggregate_m(dp).value, m_want, atol=1e-12)
    np.testing.assert_allclose(pr.aggregate_i(dp).value, i_want, atol=1e-12)


# ---------------------------------------------------------------- outer product


def test_outer_product_single_column():
    m = eg.constant(np.array([[1.0], [2.0]]))
    i = eg.constant(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(pr.compressed_outer_product(m, i).value, [[3.0, 4.0], [6.0, 8.0]])


def test_outer_product_identity_left():
    i = RNG.standard_normal((2, 5))
    got = pr.compressed_outer_product(eg.constant(np.eye(2)), eg.constant(i)).value
    np.testing.assert_array_equal(got, i)


def test_outer_product_equals_matmul_large():
    m = RNG.standard_normal((100, 8))
    i = RNG.standard_normal((8, 512))
    got = pr.compressed_outer_product(eg.constant(m), eg.constant(i)).value
    assert rel_fro(got, m @ i) < 1e-12


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_verbatim_squares_q():
    dp = pr.decompose(pr.SourcePrompt(np.diag([3.0, 2.0])), r=2)
    np.testing.assert_allclose(pr.reconstruct(dp, "verbatim").value, np.diag([9.0, 4.0]), atol=1e-10)


def test_reconstruct_balanced_recovers_diagonal():
    dp = pr.decompose(pr.SourcePrompt(np.diag([3.0, 2.0])), r=2)
    np.testing.assert_allclose(pr.reconstruct(dp, "balanced").value, np.diag([3.0, 2.0]), atol=1e-10)


def test_reconstruct_balanced_full_rank_round_trip():
    a = RNG.standard_normal((100, 512))
    dp = pr.decompose(pr.SourcePrompt(a), r=100)
    assert rel_fro(pr.reconstruct(dp, "balanced").value, a) < 1e-6


def test_reconstruct_balanced_rejects_negative_q():
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.array([1.0, -0.5]), v=np.eye(2))
    with pytest.raises(ValueError):
        pr.reconstruct(dp, "balanced")
    pr.reconstruct(dp, "verbatim")  # fine: Q is squared anyway


def test_reconstruct_unknown_mode():
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.ones(2), v=np.eye(2))
    with pytest.raises(ValueError):
        pr.reconstruct(dp, "hybrid")


def test_reconstruct_rank_bounded_by_r():
    # the Gram-eigenvalue oracle only resolves sigma to ~sqrt(eps)*sigma_1,
    # too coarse for a 1e-8 rank cutoff, so use the package SVD here
    from lamptune.svd import svd

    dp = pr.decompose(pr.SourcePrompt(RNG.standard_normal((40, 30))), r=5)
    for mode in pr.RECONSTRUCT_MODES:
        sv = svd(pr.reconstruct(dp, mode).value).s
        assert np.all(sv[5:] <= 1e-8 * sv[0])


# ---------------------------------------------------------------- pooling


def test_average_pool_constant_rows_unchanged():
    c = eg.constant(np.tile(np.array([[1.0, 2.0, 3.0]]), (8, 1)))
    out = pr.average_pool(c, 4).value
    np.testing.assert_allclose(out, np.tile(np.array([[1.0, 2.0, 3.0]]), (2, 1)))


def test_average_pool_hand_case():
    c = eg.constant(np.array([[1.0], [3.0], [5.0], [7.0]]))
    np.testing.assert_array_equal(pr.average_pool(c, 2).value, [[2.0], [6.0]])


def test_average_pool_shape_and_identity():
    c = eg.constant(RNG.standard_normal((100, 16)))
    assert pr.average_pool(c, 4).value.shape == (25, 16)
    np.testing.assert_array_equal(pr.average_pool(c, 1).value, c.value)


def test_average_pool_indivisible_names_both():
    c = eg.constant(RNG.standard_normal((100, 4)))
    with pytest.raises(eg.ShapeError, match=r"p=3.*l=100"):
        pr.average_pool(c, 3)


def test_average_pool_linearity():
    c1 = RNG.standard_normal((12, 5))
    c2 = RNG.standard_normal((12, 5))
    lhs = pr.average_pool(eg.constant(2.0 * c1 + 3.0 * c2), 3).value
    rhs = 2.0 * pr.average_pool(eg.constant(c1), 3).value + 3.0 * pr.average_pool(eg.constant(c2), 3).value
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_self_attention_pool_zero_weights_give_column_mean():
    c = RNG.standard_normal((10, 4))
    out = pr.self_attention_pool(eg.constant(c), np.zeros((4, 5))).value
    np.testing.assert_allclose(out, np.tile(c.mean(axis=0), (5, 1)), atol=1e-12)


def test_self_attention_pool_shape():
    c = eg.constant(RNG.standard_normal((100, 512)))
    w = RNG.standard_normal((512, 25))
    assert pr.self_attention_pool(c, w).value.shape == (25, 512)


def test_self_attention_pool_matches_primitive_composition():
    c = RNG.standard_normal((20, 6))
    w = RNG.standard_normal((6, 4))
    got = pr.self_attention_pool(eg.constant(c), w).value
    want = softmax_rows((c @ w).T) @ c
    assert rel_fro(got, want) < 1e-12


def test_pool_chain_gradients_match_finite_differences():
    l, d, r, p = 6, 5, 3, 2
    dp = pr.decompose(pr.SourcePrompt(RNG.standard_normal((l, d))), r=r)
    w0 = 0.1 * RNG.standard_normal((d, l // p))
    target = RNG.standard_normal((l // p, d))
    weights = eg.constant(RNG.standard_normal((1, l // p)))

    def loss_value(u, q, v, w, mode, pool_mode):
        lv = pr.PromptLeaves(u=eg.parameter(u), q=eg.parameter(q.reshape(1, -1)), v=eg.parameter(v))
        wn = eg.parameter(w)
        c = pr.reconstruct(lv, mode)
        pooled = pr.apply_pool(c, pr.PoolConfig(mode=pool_mode, p=p), wn)
        diff = eg.add(pooled, eg.scale(eg.constant(target), -1.0))
        mixed = eg.matmul(weights, diff)  # squared norm of a fixed random mix of the rows
        loss = eg.matmul(mixed, eg.transpose(mixed))
        return loss, lv, wn

    for mode in pr.RECONSTRUCT_MODES:
        for pool_mode in ("average", "self-attention"):
            loss, lv, wn = loss_value(dp.u, dp.q, dp.v, w0, mode, pool_mode)
            eg.backward(loss)
            for name, node, raw in [("u", lv.u, dp.u), ("q", lv.q, dp.q), ("v", lv.v, dp.v), ("w", wn, w0)]:
                if name == "w" and pool_mode == "average":
                    continue

                def f(x, name=name, mode=mode, pool_mode=pool_mode):
                    args = {"u": dp.u, "q": dp.q, "v": dp.v, "w": w0}
                    args[name] = x
                    val, _, _ = loss_value(args["u"], args["q"], args["v"], args["w"], mode, pool_mode)
                    return val.value[0, 0]

                num = central_diff_grad(f, raw.copy(), eps=1e-5)
                ana = node.grad.reshape(num.shape)
                denom = np.maximum(np.abs(num), 1e-3)
                assert np.max(np.abs(ana - num) / denom) < 1e-4, (mode, pool_mode, name)


# ---------------------------------------------------------------- counting


def test_lamp_count_paper_cells():
    assert pr.lamp_param_count(500, 4096, 8) == 36776
    assert pr.lamp_param_count(100, 1024, 8) == 9000
    assert pr.lamp_param_count(100, 768, 8) == 6952


def test_vanilla_count_cells():
    assert pr.vanilla_pt_param_count(100, 512) == 51200
    assert pr.vanilla_pt_param_count(500, 4096) == 2048000
    assert pr.vanilla_pt_param_count(1, 1) == 1


def test_count_monotonicity_and_savings():
    base = pr.lamp_param_count(100, 512, 8)
    assert pr.lamp_param_count(101, 512, 8) > base
    assert pr.lamp_param_count(100, 513, 8) > base
    assert pr.lamp_param_count(100, 512, 9) > base
    for l, d in [(100, 512), (50, 64), (20, 1024)]:
        for r in range(1, 10):
            if r < l * d / (l + d + 1):
                assert pr.lamp_param_count(l, d, r) < pr.vanilla_pt_param_count(l, d)


def test_counts_reject_nonpositive():
    with pytest.raises(ValueError):
        pr.lamp_param_count(0, 5, 1)
    with pytest.raises(ValueError):
        pr.vanilla_pt_param_count(5, 0)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    dp = pr.decompose(pr.SourcePrompt(RNG.standard_normal((12, 7))), r=3)
    path = tmp_path / "p.lamp"
    pr.save_checkpoint(path, dp, mode="balanced", pool=pr.PoolConfig(mode="average", p=4))
    dp2, mode, pool = pr.load_checkpoint(path)
    assert np.array_equal(dp.u, dp2.u)
    assert np.array_equal(dp.q, dp2.q)
    assert np.array_equal(dp.v, dp2.v)
    assert mode == "balanced"
    assert pool == pr.PoolConfig(mode="average", p=4)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.lamp"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValueError, match="magic"):
        pr.load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.ones(2), v=np.eye(2))
    path = tmp_path / "v.lamp"
    pr.save_checkpoint(path, dp)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        pr.load_checkpoint(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    dp = pr.DecomposedPrompt(u=np.eye(2), q=np.ones(2), v=np.eye(2))
    path = tmp_path / "t.lamp"
    pr.save_checkpoint(path, dp)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        pr.load_checkpoint(path)


def test_pool_config_validation():
    with pytest.raises(ValueError):
        pr.PoolConfig(mode="max", p=2)
    with pytest.raises(ValueError):
        pr.PoolConfig(mode="average", p=0)
    assert pr.PoolConfig(mode="average", p=5).pooled_rows(100) == 20
    assert pr.PoolConfig(mode="none", p=1).pooled_rows(7) == 7

"""Frozen encoder against a hand-rolled per-step numpy oracle."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamptune import backbone
from lamptune import engine as eg
from lamptune.backbone import (
    BackboneConfig,
    FrozenBackbone,
    build_backbone,
    digest,
    embed,
    forward_batch,
    sinusoidal_pe,
)

from oracles import manual_attention, manual_gelu, manual_layer_norm

RNG = np.random.default_rng(31)


def tiny_config(**over):
    base = dict(vocab_size=10, d=4, n_layers=1, n_heads=1, ffn_width=8, m=2, n_classes=3, seed=5)
    base.update(over)
    return BackboneConfig(**base)


def manual_pe(t, d):
    pe = np.zeros((t, d))
    for pos in range(t):
        for j in range(d):
            angle = pos / 10000.0 ** (2 * (j // 2) / d)
            pe[pos, j] = np.sin(angle) if j % 2 == 0 else np.cos(angle)
    return 0.02 * pe


def forward_one(bb, prompt, ids):
    """Logits (1, n_classes) of one example: forward_batch on a stack of one."""
    return forward_batch(bb, prompt, *embed(bb, [ids]))


def manual_forward(bb, prompt, e, n_real):
    """The same equations, composed step by step from the oracle pieces."""
    cfg = bb.config
    w = bb.weights
    x = np.concatenate([prompt, e], axis=0)
    t = x.shape[0]
    x = x + manual_pe(t, cfg.d)
    k = prompt.shape[0]
    mask = np.zeros(t, dtype=bool)
    mask[k + n_real :] = True
    use_mask = mask if mask.any() else None
    for i in range(cfg.n_layers):
        h = manual_layer_norm(x, w[f"layer{i}.ln1_g"], w[f"layer{i}.ln1_b"])
        x = x + manual_attention(
            h, w[f"layer{i}.wq"], w[f"layer{i}.wk"], w[f"layer{i}.wv"], w[f"layer{i}.wo"],
            cfg.n_heads, mask=use_mask,
        )
        h2 = manual_layer_norm(x, w[f"layer{i}.ln2_g"], w[f"layer{i}.ln2_b"])
        x = x + manual_gelu(h2 @ w[f"layer{i}.w1"]) @ w[f"layer{i}.w2"]
    x = manual_layer_norm(x, w["lnf_g"], w["lnf_b"])
    pooled = x[~mask].mean(axis=0)
    return pooled @ w["head"]


def test_pe_matches_looped_formula():
    np.testing.assert_allclose(sinusoidal_pe(7, 6), manual_pe(7, 6), atol=1e-15)
    np.testing.assert_allclose(sinusoidal_pe(5, 5), manual_pe(5, 5), atol=1e-15)


def test_encode_empty_sequence_is_zero():
    bb = build_backbone(tiny_config())
    e, lengths = embed(bb, [[], []])
    np.testing.assert_array_equal(e, np.zeros((2, 2, 4)))
    np.testing.assert_array_equal(lengths, [0, 0])


def test_encode_gather_semantics_and_repeats():
    bb = build_backbone(tiny_config(m=4))
    e, lengths = embed(bb, [[3, 3, 7], [0, 1, 9]])
    np.testing.assert_array_equal(e[0, 0], bb.embedding[3])
    np.testing.assert_array_equal(e[0, 1], bb.embedding[3])
    np.testing.assert_array_equal(e[0, 2], bb.embedding[7])
    np.testing.assert_array_equal(e[1, :3], bb.embedding[[0, 1, 9]])
    np.testing.assert_array_equal(e[:, 3], np.zeros((2, 4)))
    np.testing.assert_array_equal(lengths, [3, 3])


def test_encode_rejects_bad_ids_and_overflow():
    bb = build_backbone(tiny_config())
    for bad in ([[10]], [[-1]], [[1], [10]]):
        with pytest.raises(ValueError, match="vocabulary of 10"):
            embed(bb, bad)
    with pytest.raises(ValueError, match="m=2"):
        embed(bb, [[1, 2, 3]])
    with pytest.raises(ValueError, match="shape"):
        embed(bb, [1, 2])


def test_forward_matches_manual_oracle_tiny():
    bb = build_backbone(tiny_config())
    prompt = RNG.standard_normal((1, 4))
    got = forward_one(bb, prompt, [4, 9]).value.ravel()
    want = manual_forward(bb, prompt, embed(bb, [[4, 9]])[0][0], n_real=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_matches_manual_oracle_padded_multihead():
    bb = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3, seed=9))
    prompt = RNG.standard_normal((2, 8))
    got = forward_one(bb, prompt, [1, 6]).value.ravel()  # one pad position
    want = manual_forward(bb, prompt, embed(bb, [[1, 6]])[0][0], n_real=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_deterministic():
    bb = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3))
    prompt = RNG.standard_normal((3, 8))
    a = forward_one(bb, prompt, [2, 5, 1]).value
    b = forward_one(bb, prompt, [2, 5, 1]).value
    assert np.array_equal(a, b)


def test_identical_prompt_rows_commute():
    bb = build_backbone(tiny_config())
    prompt = RNG.standard_normal((3, 4))
    prompt[2] = prompt[0]
    base = forward_one(bb, prompt, [1]).value
    swapped = prompt[[2, 1, 0]]
    np.testing.assert_array_equal(forward_one(bb, swapped, [1]).value, base)


BATCH_BB = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3, vocab_size=20))
BATCH_PROMPT = RNG.standard_normal((2, 8))


@given(st.lists(st.lists(st.integers(0, 19), max_size=3), min_size=1, max_size=6))
@example([[1, 2, 3], [4], []])
def test_batch_matches_per_example_forward(seqs):
    stacks, lengths = zip(*(embed(BATCH_BB, [s]) for s in seqs))
    got = forward_batch(BATCH_BB, BATCH_PROMPT, np.concatenate(stacks), np.concatenate(lengths)).value
    for i, s in enumerate(seqs):
        want = forward_one(BATCH_BB, BATCH_PROMPT, s).value.ravel()
        np.testing.assert_allclose(got[i], want, atol=1e-12)


def test_gradient_reaches_prompt_and_not_weights():
    bb = build_backbone(tiny_config())
    p = eg.parameter(RNG.standard_normal((2, 4)))
    logits = forward_one(bb, p, [4, 9])
    eg.backward(eg.cross_entropy(logits, [1]))
    assert np.any(p.grad != 0.0)
    before = digest(bb)
    assert digest(bb) == before
    for arr in bb.weights.values():
        assert np.all(np.isfinite(arr))


def test_digest_tracks_weights_and_seed():
    bb1 = build_backbone(tiny_config())
    bb2 = build_backbone(tiny_config())
    bb3 = build_backbone(tiny_config(seed=6))
    assert digest(bb1) == digest(bb2)
    assert digest(bb1) != digest(bb3)
    # digests must respond to any weight change
    mutated = {k: v.copy() for k, v in bb1.weights.items()}
    mutated["head"][0, 0] += 1e-9
    assert digest(FrozenBackbone(bb1.config, mutated)) != digest(bb1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected_at_construction(bad):
    bb = build_backbone(tiny_config())
    weights = {k: v.copy() for k, v in bb.weights.items()}
    weights["layer0.w1"][1, 2] = bad
    with pytest.raises(ValueError, match="layer0.w1"):
        FrozenBackbone(bb.config, weights)


def test_digest_constant_across_training_like_use():
    bb = build_backbone(tiny_config())
    before = digest(bb)
    for _ in range(5):
        p = eg.parameter(RNG.standard_normal((2, 4)))
        logits = forward_one(bb, p, [1, 2])
        eg.backward(eg.cross_entropy(logits, [0]))
    assert digest(bb) == before


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(d=6, n_heads=4)
    with pytest.raises(ValueError):
        tiny_config(m=0)


def test_forward_rejects_bad_shapes():
    bb = build_backbone(tiny_config())
    with pytest.raises(eg.ShapeError):
        forward_one(bb, RNG.standard_normal((2, 5)), [1])
    with pytest.raises(eg.ShapeError):
        forward_batch(bb, RNG.standard_normal((2, 4)), np.zeros((1, 3, 4)), np.array([3]))
    with pytest.raises(eg.ShapeError):
        forward_batch(bb, RNG.standard_normal((2, 4)), np.zeros((2, 2, 4)), np.array([1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_rejects_non_finite_input(bad):
    bb = build_backbone(tiny_config())
    e_stack = np.zeros((2, 2, 4))
    e_stack[1, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        forward_batch(bb, RNG.standard_normal((2, 4)), e_stack, np.array([2, 2]))


def test_pe_cache_keeps_one_table_per_length():
    bb = build_backbone(tiny_config(d=8, n_heads=2, m=3))
    prompt = RNG.standard_normal((2, 8))
    backbone._PE_CACHE.clear()
    for b in (1, 3, 5):
        forward_batch(bb, prompt, *embed(bb, RNG.integers(0, 10, size=(b, 3))))
    assert [table.shape for table in backbone._PE_CACHE.values()] == [(5, 8)]


def unshared_forward(bb, p_node, e_stack, lengths):
    """The forward without prefix sharing, from the general ops: the
    prompt tiled into every example before the position encodings, and
    Q, K and V projected by three matmuls whose columns are placed side
    by side with exact 0/1 selector products."""
    cfg = bb.config
    b, k, d = e_stack.shape[0], p_node.value.shape[0], cfg.d
    t = k + cfg.m
    w = {name: eg.constant(arr) for name, arr in bb.weights.items()}
    seq = eg.concat_axis1(eg.tile_stack(p_node, b), eg.constant(e_stack))
    x = eg.merge_lead(eg.add(seq, eg.constant(np.broadcast_to(sinusoidal_pe(t, d), (b, t, d)))))
    select = [eg.constant(np.eye(d, 3 * d, j * d)) for j in range(3)]
    for i in range(cfg.n_layers):
        ln = eg.layer_norm(x, w[f"layer{i}.ln1_g"], w[f"layer{i}.ln1_b"])
        q, kk, v = (eg.matmul(eg.matmul(ln, w[f"layer{i}.{name}"]), s)
                    for name, s in zip(("wq", "wk", "wv"), select))
        mixed = eg.attention(eg.add(eg.add(q, kk), v), cfg.n_heads, k + lengths)
        x = eg.add(x, eg.matmul(mixed, w[f"layer{i}.wo"]))
        ln2 = eg.layer_norm(x, w[f"layer{i}.ln2_g"], w[f"layer{i}.ln2_b"])
        x = eg.add(x, eg.gelu_mlp(ln2, w[f"layer{i}.w1"], w[f"layer{i}.w2"]))
    x = eg.layer_norm(x, w["lnf_g"], w["lnf_b"])
    pool = np.zeros((b, 1, t))
    for i, n in enumerate(lengths):
        pool[i, 0, : k + n] = 1.0 / (k + n)
    pooled = eg.batch_matmul(eg.constant(pool), eg.split_lead(x, b))
    return eg.matmul(eg.merge_lead(pooled), w["head"])


def test_shared_prefix_path_matches_unshared_chain():
    bb = build_backbone(tiny_config(d=16, n_heads=4, n_layers=3, m=6, vocab_size=20, seed=4))
    prompt = 0.5 * RNG.standard_normal((5, 16))
    e_stack, _ = embed(bb, RNG.integers(0, 20, size=(7, 6)))
    lengths = np.array([6, 0, 3, 5, 1, 6, 2])  # padded examples, one with no tokens
    for i, n in enumerate(lengths):
        e_stack[i, n:] = 0.0
    labels = RNG.integers(0, 3, size=7)
    results = []
    for fwd in (forward_batch, unshared_forward):
        p = eg.parameter(prompt)
        logits = fwd(bb, p, e_stack, lengths)
        eg.backward(eg.cross_entropy(logits, labels))
        results.append((logits.value, p.grad))
    (got, got_grad), (want, want_grad) = results
    assert np.array_equal(got, want)
    assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

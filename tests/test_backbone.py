"""Frozen encoder against a hand-rolled per-step numpy oracle."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamptune import engine as eg
from lamptune.backbone import (
    BackboneConfig,
    FrozenBackbone,
    build_backbone,
    digest,
    encode_input,
    forward,
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
    np.testing.assert_array_equal(encode_input(bb, []), np.zeros((2, 4)))


def test_encode_gather_semantics_and_repeats():
    bb = build_backbone(tiny_config(m=4))
    e = encode_input(bb, [3, 3, 7])
    np.testing.assert_array_equal(e[0], bb.embedding[3])
    np.testing.assert_array_equal(e[1], bb.embedding[3])
    np.testing.assert_array_equal(e[2], bb.embedding[7])
    np.testing.assert_array_equal(e[3], np.zeros(4))


def test_encode_rejects_bad_ids_and_overflow():
    bb = build_backbone(tiny_config())
    with pytest.raises(ValueError):
        encode_input(bb, [10])
    with pytest.raises(ValueError):
        encode_input(bb, [-1])
    with pytest.raises(ValueError):
        encode_input(bb, [1, 2, 3])


def test_forward_matches_manual_oracle_tiny():
    bb = build_backbone(tiny_config())
    prompt = RNG.standard_normal((1, 4))
    e = encode_input(bb, [4, 9])
    got = forward(bb, prompt, e).value.ravel()
    want = manual_forward(bb, prompt, e, n_real=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_matches_manual_oracle_padded_multihead():
    bb = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3, seed=9))
    prompt = RNG.standard_normal((2, 8))
    e = encode_input(bb, [1, 6])  # one pad position
    got = forward(bb, prompt, e).value.ravel()
    want = manual_forward(bb, prompt, e, n_real=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_deterministic():
    bb = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3))
    prompt = RNG.standard_normal((3, 8))
    e = encode_input(bb, [2, 5, 1])
    a = forward(bb, prompt, e).value
    b = forward(bb, prompt, e).value
    assert np.array_equal(a, b)


def test_identical_prompt_rows_commute():
    bb = build_backbone(tiny_config())
    prompt = RNG.standard_normal((3, 4))
    prompt[2] = prompt[0]
    e = encode_input(bb, [1])
    base = forward(bb, prompt, e).value
    swapped = prompt[[2, 1, 0]]
    np.testing.assert_array_equal(forward(bb, swapped, e).value, base)


BATCH_BB = build_backbone(tiny_config(d=8, n_heads=2, n_layers=2, m=3, vocab_size=20))
BATCH_PROMPT = RNG.standard_normal((2, 8))


@given(st.lists(st.lists(st.integers(0, 19), max_size=3), min_size=1, max_size=6))
@example([[1, 2, 3], [4], []])
def test_batch_matches_per_example_forward(seqs):
    stack = np.stack([encode_input(BATCH_BB, s) for s in seqs])
    lengths = np.array([len(s) for s in seqs])
    got = forward_batch(BATCH_BB, BATCH_PROMPT, stack, lengths).value
    for i, s in enumerate(seqs):
        want = forward(BATCH_BB, BATCH_PROMPT, encode_input(BATCH_BB, s)).value.ravel()
        np.testing.assert_allclose(got[i], want, atol=1e-12)


def test_gradient_reaches_prompt_and_not_weights():
    bb = build_backbone(tiny_config())
    p = eg.parameter(RNG.standard_normal((2, 4)))
    e = encode_input(bb, [4, 9])
    logits = forward(bb, p, e)
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
        logits = forward(bb, p, encode_input(bb, [1, 2]))
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
        forward(bb, RNG.standard_normal((2, 5)), encode_input(bb, [1]))
    with pytest.raises(eg.ShapeError):
        forward(bb, RNG.standard_normal((2, 4)), np.zeros((3, 4)))
    with pytest.raises(eg.ShapeError):
        forward_batch(bb, RNG.standard_normal((2, 4)), np.zeros((2, 2, 4)), np.array([1]))

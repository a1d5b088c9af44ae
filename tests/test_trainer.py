"""Trainer contract tests: loss, AdamW, steps, loops, subsampling, gradcheck."""

import numpy as np
import pytest

import lamptune.engine as eg
import lamptune.prompt as pr
from lamptune import trainer
from lamptune.backbone import BackboneConfig, build_backbone, digest, embed, forward_batch
from lamptune.trainer import (
    Dataset,
    OptimizerState,
    SyntheticTask,
    TrainConfig,
    adamw_update,
    few_shot_subsample,
    generate_dataset,
    gradcheck,
    init_prompt,
    label_of,
    loss,
    train_loop,
    train_step,
)

from oracles import manual_cross_entropy


def tiny_backbone(vocab=12, d=16, layers=1, heads=2, ffn=32, m=6, classes=2, seed=3):
    return build_backbone(
        BackboneConfig(
            vocab_size=vocab, d=d, n_layers=layers, n_heads=heads,
            ffn_width=ffn, m=m, n_classes=classes, seed=seed,
        )
    )


def tiny_setup(pool_mode="none", p=1, seed=5, method="lamp"):
    """Backbone, starting trainable state (l=8, r=3), pool, W_sa and a batch."""
    bb = tiny_backbone()
    pool = pr.PoolConfig(mode=pool_mode, p=p)
    trainable, w_sa, _ = init_prompt(method, pool, bb, l=8, r=3, top_k=12, seed=seed)
    task = SyntheticTask(rule="token-presence", vocab_size=12, seq_len=6, seed=seed)
    batch = generate_dataset(task, 6)
    return bb, trainable, pool, w_sa, batch


# ---------------------------------------------------------------- loss

def test_loss_uniform_logits_is_ln_k():
    for k in (2, 3, 7):
        logits = eg.constant(np.zeros((4, k)))
        out = loss(logits, np.array([0, 1, k - 1, 0][:4]))
        assert abs(out.value[0, 0] - np.log(k)) < 1e-12


def test_loss_decreases_as_true_logit_grows():
    labels = np.array([1])
    prev = np.inf
    for scale in (0.0, 1.0, 4.0, 16.0, 64.0):
        logits = np.zeros((1, 3))
        logits[0, 1] = scale
        cur = loss(eg.constant(logits), labels).value[0, 0]
        assert cur < prev or scale == 0.0
        prev = cur
    assert prev < 1e-20


def test_loss_matches_manual_cross_entropy():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    ours = loss(eg.constant(logits), labels).value[0, 0]
    assert abs(ours - manual_cross_entropy(logits, labels)) < 1e-12


# ---------------------------------------------------------------- adamw

def test_adamw_zero_grad_no_decay_keeps_params():
    theta = np.arange(6.0).reshape(2, 3)
    params = {"w": theta}
    cfg = TrainConfig(learning_rate=0.3, weight_decay=0.0)
    adamw_update(params, {"w": np.zeros((2, 3))}, OptimizerState(), cfg)
    assert np.array_equal(theta, np.arange(6.0).reshape(2, 3))


def test_adamw_zero_grad_decay_shrinks_by_decoupled_factor():
    theta = np.full((3,), 2.0)
    cfg = TrainConfig(learning_rate=0.3, weight_decay=1e-5)
    adamw_update({"w": theta}, {"w": np.zeros(3)}, OptimizerState(), cfg)
    assert np.allclose(theta, 2.0 * (1.0 - 0.3 * 1e-5), rtol=0, atol=1e-18)


def test_adamw_five_step_trace_matches_hand_reference():
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
    theta = np.array([1.0])
    state = OptimizerState()
    got = []
    for _ in range(5):
        adamw_update({"w": theta}, {"w": np.array([1.0])}, state, cfg)
        got.append(theta[0])

    # independent scalar reference stepped by the published update rule
    x, m, v = 1.0, 0.0, 0.0
    want = []
    for t in range(1, 6):
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        x = x - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        x = x - 0.1 * 0.01 * x
        want.append(x)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_adamw_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adamw_update(
            {"w": np.zeros((2, 2))}, {"w": np.zeros(4)}, OptimizerState(), TrainConfig()
        )


# ---------------------------------------------------------------- tasks

def test_labels_follow_rules():
    presence = SyntheticTask(rule="token-presence", vocab_size=9, seq_len=5, seed=1)
    assert label_of(presence, np.array([3, 0, 4, 1, 2])) == 1
    assert label_of(presence, np.array([3, 5, 4, 1, 2])) == 0
    parity = SyntheticTask(rule="prefix-parity", vocab_size=9, seq_len=4, seed=1)
    assert label_of(parity, np.array([3, 2, 8, 8])) == 1  # first half sums to 5
    assert label_of(parity, np.array([3, 3, 8, 8])) == 0
    majority = SyntheticTask(rule="majority-class", vocab_size=9, seq_len=5, n_classes=3, seed=1)
    assert label_of(majority, np.array([0, 3, 6, 1, 4])) == 0  # residues 0,0,0,1,1


def test_generated_labels_match_rule_for_every_task():
    for rule, classes in (("token-presence", 2), ("majority-class", 3), ("prefix-parity", 2)):
        task = SyntheticTask(rule=rule, vocab_size=11, seq_len=6, n_classes=classes, seed=7)
        data = generate_dataset(task, 40)
        assert data.ids.shape == (40, 6)
        assert np.all(data.ids >= 0) and np.all(data.ids < 11)
        for row, lab in zip(data.ids, data.labels):
            assert label_of(task, row) == lab


def test_token_presence_is_balanced_and_splits_differ():
    task = SyntheticTask(rule="token-presence", vocab_size=16, seq_len=16, seed=2)
    train = generate_dataset(task, 100, split=0)
    held = generate_dataset(task, 100, split=1)
    assert int(train.labels.sum()) == 50
    assert int(held.labels.sum()) == 50
    assert not np.array_equal(train.ids, held.ids)
    again = generate_dataset(task, 100, split=0)
    assert np.array_equal(train.ids, again.ids)


def test_invalid_task_configs_rejected():
    with pytest.raises(ValueError, match="rule"):
        SyntheticTask(rule="sorted-or-not")
    with pytest.raises(ValueError, match="binary"):
        SyntheticTask(rule="token-presence", n_classes=3)


# ---------------------------------------------------------------- few-shot

def test_few_shot_whole_set_is_permutation():
    task = SyntheticTask(vocab_size=10, seq_len=4, seed=0)
    data = generate_dataset(task, 20)
    sub = few_shot_subsample(data, 20, seed=1)
    order = np.lexsort(data.ids.T)
    order_sub = np.lexsort(sub.ids.T)
    assert np.array_equal(data.ids[order], sub.ids[order_sub])
    assert not np.array_equal(data.ids, sub.ids)  # actually permuted


def test_few_shot_stratifies_four_plus_four():
    task = SyntheticTask(vocab_size=10, seq_len=6, seed=3)
    data = generate_dataset(task, 40)
    sub = few_shot_subsample(data, 8, seed=9)
    assert len(sub) == 8
    assert int(np.sum(sub.labels == 0)) == 4
    assert int(np.sum(sub.labels == 1)) == 4


def test_few_shot_deterministic_and_bounded():
    task = SyntheticTask(vocab_size=10, seq_len=6, seed=3)
    data = generate_dataset(task, 40)
    for k in (8, 16, 32):
        a = few_shot_subsample(data, k, seed=4)
        b = few_shot_subsample(data, k, seed=4)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.labels, b.labels)
    with pytest.raises(ValueError, match="outside"):
        few_shot_subsample(data, 41, seed=0)
    with pytest.raises(ValueError, match="outside"):
        few_shot_subsample(data, 0, seed=0)


# ---------------------------------------------------------------- steps

@pytest.mark.parametrize("method", ["lamp", "vanilla-pt"])
def test_train_step_lr_zero_leaves_factors_bit_identical(method):
    bb, trainable, pool, w_sa, batch = tiny_setup(method=method)
    arrays = [trainable] if method == "vanilla-pt" else [trainable.u, trainable.q, trainable.v]
    before = [a.copy() for a in arrays]
    cfg = TrainConfig(learning_rate=0.0, weight_decay=0.0, epochs=1)
    state = OptimizerState()
    lv, acc = train_step(trainable, pool, bb, batch, state, cfg)
    assert np.isfinite(lv) and 0.0 <= acc <= 1.0
    assert state.float_count() == 2 * sum(a.size for a in arrays)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_train_step_updates_all_groups_and_keeps_digest():
    bb, dp, pool, w_sa, batch = tiny_setup(pool_mode="self-attention", p=2)
    d0 = digest(bb)
    before = (dp.u.copy(), dp.q.copy(), dp.v.copy(), w_sa.w_sa.copy())
    train_step(dp, pool, bb, batch, OptimizerState(), TrainConfig(seed=0), "balanced", w_sa)
    assert digest(bb) == d0
    assert not np.array_equal(dp.u, before[0])
    assert not np.array_equal(dp.q, before[1])
    assert not np.array_equal(dp.v, before[2])
    assert not np.array_equal(w_sa.w_sa, before[3])


@pytest.mark.parametrize("method, group", [("lamp", "u"), ("vanilla-pt", "prompt")])
def test_non_finite_gradient_stops_before_the_update(method, group, monkeypatch):
    bb = tiny_backbone()
    task = SyntheticTask(rule="token-presence", vocab_size=12, seq_len=6, seed=5)
    cfg = TrainConfig(batch_size=4, epochs=2, seed=1)
    start = []

    def init_prompt_copy(*args, **kwargs):
        trainable, w_sa, n = init_prompt(*args, **kwargs)
        arrays = [trainable] if method == "vanilla-pt" else [trainable.u, trainable.q, trainable.v]
        start.append((arrays, [a.copy() for a in arrays]))
        return trainable, w_sa, n

    def nan_loss(logits, labels):
        return eg.scale(loss(logits, labels), float("nan"))

    monkeypatch.setattr(trainer, "init_prompt", init_prompt_copy)
    monkeypatch.setattr(trainer, "loss", nan_loss)
    with pytest.raises(ValueError, match=rf"epoch 1, step 1: non-finite gradient.*'{group}'"):
        train_loop(task, method, cfg, pr.PoolConfig(mode="none", p=1), bb,
                   l=8, r=3, top_k=12, n_train=8, n_heldout=4)
    (arrays, before), = start
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_single_step_matches_composed_oracle():
    """Step result == finite-difference gradients pushed through an
    independently written AdamW, coordinate by coordinate."""
    bb, dp, pool, _, batch = tiny_setup()
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01)

    def loss_value(u, q, v):
        probe = pr.DecomposedPrompt(u=u, q=q, v=v)
        lv = pr.leaves(probe, trainable=False)
        pooled = pr.apply_pool(pr.reconstruct(lv, "verbatim"), pool, None)
        e_stack, lengths = embed(bb, batch.ids)
        return float(loss(forward_batch(bb, pooled, e_stack, lengths), batch.labels).value[0, 0])

    # central differences over every coordinate of the tiny triple
    eps = 1e-5
    fd = {}
    for name in ("u", "q", "v"):
        theta = getattr(dp, name)
        g = np.zeros_like(theta)
        flat, gflat = theta.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss_value(dp.u, dp.q, dp.v)
            flat[i] = keep - eps
            lo = loss_value(dp.u, dp.q, dp.v)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * eps)
        fd[name] = g

    expected = {}
    for name in ("u", "q", "v"):
        theta = getattr(dp, name).copy()
        g = fd[name]
        m = 0.1 * g
        v2 = 0.001 * g * g
        mhat = m / (1 - 0.9)
        vhat = v2 / (1 - 0.999)
        theta = theta - cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)
        expected[name] = theta - cfg.learning_rate * cfg.weight_decay * theta

    train_step(dp, pool, bb, batch, OptimizerState(), cfg)
    # FD noise enters through the sqrt normalizer; 1e-6 absolute on
    # parameters stepped by lr=0.05 is ~20 ppm of the step size
    assert np.allclose(dp.u, expected["u"], rtol=0, atol=1e-6)
    assert np.allclose(dp.q.reshape(-1), expected["q"].reshape(-1), rtol=0, atol=1e-6)
    assert np.allclose(dp.v, expected["v"], rtol=0, atol=1e-6)


# ---------------------------------------------------------------- loop

def loop_config(**kw):
    base = dict(learning_rate=0.1, weight_decay=1e-5, batch_size=4, epochs=2, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def test_train_loop_epoch_zero_logs_only_initial_eval():
    bb, _, pool, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    res = train_loop(task, "lamp", loop_config(epochs=0), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    assert [rec["epoch"] for rec in res.records] == [0, 0]
    assert [rec["split"] for rec in res.records] == ["train", "heldout"]


def test_train_loop_logs_lamp_param_count_and_moment_floats():
    bb, _, pool, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    res = train_loop(task, "lamp", loop_config(), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    want = pr.lamp_param_count(8, 16, 3)
    assert res.trainable_params == want
    assert all(rec["trainable_params"] == want for rec in res.records)
    assert res.optimizer_floats == 2 * want
    assert res.digest_before == res.digest_after


def test_train_loop_pt_param_count():
    bb, _, pool, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    res = train_loop(task, "vanilla-pt", loop_config(), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    assert res.trainable_params == 8 * 16
    assert res.optimizer_floats == 2 * 8 * 16


def test_train_loop_bit_reproducible():
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    outs = []
    for _ in range(2):
        bb, _, pool, _, _ = tiny_setup()
        res = train_loop(task, "lamp", loop_config(epochs=3), pool, bb,
                         l=8, r=3, top_k=12, n_train=12, n_heldout=12)
        outs.append([rec["loss"] for rec in res.records])
    assert outs[0] == outs[1]


def test_train_loop_self_attention_counts_w_sa():
    bb, _, _, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    pool = pr.PoolConfig(mode="self-attention", p=2)
    res = train_loop(task, "lamp", loop_config(), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    want = pr.lamp_param_count(8, 16, 3) + 16 * 4
    assert res.trainable_params == want
    assert res.optimizer_floats == 2 * want


def test_train_loop_records_follow_field_order():
    bb, _, pool, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    res = train_loop(task, "lamp", loop_config(epochs=1), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    for rec in res.records:
        assert list(rec.keys()) == ["epoch", "split", "loss", "accuracy", "trainable_params", "wall_ms"]
        assert rec["wall_ms"] == 0.0


def test_train_loop_rejects_mismatched_vocab_and_method():
    bb, _, pool, _, _ = tiny_setup()
    bad_task = SyntheticTask(vocab_size=13, seq_len=6, seed=5)
    with pytest.raises(ValueError, match="vocabulary"):
        train_loop(bad_task, "lamp", loop_config(), pool, bb, l=8, r=3, top_k=12)
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    with pytest.raises(ValueError, match="method"):
        train_loop(task, "prefix-tuning", loop_config(), pool, bb, l=8, r=3, top_k=12)
    # ids from outside generate_dataset are checked too: -1 would
    # silently read the last embedding row
    good = generate_dataset(task, 4)
    for bad_id in (-1, 12):
        ids = good.ids.copy()
        ids[1, 2] = bad_id
        bad = Dataset(ids=ids, labels=good.labels)
        with pytest.raises(ValueError, match="vocabulary of 12"):
            train_loop(task, "lamp", loop_config(), pool, bb, l=8, r=3, top_k=12, data=(bad, good))


def test_checkpoint_prompt_roundtrips_for_both_methods():
    bb, _, pool, _, _ = tiny_setup()
    task = SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    lamp = train_loop(task, "lamp", loop_config(epochs=1), pool, bb,
                      l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    assert lamp.checkpoint_prompt() is lamp.dp
    assert lamp.checkpoint_mode() == "verbatim"
    ptr = train_loop(task, "vanilla-pt", loop_config(epochs=1), pool, bb,
                     l=8, r=3, top_k=12, n_train=12, n_heldout=12)
    dp2 = ptr.checkpoint_prompt()
    assert ptr.checkpoint_mode() == "balanced"
    rebuilt = pr.reconstruct(dp2, mode="balanced").value
    scale = np.linalg.norm(ptr.pt_matrix)
    assert np.linalg.norm(rebuilt - ptr.pt_matrix) <= 1e-10 * max(scale, 1e-30)


# ---------------------------------------------------------------- gradcheck

GRADCHECK_CASES = [
    pytest.param("lamp", mode, pool_mode, id=f"{mode}-{pool_mode}")
    for mode in ("verbatim", "balanced")
    for pool_mode in ("average", "self-attention")
] + [pytest.param("vanilla-pt", "verbatim", "none", id="vanilla-pt")]


@pytest.mark.parametrize("method, mode, pool_mode", GRADCHECK_CASES)
def test_gradcheck_passes_all_combinations(method, mode, pool_mode):
    bb, trainable, pool, w_sa, batch = tiny_setup(pool_mode, p=2, seed=8, method=method)
    report = gradcheck(trainable, pool, bb, batch, mode, w_sa=w_sa, n_coords=40, seed=8)
    if method == "vanilla-pt":
        groups = {"prompt"}
    else:
        groups = {"u", "q", "v"} | ({"w_sa"} if pool_mode == "self-attention" else set())
    assert set(report) == groups
    for name, err in report.items():
        assert err <= 1e-4, f"{name} gradient off by {err}"

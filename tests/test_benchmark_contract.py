"""What perfbench relies on: the names it wraps, the ops it traces, the
prompt it scores with and the digest it checks.

perfbench times training from the first ``trainer.adamw_update`` call,
opens its step spans on ``trainer.train_step`` and sorts
``trainer.forward_batch`` calls into training and evaluation, all by
patching those module attributes.  A step that stops calling them
through ``trainer``'s globals would silently zero its metrics.  Its
scoring pass hands ``backbone.forward_batch`` a plain array prompt, and
every round fails if the backbone digest differs from the one taken at
build time.
"""

from pathlib import Path

import numpy as np
import pytest

import lamptune.prompt as pr
from lamptune import engine, trainer
from lamptune.backbone import BackboneConfig, build_backbone, digest, embed, forward_batch
from lamptune.engine import Node

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("method", trainer.METHODS)
def test_every_step_goes_through_the_patched_names(method, monkeypatch):
    counts = {"adamw_update": 0, "train_step": 0, "forward_batch": 0}

    def counting(name):
        fn = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            # forward_batch also evaluates; a step's prompt needs gradient
            if name != "forward_batch" or (isinstance(args[1], Node) and args[1].requires_grad):
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(trainer, name, counting(name))
    bb = build_backbone(BackboneConfig(vocab_size=12, d=16, n_layers=1, n_heads=2, ffn_width=32,
                                       m=6, n_classes=2, seed=3))
    task = trainer.SyntheticTask(vocab_size=12, seq_len=6, seed=5)
    cfg = trainer.TrainConfig(batch_size=4, epochs=1, seed=1)
    trainer.train_loop(task, method, cfg, pr.PoolConfig(mode="none", p=1), bb,
                       l=8, r=3, top_k=12, n_train=10, n_heldout=4)
    steps = 3  # 10 examples in batches of 4
    assert counts == {"adamw_update": steps, "train_step": steps, "forward_batch": steps}


def test_traced_ops_are_engine_exports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import ENGINE_OPS

    missing = [op for op in ENGINE_OPS if op not in engine.__all__]
    assert not missing, f"perfbench traces ops that engine no longer exports: {missing}"


def test_scoring_takes_a_plain_array_prompt(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import NullTracer
    from workloads import WORKLOADS, RoundResult, _score

    wl = WORKLOADS["tiny-overhead"]
    bb = build_backbone(BackboneConfig(**wl.backbone))
    task = trainer.SyntheticTask(vocab_size=12, seq_len=wl.seq_len, seed=5)
    prompt = np.random.default_rng(0).standard_normal((4, 16))
    res = RoundResult()
    _score(wl, bb, task, prompt, res, NullTracer())
    assert not res.failures and res.attempted == wl.n_score // wl.score_chunk

    e, lengths = embed(bb, trainer.generate_dataset(task, 8, split=2).ids)
    plain = forward_batch(bb, prompt, e, lengths).value
    assert np.array_equal(plain, forward_batch(bb, engine.constant(prompt), e, lengths).value)


# digests of the weights perfbench builds; the fused [wq | wk | wv]
# projections are derived from the weights and must stay out of both
@pytest.mark.parametrize("workload, want", [
    ("tiny-overhead", "b7fecc33c16788e28497e17f14f2e08be31b45cbd450575bc48e09512d462ab3"),
    ("desk-fullbatch", "7d282672997a9a9bc2647b3c6ab8888bb1fbe904b13c7d1e5778748aa4032814"),
])
def test_weights_and_digest_stay_fixed(workload, want, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    cfg = BackboneConfig(**WORKLOADS[workload].backbone)
    bb = build_backbone(cfg)
    names = {"embedding", "head", "lnf_g", "lnf_b"}
    for i in range(cfg.n_layers):
        names |= {f"layer{i}.{w}" for w in ("wq", "wk", "wv", "wo", "w1", "w2",
                                            "ln1_g", "ln1_b", "ln2_g", "ln2_b")}
    assert set(bb.weights) == names
    assert digest(bb) == want

"""What perfbench relies on: the names it wraps and the ops it traces.

perfbench times training from the first ``trainer.adamw_update`` call,
opens its step spans on ``trainer.train_step`` and sorts
``trainer.forward_batch`` calls into training and evaluation, all by
patching those module attributes.  A step that stops calling them
through ``trainer``'s globals would silently zero its metrics.
"""

from pathlib import Path

import pytest

import lamptune.prompt as pr
from lamptune import engine, trainer
from lamptune.backbone import BackboneConfig, build_backbone
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

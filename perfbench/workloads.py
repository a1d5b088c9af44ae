"""The three benchmark workloads.

A workload is run as a sequence of identical rounds.  One round builds
the frozen backbone, runs the workload's training runs through
``trainer.train_loop``, checks every result, scores a split that
training never saw with the trained LAMP prompt, and finite-difference
checks the gradient with ``trainer.gradcheck``.  Every round of one run
does the same arithmetic on the same inputs, so every round must give
the same determinism fingerprint.

The package is driven only through its public API.  The one hook is a
wrapper on ``trainer.adamw_update`` that notes when a ``train_loop`` call
makes its first optimizer update; everything before it is set-up.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lamptune import analysis, backbone, trainer
from lamptune import prompt as pr

GRAD_BAR = 1e-4  # the acceptance bar of the gradient checks

__all__ = ["WORKLOADS", "Workload", "RoundResult", "run_round", "patched"]


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore
    the originals.  ``replacements`` is a list of (module, name, value)."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


class FirstUpdate:
    """Remembers when ``adamw_update`` was first called since ``arm``."""

    def __init__(self) -> None:
        self.t: float | None = None

    def arm(self) -> None:
        self.t = None

    def wrap(self, fn):
        def adamw_update(*args, **kwargs):
            if self.t is None:
                self.t = time.perf_counter()
            return fn(*args, **kwargs)

        return adamw_update


@dataclass(frozen=True)
class TrainRun:
    method: str
    mode: str
    pool: pr.PoolConfig
    learning_rate: float


@dataclass(frozen=True)
class GradCheck:
    """The gradient-check phase.  ``fresh`` builds criterion 5's own
    backbone and prompt; otherwise the trained LAMP prompt is checked on
    a held-out batch of the workload's own backbone."""

    batch: int
    n_coords: int
    fresh: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    backbone: dict  # BackboneConfig fields
    seq_len: int
    gate_seeds: dict  # seeds that reproduce the acceptance gate
    runs: tuple[TrainRun, ...]
    epochs: int
    batch_size: int
    l: int
    r: int
    top_k: int
    n_train: int
    n_heldout: int
    n_score: int
    score_chunk: int
    gradcheck: GradCheck

    def seeds(self, seed: int | None) -> dict:
        """Named seed streams: the gate's own seeds by default, otherwise
        the workload seed for every stream."""
        if seed is None:
            return dict(self.gate_seeds)
        return {k: seed for k in self.gate_seeds}


NO_POOL = pr.PoolConfig(mode="none", p=1)

# criterion 5's backbone for the fresh gradient checks of tiny-overhead
GRAD_BACKBONE = dict(vocab_size=24, d=32, n_layers=2, n_heads=4, ffn_width=64, m=16,
                     n_classes=2, seed=11)

WORKLOADS = {
    w.name: w
    for w in (
        # criterion 9's desk config, fewer epochs
        Workload(
            name="desk-fullbatch",
            backbone=dict(vocab_size=16, d=64, n_layers=2, n_heads=2, ffn_width=256, m=16,
                          n_classes=2, seed=0),
            seq_len=16,
            gate_seeds={"task": 1, "train": 1},
            runs=(
                TrainRun("vanilla-pt", "verbatim", NO_POOL, 0.3),
                TrainRun("lamp", "verbatim", NO_POOL, 0.3),
            ),
            epochs=3,
            batch_size=200,
            l=100, r=8, top_k=5000,
            n_train=200, n_heldout=200,
            n_score=400, score_chunk=200,
            gradcheck=GradCheck(batch=8, n_coords=32),
        ),
        # criterion 8's bench config, trained with self-attention pooling
        Workload(
            name="wide-minibatch",
            backbone=dict(vocab_size=64, d=256, n_layers=4, n_heads=4, ffn_width=1024, m=64,
                          n_classes=2, seed=0),
            seq_len=64,
            gate_seeds={"task": 0, "train": 0},
            runs=(TrainRun("lamp", "verbatim", pr.PoolConfig(mode="self-attention", p=4), 0.3),),
            epochs=2,
            batch_size=16,
            l=100, r=8, top_k=64,
            n_train=128, n_heldout=64,
            n_score=128, score_chunk=16,
            gradcheck=GradCheck(batch=2, n_coords=6),
        ),
        # criterion 6's four tiny runs, then criterion 5's gradient checks
        Workload(
            name="tiny-overhead",
            backbone=dict(vocab_size=12, d=16, n_layers=1, n_heads=2, ffn_width=32, m=6,
                          n_classes=2, seed=3),
            seq_len=6,
            gate_seeds={"task": 5, "train": 0, "grad_task": 4, "grad_prompt": 2,
                        "grad_pool": 9, "grad_coords": 0},
            runs=(
                TrainRun("lamp", "verbatim", pr.PoolConfig(mode="average", p=2), 0.3),
                TrainRun("lamp", "verbatim", pr.PoolConfig(mode="self-attention", p=2), 0.3),
                TrainRun("lamp", "balanced", pr.PoolConfig(mode="average", p=2), 1e-4),
                TrainRun("vanilla-pt", "verbatim", NO_POOL, 0.3),
            ),
            epochs=300,
            batch_size=4,
            l=8, r=3, top_k=12,
            n_train=16, n_heldout=64,
            n_score=512, score_chunk=16,
            gradcheck=GradCheck(batch=8, n_coords=200, fresh=True),
        ),
    )
}


@dataclass
class RoundResult:
    wall_s: float = 0.0
    setup_s: float = 0.0
    train_s: float = 0.0
    train_examples: int = 0
    score_s: float = 0.0
    score_examples: int = 0
    gradcheck_s: float = 0.0
    probes: int = 0
    final_train_losses: list = field(default_factory=list)
    heldout_losses: list = field(default_factory=list)
    heldout_accuracies: list = field(default_factory=list)
    score_accuracy: float = float("nan")
    costs: list = field(default_factory=list)  # CostReport per training run
    grad_errors: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprint: str = ""


def _cost(wl: Workload, run: TrainRun) -> analysis.CostReport:
    return analysis.cost_report(
        wl.l, wl.backbone["d"], wl.r, p=run.pool.p if run.pool.mode != "none" else 1,
        m=wl.backbone["m"], method=run.method, sa_pool=run.pool.mode == "self-attention",
    )


def _check_train_run(res: trainer.TrainResult, cost: analysis.CostReport, bb_digest: str,
                     ck_path: Path, h) -> tuple[list[str], tuple]:
    """The output checks of one training run.  Returns what failed and
    the prompt loaded back from the checkpoint; feeds the records
    (wall_ms excluded) and the checkpoint bytes to ``h``."""
    bad = []
    if not res.digest_before == res.digest_after == bb_digest:
        bad.append("backbone digest changed")
    if not all(np.isfinite(rec["loss"]) for rec in res.records):
        bad.append("non-finite loss logged")
    if res.trainable_params != cost.trainable_params:
        bad.append(f"trainable_params {res.trainable_params} != cost_report {cost.trainable_params}")

    dp, mode = res.checkpoint_prompt(), res.checkpoint_mode()
    pr.save_checkpoint(ck_path, dp, mode, res.pool)
    blob = ck_path.read_bytes()
    dp2, mode2, pool2 = pr.load_checkpoint(ck_path)
    want = pr.reconstruct(pr.leaves(dp, trainable=False), mode).value
    got = pr.reconstruct(pr.leaves(dp2, trainable=False), mode2).value
    if mode2 != mode or pool2 != res.pool or not np.array_equal(want, got):
        bad.append("checkpoint round-trip changed the prompt")
    if res.pt_matrix is not None and not np.allclose(got, res.pt_matrix, rtol=0.0, atol=1e-9):
        bad.append("vanilla-pt checkpoint does not rebuild the trained matrix")

    records = [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in res.records]
    h.update(json.dumps(records, sort_keys=True).encode())
    h.update(blob)
    return bad, (dp2, mode2, pool2)


def _embed(bb: backbone.FrozenBackbone, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Input stack from the embedding table, zero-padded to length m."""
    n, seq = ids.shape
    e = np.zeros((n, bb.config.m, bb.config.d))
    e[:, :seq, :] = bb.embedding[ids]
    return e, np.full(n, seq, dtype=np.int64)


def _trained_prompt(dp: pr.DecomposedPrompt, mode: str, pool: pr.PoolConfig, w_sa) -> np.ndarray:
    w = w_sa.w_sa if w_sa is not None else None
    return pr.apply_pool(pr.reconstruct(pr.leaves(dp, trainable=False), mode), pool, w).value


def _score(wl: Workload, bb, task, prompt_value: np.ndarray, res: RoundResult, tracer) -> None:
    """Forward-only scoring of split 2 in fixed chunks."""
    t0 = time.perf_counter()
    with tracer.span("bench.score"):
        data = trainer.generate_dataset(task, wl.n_score, split=2)
        correct = 0
        for start in range(0, wl.n_score, wl.score_chunk):
            res.attempted += 1
            ids = data.ids[start:start + wl.score_chunk]
            try:
                e, lengths = _embed(bb, ids)
                logits = backbone.forward_batch(bb, prompt_value, e, lengths).value
            except Exception:
                res.failures.append(f"scoring chunk at {start} raised:\n{traceback.format_exc()}")
                continue
            if logits.shape != (ids.shape[0], bb.config.n_classes) or not np.all(np.isfinite(logits)):
                res.failures.append(f"scoring chunk at {start} gave bad logits")
                continue
            labels = data.labels[start:start + wl.score_chunk]
            correct += int(np.sum(np.argmax(logits, axis=1) == labels))
    res.score_s = time.perf_counter() - t0
    res.score_examples = wl.n_score
    res.score_accuracy = correct / wl.n_score


def _gradcheck_cases(wl: Workload, seeds: dict, bb, task, run: TrainRun, tres):
    """(label, dp, pool, bb, batch, mode, w_sa, coord seed) per check."""
    gc = wl.gradcheck
    if not gc.fresh:
        batch = trainer.generate_dataset(task, gc.batch, split=3)
        return [("trained", tres.dp, run.pool, bb, batch, run.mode, tres.w_sa, seeds["train"])]
    gbb = backbone.build_backbone(backbone.BackboneConfig(**GRAD_BACKBONE))
    gtask = trainer.SyntheticTask(rule="token-presence", vocab_size=GRAD_BACKBONE["vocab_size"],
                                  seq_len=10, n_classes=2, seed=seeds["grad_task"])
    batch = trainer.generate_dataset(gtask, gc.batch)
    sp = pr.init_source_prompt(pr.make_vocab(gbb.embedding), l=20,
                               top_k=GRAD_BACKBONE["vocab_size"], seed=seeds["grad_prompt"])
    dp = pr.decompose(sp, 4)
    cases = []
    for pool_mode in ("average", "self-attention"):
        pool = pr.PoolConfig(mode=pool_mode, p=4)
        for mode in ("verbatim", "balanced"):
            w_sa = None
            if pool_mode == "self-attention":
                w_sa = pr.init_self_attn_pool(GRAD_BACKBONE["d"], 20, 4, seed=seeds["grad_pool"])
            cases.append((f"{pool_mode}/{mode}", dp, pool, gbb, batch, mode, w_sa,
                          seeds["grad_coords"]))
    return cases


def run_round(wl: Workload, seed: int | None, hook: FirstUpdate, out_dir: Path, tracer) -> RoundResult:
    """One full pass of the workload; never raises for a failed operation,
    it records the failure instead."""
    seeds = wl.seeds(seed)
    res = RoundResult()
    h = hashlib.sha256()
    t_round = time.perf_counter()

    t0 = time.perf_counter()
    bb = backbone.build_backbone(backbone.BackboneConfig(**wl.backbone))
    res.setup_s += time.perf_counter() - t0
    bb_digest = backbone.digest(bb)
    task = trainer.SyntheticTask(rule="token-presence", vocab_size=wl.backbone["vocab_size"],
                                 seq_len=wl.seq_len, n_classes=2, seed=seeds["task"])
    ck_path = out_dir / f"{wl.name}.check.lamp"

    lamp = None
    for i, run in enumerate(wl.runs):
        label = f"{run.method}/{run.mode}/{run.pool.mode}"
        res.attempted += 1
        cfg = trainer.TrainConfig(learning_rate=run.learning_rate, batch_size=wl.batch_size,
                                  epochs=wl.epochs, seed=seeds["train"])
        hook.arm()
        t0 = time.perf_counter()
        try:
            tres = trainer.train_loop(task, run.method, cfg, run.pool, bb, l=wl.l, r=wl.r,
                                      top_k=wl.top_k, mode=run.mode, n_train=wl.n_train,
                                      n_heldout=wl.n_heldout)
        except Exception:
            res.failures.append(f"training run {i} ({label}) raised:\n{traceback.format_exc()}")
            continue
        t1 = time.perf_counter()
        first = hook.t if hook.t is not None else t1
        res.setup_s += first - t0
        res.train_s += t1 - first
        res.train_examples += wl.epochs * wl.n_train - min(wl.batch_size, wl.n_train)

        cost = _cost(wl, run)
        bad, loaded = _check_train_run(tres, cost, bb_digest, ck_path, h)
        if bad:
            res.failures.append(f"training run {i} ({label}): {'; '.join(bad)}")
            continue
        res.final_train_losses.append(tres.final_train_loss)
        res.heldout_losses.append(tres.records[-1]["loss"])
        res.heldout_accuracies.append(tres.final_heldout_accuracy)
        res.costs.append(cost)
        if lamp is None and run.method == "lamp":
            lamp = (run, tres, loaded)
    ck_path.unlink(missing_ok=True)

    n_chunks = -(-wl.n_score // wl.score_chunk)
    if lamp is None:
        res.attempted += n_chunks + 1
        res.failures.append("no LAMP run finished, so nothing was scored or gradient-checked")
    else:
        run, tres, (dp, mode, pool) = lamp
        # score with the prompt as the checkpoint stores it; W_sa is not
        # part of the checkpoint
        _score(wl, bb, task, _trained_prompt(dp, mode, pool, tres.w_sa), res, tracer)

        t0 = time.perf_counter()
        cases = _gradcheck_cases(wl, seeds, bb, task, run, tres)
        res.setup_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        for label, dp, pool, gbb, batch, mode, w_sa, cseed in cases:
            sizes = {"u": dp.u.size, "q": dp.q.size, "v": dp.v.size}
            if w_sa is not None:
                sizes["w_sa"] = w_sa.w_sa.size
            try:
                rep = trainer.gradcheck(dp, pool, gbb, batch, mode=mode, w_sa=w_sa,
                                        n_coords=wl.gradcheck.n_coords, seed=cseed)
            except Exception:
                res.attempted += len(sizes)
                res.failures.append(f"gradcheck {label} raised:\n{traceback.format_exc()}")
                continue
            for group, err in rep.items():
                res.attempted += 1
                res.probes += 2 * min(wl.gradcheck.n_coords, sizes[group])
                res.grad_errors[f"{label}/{group}"] = float(err)
                if not err <= GRAD_BAR:
                    res.failures.append(f"gradcheck {label}/{group}: error {err:.3e} > {GRAD_BAR:g}")
        res.gradcheck_s = time.perf_counter() - t0

    res.wall_s = time.perf_counter() - t_round
    res.fingerprint = h.hexdigest()
    return res

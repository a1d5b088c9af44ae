"""Prompt-only optimization against the frozen backbone.

AdamW with decoupled weight decay updates the factor triple (or, for
the vanilla baseline, the raw prompt matrix) while the backbone digest
stays fixed.  Two functions are the only code that tells the methods
apart: ``init_prompt`` builds a run's starting trainable state and
``prompt_graph`` turns that state into the prompt node plus its
parameter groups.  The training step, the per-epoch evaluation,
``gradcheck`` and the bench all go through them, so each exists once
for both methods.  Synthetic classification tasks stand in for real
benchmarks: each labeling rule is a deterministic function of the token
ids, chosen so that a prompt steering frozen random features can
actually solve it.  The loop keeps batch shuffling, task generation,
and initialization on separate named seed streams so trajectories are
bit-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine as eg
from . import prompt as pr
from .artifacts import write_atomic
from .backbone import FrozenBackbone, digest, embed, forward_batch

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "SyntheticTask",
    "Dataset",
    "TrainResult",
    "TASK_RULES",
    "METHODS",
    "loss",
    "adamw_update",
    "generate_dataset",
    "few_shot_subsample",
    "init_prompt",
    "prompt_graph",
    "train_step",
    "train_loop",
    "gradcheck",
    "write_metrics",
]

TASK_RULES = ("token-presence", "majority-class", "prefix-parity")
METHODS = ("lamp", "vanilla-pt")
PRESENCE_TOKEN = 0  # the id whose presence defines the token-presence label


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.3
    weight_decay: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # 0 is allowed: a zero-rate step is the documented way to probe
        # the loss of a frozen configuration through the same code path
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for b in (self.adam_beta1, self.adam_beta2):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"adam betas must lie in [0, 1), got {b}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


class OptimizerState:
    """First/second moments per parameter plus one shared step counter."""

    def __init__(self) -> None:
        self.step = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def float_count(self) -> int:
        return sum(m.size + v.size for m, v in self.moments.values())


@dataclass(frozen=True)
class SyntheticTask:
    rule: str = "token-presence"
    vocab_size: int = 64
    seq_len: int = 8
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.rule not in TASK_RULES:
            raise ValueError(f"unknown task rule {self.rule!r}, expected one of {TASK_RULES}")
        if self.vocab_size < 2 or self.seq_len < 1 or self.n_classes < 2:
            raise ValueError("task needs vocab_size >= 2, seq_len >= 1, n_classes >= 2")
        if self.rule in ("token-presence", "prefix-parity") and self.n_classes != 2:
            raise ValueError(f"rule {self.rule!r} is binary, got n_classes={self.n_classes}")


@dataclass
class Dataset:
    ids: np.ndarray  # (n, seq_len) int token ids
    labels: np.ndarray  # (n,) int class labels

    def __len__(self) -> int:
        return self.ids.shape[0]


def label_of(task: SyntheticTask, ids: np.ndarray) -> int:
    """The deterministic label of one id sequence under the task rule."""
    if task.rule == "token-presence":
        return int(np.any(ids == PRESENCE_TOKEN))
    if task.rule == "majority-class":
        counts = np.bincount(ids % task.n_classes, minlength=task.n_classes)
        return int(np.argmax(counts))  # ties resolve to the lowest class
    half = (task.seq_len + 1) // 2
    return int(np.sum(ids[:half]) % 2)


def generate_dataset(task: SyntheticTask, n: int, split: int = 0) -> Dataset:
    """n labeled sequences; ``split`` selects an independent stream so
    train and held-out draws never overlap."""
    rng = np.random.default_rng([task.seed, split, 0x7A5])
    if task.rule == "token-presence":
        # balanced by construction: sample presence-free sequences, then
        # plant the marker token in half of them.  Plant count varies per
        # example (1 .. seq_len/2 occurrences) so the positive class spans
        # easy and hard instances; the label is still recomputed from the
        # rule itself below.
        ids = rng.integers(1, task.vocab_size, size=(n, task.seq_len))
        plant_max = max(1, task.seq_len // 2)
        counts = rng.integers(1, plant_max + 1, size=n)
        for i in range(n // 2):
            slots = rng.choice(task.seq_len, size=counts[i], replace=False)
            ids[i, slots] = PRESENCE_TOKEN
        ids = ids[rng.permutation(n)]
        labels = np.array([label_of(task, row) for row in ids], dtype=np.int64)
    elif task.rule == "majority-class":
        ids = rng.integers(0, task.vocab_size, size=(n, task.seq_len))
        # tilt each sequence toward a chosen class so majorities are clear
        target = rng.integers(0, task.n_classes, size=n)
        n_tilt = task.seq_len // 2 + 1
        for i in range(n):
            slots = rng.choice(task.seq_len, size=n_tilt, replace=False)
            vals = rng.integers(0, task.vocab_size, size=n_tilt)
            ids[i, slots] = vals - (vals % task.n_classes) + target[i]
        ids = np.minimum(ids, task.vocab_size - 1)
        labels = np.array([label_of(task, row) for row in ids], dtype=np.int64)
    else:  # prefix-parity
        ids = rng.integers(0, task.vocab_size, size=(n, task.seq_len))
        labels = np.array([label_of(task, row) for row in ids], dtype=np.int64)
    return Dataset(ids=ids, labels=labels)


def few_shot_subsample(data: Dataset, k: int, seed: int) -> Dataset:
    """k examples stratified over labels as evenly as class counts allow."""
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"subsample size k={k} outside [1, {n}]")
    rng = np.random.default_rng([seed, 0x5AB])
    classes = np.unique(data.labels)
    pools = {c: rng.permutation(np.nonzero(data.labels == c)[0]) for c in classes}
    quota = {int(c): 0 for c in classes}
    remaining = k
    while remaining > 0:
        progressed = False
        for c in sorted(quota):
            if remaining == 0:
                break
            if quota[c] < len(pools[c]):
                quota[c] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # unreachable when k <= n, kept as a guard
            raise RuntimeError("could not fill subsample quota")
    chosen = np.concatenate([pools[c][: quota[int(c)]] for c in classes])
    chosen = chosen[rng.permutation(chosen.shape[0])]
    return Dataset(ids=data.ids[chosen].copy(), labels=data.labels[chosen].copy())


def loss(logits: eg.Node, labels) -> eg.Node:
    """Softmax cross-entropy, mean over the batch."""
    return eg.cross_entropy(logits, labels)


def adamw_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
) -> None:
    """One decoupled-decay step, in place on the parameter arrays."""
    state.step += 1
    t = state.step
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches parameter {name} {theta.shape}")
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(theta), np.zeros_like(theta))
        m, v = state.moments[name]
        m *= cfg.adam_beta1
        m += (1.0 - cfg.adam_beta1) * g
        v *= cfg.adam_beta2
        v += (1.0 - cfg.adam_beta2) * g * g
        mhat = m / (1.0 - cfg.adam_beta1**t)
        vhat = v / (1.0 - cfg.adam_beta2**t)
        theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_epsilon)
        theta -= cfg.learning_rate * cfg.weight_decay * theta


def init_prompt(
    method: str, pool: pr.PoolConfig, bb: FrozenBackbone, *, l: int, r: int, top_k: int, seed: int
) -> tuple[pr.DecomposedPrompt | np.ndarray, pr.SelfAttnPoolParams | None, int]:
    """The starting trainable state of a run and its parameter count.

    The source prompt is sampled from the backbone's embedding table
    (``top_k`` clamped to its size).  ``lamp`` factors it into the triple
    and, under self-attention pooling, adds a fresh ``W_sa``;
    ``vanilla-pt`` trains a copy of the raw l x d matrix and never pools.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    vocab = pr.make_vocab(bb.embedding)
    sp = pr.init_source_prompt(vocab, l=l, top_k=min(top_k, bb.config.vocab_size), seed=seed)
    if method == "vanilla-pt":
        return sp.tokens.copy(), None, pr.vanilla_pt_param_count(l, bb.config.d)
    dp = pr.decompose(sp, r)
    n_params = pr.lamp_param_count(l, bb.config.d, r)
    w_sa = None
    if pool.mode == "self-attention":
        w_sa = pr.init_self_attn_pool(bb.config.d, l, pool.p, seed=seed)
        n_params += w_sa.w_sa.size
    return dp, w_sa, n_params


def prompt_graph(
    trainable: pr.DecomposedPrompt | np.ndarray,
    pool: pr.PoolConfig,
    mode: str = "verbatim",
    w_sa: pr.SelfAttnPoolParams | None = None,
    grad: bool = True,
) -> tuple[eg.Node, dict[str, tuple[np.ndarray, eg.Node]]]:
    """The prompt node fed to the backbone, and each trainable array
    paired with its graph leaf, by parameter-group name.

    ``trainable`` is the factor triple (LAMP: rebuilt in ``mode``, then
    pooled, with ``w_sa`` under self-attention pooling) or the raw l x d
    matrix (vanilla PT: the prompt itself, one group ``prompt``).  With
    ``grad`` off the leaves are frozen, for evaluation.
    """
    wrap = eg.parameter if grad else eg.constant
    if isinstance(trainable, np.ndarray):
        leaf = wrap(trainable)
        return leaf, {"prompt": (trainable, leaf)}
    lv = pr.leaves(trainable, trainable=grad)
    groups = {"u": (trainable.u, lv.u), "q": (trainable.q, lv.q), "v": (trainable.v, lv.v)}
    w_node = None
    if pool.mode == "self-attention":
        w_node = wrap(w_sa.w_sa)
        groups["w_sa"] = (w_sa.w_sa, w_node)
    return pr.apply_pool(pr.reconstruct(lv, mode), pool, w_node), groups


def train_step(
    trainable: pr.DecomposedPrompt | np.ndarray,
    pool: pr.PoolConfig,
    bb: FrozenBackbone,
    batch: Dataset,
    state: OptimizerState,
    cfg: TrainConfig,
    mode: str = "verbatim",
    w_sa: pr.SelfAttnPoolParams | None = None,
) -> tuple[float, float]:
    """One forward/backward/update of the trainable state (see
    :func:`prompt_graph`); returns the batch loss and accuracy.

    A non-finite gradient (named by its group) or loss raises ValueError
    before anything is updated.
    """
    if len(batch) == 0:
        raise ValueError("train_step needs a non-empty batch")
    e_stack, lengths = embed(bb, batch.ids)
    prompt, groups = prompt_graph(trainable, pool, mode, w_sa)
    logits = forward_batch(bb, prompt, e_stack, lengths)
    out = loss(logits, batch.labels)
    eg.backward(out)
    loss_v = float(out.value[0, 0])
    grads = {name: leaf.grad.reshape(theta.shape) for name, (theta, leaf) in groups.items()}
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in parameter group {name!r} (batch loss {loss_v})")
    if not np.isfinite(loss_v):
        raise ValueError(f"non-finite batch loss {loss_v}")
    adamw_update({name: theta for name, (theta, _) in groups.items()}, grads, state, cfg)
    acc = float(np.mean(np.argmax(logits.value, axis=1) == batch.labels))
    return loss_v, acc


def _evaluate(prompt: eg.Node, bb: FrozenBackbone, data: Dataset, chunk: int = 256):
    total, correct = 0.0, 0
    for start in range(0, len(data), chunk):
        part = Dataset(ids=data.ids[start : start + chunk], labels=data.labels[start : start + chunk])
        e_stack, lengths = embed(bb, part.ids)
        logits = forward_batch(bb, prompt, e_stack, lengths)
        total += float(loss(logits, part.labels).value[0, 0]) * len(part)
        correct += int(np.sum(np.argmax(logits.value, axis=1) == part.labels))
    return total / len(data), correct / len(data)


@dataclass
class TrainResult:
    records: list[dict]
    method: str
    mode: str
    pool: pr.PoolConfig
    trainable_params: int
    dp: pr.DecomposedPrompt | None
    pt_matrix: np.ndarray | None
    w_sa: pr.SelfAttnPoolParams | None
    digest_before: str
    digest_after: str
    optimizer_floats: int = 0
    final_train_loss: float = field(default=float("nan"))
    final_heldout_accuracy: float = field(default=float("nan"))

    def checkpoint_prompt(self) -> pr.DecomposedPrompt:
        """Factor triple to serialize: the trained triple for lamp, a
        full-rank factorization of the trained matrix for vanilla-pt."""
        if self.dp is not None:
            return self.dp
        sp = pr.SourcePrompt(tokens=self.pt_matrix)
        return pr.decompose(sp, min(sp.l, sp.d))

    def checkpoint_mode(self) -> str:
        # balanced U diag(Q) V^T reproduces the raw matrix exactly,
        # which is what a vanilla-pt checkpoint must round-trip to
        return self.mode if self.dp is not None else "balanced"


def _record(epoch, split, loss_v, acc, n_params, wall_ms):
    # field order is the on-disk contract; keep it exactly as listed
    return {
        "epoch": int(epoch),
        "split": split,
        "loss": float(loss_v),
        "accuracy": float(acc),
        "trainable_params": int(n_params),
        "wall_ms": float(wall_ms),
    }


def write_metrics(records: list[dict], path) -> None:
    """One JSON object per line, written atomically."""
    write_atomic(path, "".join(json.dumps(rec) + "\n" for rec in records))


def train_loop(
    task: SyntheticTask,
    method: str,
    cfg: TrainConfig,
    pool: pr.PoolConfig,
    bb: FrozenBackbone,
    *,
    l: int = 100,
    r: int = 8,
    top_k: int = 5000,
    mode: str = "verbatim",
    n_train: int = 200,
    n_heldout: int = 200,
    data: tuple[Dataset, Dataset] | None = None,
    record_wall_time: bool = False,
) -> TrainResult:
    """Full prompt-tuning run; returns per-epoch metrics for both splits.

    ``method`` is "lamp" (train the factor triple) or "vanilla-pt"
    (train the raw l x d prompt; pooling does not apply).  With
    ``record_wall_time`` off, wall_ms is logged as 0.0 so metrics files
    are byte-reproducible.
    """
    if mode not in pr.RECONSTRUCT_MODES:
        raise ValueError(f"unknown reconstruction mode {mode!r}")
    pool.validate_for_length(l)
    if task.vocab_size != bb.config.vocab_size:
        raise ValueError(
            f"task vocabulary {task.vocab_size} mismatches backbone {bb.config.vocab_size}"
        )
    if task.seq_len > bb.config.m:
        raise ValueError(f"task sequences ({task.seq_len}) exceed backbone length m={bb.config.m}")
    trainable, w_sa, n_params = init_prompt(method, pool, bb, l=l, r=r, top_k=top_k, seed=cfg.seed)

    d_before = digest(bb)
    train_data, held_data = data if data is not None else (
        generate_dataset(task, n_train, split=0),
        generate_dataset(task, n_heldout, split=1),
    )

    def eval_prompt() -> eg.Node:
        return prompt_graph(trainable, pool, mode, w_sa, grad=False)[0]

    state = OptimizerState()
    shuffle_rng = np.random.default_rng([cfg.seed, 0xC0FFEE])
    records: list[dict] = []
    prompt = eval_prompt()
    for split, part in (("train", train_data), ("heldout", held_data)):
        records.append(_record(0, split, *_evaluate(prompt, bb, part), n_params, 0.0))
    final_train_loss = records[0]["loss"]
    final_held_acc = records[1]["accuracy"]

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_data))
        ep_loss, ep_acc, n_batches = 0.0, 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            batch = Dataset(ids=train_data.ids[sel], labels=train_data.labels[sel])
            try:
                b_loss, b_acc = train_step(trainable, pool, bb, batch, state, cfg, mode, w_sa)
            except ValueError as exc:
                raise ValueError(f"epoch {epoch}, step {state.step + 1}: {exc}") from exc
            ep_loss += b_loss
            ep_acc += b_acc
            n_batches += 1
        he_loss, he_acc = _evaluate(eval_prompt(), bb, held_data)
        wall = (time.perf_counter() - t0) * 1000.0 if record_wall_time else 0.0
        final_train_loss = ep_loss / n_batches
        final_held_acc = he_acc
        records.append(_record(epoch, "train", final_train_loss, ep_acc / n_batches, n_params, wall))
        records.append(_record(epoch, "heldout", he_loss, he_acc, n_params, wall))

    d_after = digest(bb)
    return TrainResult(
        records=records,
        method=method,
        mode=mode,
        pool=pool,
        trainable_params=n_params,
        dp=trainable if method == "lamp" else None,
        pt_matrix=trainable if method == "vanilla-pt" else None,
        w_sa=w_sa,
        digest_before=d_before,
        digest_after=d_after,
        optimizer_floats=state.float_count(),
        final_train_loss=final_train_loss,
        final_heldout_accuracy=final_held_acc,
    )


def gradcheck(
    trainable: pr.DecomposedPrompt | np.ndarray,
    pool: pr.PoolConfig,
    bb: FrozenBackbone,
    batch: Dataset,
    mode: str = "verbatim",
    w_sa: pr.SelfAttnPoolParams | None = None,
    n_coords: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> dict[str, float]:
    """Analytic vs. central-difference gradients through the whole chain.

    ``trainable`` is what :func:`train_step` takes.  Samples up to
    ``n_coords`` coordinates per parameter group and returns the max
    relative error of each; the accepted bar is 1e-4.
    """
    e_stack, lengths = embed(bb, batch.ids)
    prompt, groups = prompt_graph(trainable, pool, mode, w_sa)
    eg.backward(loss(forward_batch(bb, prompt, e_stack, lengths), batch.labels))

    def loss_at() -> float:
        probe, _ = prompt_graph(trainable, pool, mode, w_sa, grad=False)
        return float(loss(forward_batch(bb, probe, e_stack, lengths), batch.labels).value[0, 0])

    rng = np.random.default_rng([seed, 0xFD])
    report: dict[str, float] = {}
    for name, (theta, leaf) in groups.items():
        flat = theta.reshape(-1)
        aflat = leaf.grad.reshape(-1)
        take = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=take, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            fp = loss_at()
            flat[c] = orig - step
            fm = loss_at()
            flat[c] = orig
            num = (fp - fm) / (2.0 * step)
            rel = abs(aflat[c] - num) / max(abs(aflat[c]), abs(num), 1e-5)
            worst = max(worst, rel)
        report[name] = worst
    return report

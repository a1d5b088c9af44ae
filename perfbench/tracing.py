"""Span tracing around the public functions of each package layer.

A traced round replaces module attributes of ``lamptune`` with thin
wrappers for the length of the round (see ``Tracer.installed``).  Each
wrapped call records a span: name, start, end, parent span and a kind.
Engine op calls are too many to keep one by one, so each op gets a call
count and busy time for the calls made inside a training step.  The
program is single-threaded and nothing queues between layers, so every
layer metric is busy time or a count.

``trainer.train_step`` is the LAMP step.  The vanilla-PT step function
is private, so its step span is opened by the training-mode
``forward_batch`` call and closed by the ``adamw_update`` that follows.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np

from lamptune import backbone, engine, trainer
from lamptune import prompt as pr

from workloads import patched

__all__ = ["NullTracer", "Tracer", "ENGINE_OPS", "TIMED_OPS", "layer_metrics"]

# the ops named by the per-layer metrics; engine.op_calls counts every
# call that makes a graph node, leaves included
ENGINE_OPS = ("matmul", "batch_matmul", "softmax", "layer_norm", "gelu", "add", "scale",
              "split_heads", "merge_heads", "concat_axis1", "tile_stack", "cross_entropy",
              "outer_product_sum", "block_row_mean")
# block_row_mean runs only under average pooling, which tiny-overhead
# alone uses; its time would read 0 on every run of the other two
TIMED_OPS = tuple(op for op in ENGINE_OPS if op != "block_row_mean")
_NOT_OPS = {"Node", "ShapeError", "value_of", "backward"}

STEP = "trainer.train_step"
LOOP = "trainer.train_loop"


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    def span(self, name: str):
        return nullcontext()

    @contextmanager
    def installed(self):
        yield


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []  # [id, parent, name, kind, start_ns, end_ns]
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.step_ops = {name: [0, 0] for name in engine.__all__ if name not in _NOT_OPS}
        self.rows = 0
        self.redundant_rows = 0
        self.pt_step: int | None = None

    # ---------------------------------------------------------------- spans

    def _open(self, name: str, kind: str = "") -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else None, name, kind,
                           time.perf_counter_ns(), None])
        self.stack.append(sid)
        self.open_names[name] += 1
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter_ns()
        self.stack.pop()
        self.open_names[span[2]] -= 1

    @contextmanager
    def span(self, name: str, kind: str = ""):
        sid = self._open(name, kind)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn, kind_of=None):
        def traced(*args, **kwargs):
            sid = self._open(name, kind_of(args) if kind_of else "")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    # -------------------------------------------------------- special cases

    def _in(self, outer: str):
        """A kind that says whether an ``outer`` span encloses the call."""
        return lambda args: outer if self.open_names[outer] else ""

    def _forward_kind(self, prompt) -> str:
        """The calling span of a forward_batch call: a training step, a
        train_loop evaluation, the scoring pass or a gradcheck probe."""
        grad = isinstance(prompt, engine.Node) and prompt.requires_grad
        if self.open_names["trainer.gradcheck"]:
            return "grad" if grad else "probe"
        if self.open_names["bench.score"]:
            return "score"
        return "train" if grad else "eval"

    def _wrap_forward(self, fn):
        def forward_batch(bb, prompt, e_stack, lengths):
            kind = self._forward_kind(prompt)
            if kind == "train":
                b, k = np.shape(e_stack)[0], np.shape(engine.value_of(prompt))[0]
                self.rows += b * (k + bb.config.m)
                self.redundant_rows += k * (b - 1)
                if not self.open_names[STEP]:
                    self.pt_step = self._open(STEP, "vanilla-pt")
            sid = self._open("backbone.forward_batch", kind)
            try:
                return fn(bb, prompt, e_stack, lengths)
            finally:
                self._close(sid)

        return forward_batch

    def _wrap_adamw(self, fn):
        traced = self._wrap("trainer.adamw_update", fn)

        def adamw_update(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if self.pt_step is not None:
                    self._close(self.pt_step)
                    self.pt_step = None

        return adamw_update

    def _wrap_op(self, name: str, fn):
        acc = self.step_ops[name]
        open_names = self.open_names

        def op(*args, **kwargs):
            if not open_names[STEP]:
                return fn(*args, **kwargs)
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            acc[1] += time.perf_counter_ns() - t0
            acc[0] += 1
            return out

        return op

    @contextmanager
    def installed(self):
        """Wrap the package's public functions for the block."""
        fwd = self._wrap_forward(backbone.forward_batch)
        dig = self._wrap("backbone.digest", backbone.digest)
        adamw = self._wrap_adamw(trainer.adamw_update)
        gen = self._wrap("trainer.generate_dataset", trainer.generate_dataset)
        repl = [
            (backbone, "build_backbone", self._wrap("backbone.build", backbone.build_backbone)),
            (backbone, "forward_batch", fwd), (trainer, "forward_batch", fwd),
            (backbone, "digest", dig), (trainer, "digest", dig),
            (trainer, "adamw_update", adamw),
            (trainer, "generate_dataset", gen),
            (trainer, "train_step", self._wrap(STEP, trainer.train_step, lambda a: "lamp")),
            (trainer, "train_loop", self._wrap(LOOP, trainer.train_loop)),
            (trainer, "gradcheck", self._wrap("trainer.gradcheck", trainer.gradcheck)),
            (engine, "backward", self._wrap("engine.backward", engine.backward, self._in(STEP))),
            # the svd layer is reached through the name prompt imported
            (pr, "svd", self._wrap("svd.svd", pr.svd, self._in(LOOP))),
        ]
        for name in ("init_source_prompt", "decompose"):
            repl.append((pr, name, self._wrap(f"prompt.{name}", getattr(pr, name), self._in(LOOP))))
        for name in ("reconstruct", "apply_pool", "save_checkpoint", "load_checkpoint"):
            repl.append((pr, name, self._wrap(f"prompt.{name}", getattr(pr, name))))
        for name in self.step_ops:
            repl.append((engine, name, self._wrap_op(name, getattr(engine, name))))
        with patched(repl):
            yield

    def write(self, path) -> None:
        """All spans as gzipped ndjson, one object per span."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, kind, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "kind": kind,
                                     "start_ns": t0, "end_ns": t1,
                                     "workload": self.workload}) + "\n")


# ------------------------------------------------------------------ metrics

def _ms(ns) -> float:
    return float(ns) / 1e6


def _median_ms(durations: list[int]) -> float:
    return _ms(np.median(durations)) if durations else 0.0


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: span time minus its children's."""
    child = Counter()
    for _, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = Counter()
    for sid, _, name, _, t0, t1 in spans:
        out[name] += (t1 - t0) - child[sid]
    return {name: _ms(ns) for name, ns in sorted(out.items())}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of the traced rounds."""
    by_name: dict[tuple[str, str], list[int]] = {}
    for _, _, name, kind, t0, t1 in tr.spans:
        by_name.setdefault((name, kind), []).append(t1 - t0)

    def durs(name, kinds=None):
        return [d for (n, k), ds in by_name.items() if n == name and (kinds is None or k in kinds)
                for d in ds]

    steps = durs(STEP)
    n_steps = max(len(steps), 1)
    m: dict[str, tuple[float, str]] = {}
    for op in ENGINE_OPS:
        calls, ns = tr.step_ops[op]
        if op in TIMED_OPS:
            m[f"engine.{op}.fwd_ms"] = (_ms(ns) / n_steps, "ms")
        m[f"engine.{op}.calls"] = (calls / n_steps, "count")
    m["engine.backward_ms"] = (_ms(sum(durs("engine.backward", {STEP}))) / n_steps, "ms")
    m["engine.op_calls"] = (sum(c for c, _ in tr.step_ops.values()) / n_steps, "count")

    for kind in ("train", "eval", "score", "probe"):
        m[f"backbone.forward_batch.{kind}_ms"] = (_median_ms(durs("backbone.forward_batch", {kind})), "ms")
    m["backbone.rows"] = (tr.rows / n_steps, "count")
    m["backbone.layer0_redundant_row_share"] = (tr.redundant_rows / max(tr.rows, 1), "fraction")
    m["backbone.build_ms"] = (_median_ms(durs("backbone.build")), "ms")
    m["backbone.digest_ms"] = (_median_ms(durs("backbone.digest")), "ms")

    m["prompt.reconstruct_ms"] = (_median_ms(durs("prompt.reconstruct")), "ms")
    m["prompt.apply_pool_ms"] = (_median_ms(durs("prompt.apply_pool")), "ms")
    # set-up calls inside train_loop; not the checkpoint's decomposition
    for key, name in (("prompt.init_source_prompt_ms", "prompt.init_source_prompt"),
                      ("prompt.decompose_ms", "prompt.decompose"), ("svd.svd_ms", "svd.svd")):
        m[key] = (_median_ms(durs(name, {LOOP})), "ms")

    steps_ms = np.asarray(steps, dtype=np.float64) / 1e6
    n = steps_ms.size
    # the highest percentile with at least ten samples beyond it, never
    # below the median
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0
    m["trainer.train_step_ms.p50"] = (float(np.percentile(steps_ms, 50)) if n else 0.0, "ms")
    m["trainer.train_step_ms.tail"] = (float(np.percentile(steps_ms, tail_pct)) if n else 0.0, "ms")
    m["trainer.train_step_ms.tail_pct"] = (tail_pct, "%")
    m["trainer.train_step_ms.samples"] = (float(n), "count")
    m["trainer.adamw_update_ms"] = (_median_ms(durs("trainer.adamw_update")), "ms")
    m["trainer.generate_dataset_ms"] = (_median_ms(durs("trainer.generate_dataset")), "ms")
    m["trainer.gradcheck_ms"] = (_median_ms(durs("trainer.gradcheck")), "ms")
    m["trainer.eval_share"] = (_eval_share(tr.spans), "fraction")
    return m


def _eval_share(spans) -> float:
    """Held-out evaluation time over epoch time, for the part of each
    train_loop after its first optimizer update (the epochs).  Spans are
    stored in start order, so one pass sees each loop before its children."""
    eval_ns = epoch_ns = 0
    end = first = None
    for _, _, name, kind, t0, t1 in spans:
        if name == LOOP:
            end, first = t1, None
        elif end is None or t0 > end:
            continue
        elif name == "trainer.adamw_update" and first is None:
            first = t0
            epoch_ns += end - first
        elif name == "backbone.forward_batch" and kind == "eval" and first is not None:
            eval_ns += t1 - t0
    return eval_ns / epoch_ns if epoch_ns else 0.0

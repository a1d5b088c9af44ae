"""Step-time benchmark across pooling block sizes.

Times one full forward + backward on a fixed batch, repeated; we report
the median, which is robust to the occasional scheduler hiccup that a
mean would absorb.  No optimizer update runs, so every iteration does
identical work.  Pooling is the only axis, so only LAMP is benchmarked:
vanilla prompt tuning never pools.
"""

from __future__ import annotations

import time

import numpy as np

from . import engine as eg
from . import prompt as pr
from .backbone import FrozenBackbone, embed, forward_batch
from .trainer import generate_dataset, init_prompt, loss, prompt_graph

__all__ = ["bench_pool_blocks"]

WARMUP_ITERS = 3


def bench_pool_blocks(cfg, bb: FrozenBackbone, blocks: list[int], iters: int) -> list[dict]:
    """Median forward+backward milliseconds per pooling block size.

    ``cfg`` is an ExperimentConfig; the prompt factors and the batch are
    fixed across blocks so only the pooled row count varies.
    """
    dp, _, _ = init_prompt("lamp", pr.PoolConfig(), bb, l=cfg.prompt.l, r=cfg.prompt.r,
                           top_k=cfg.prompt.top_k, seed=cfg.train.seed)
    data = generate_dataset(cfg.task, cfg.train.batch_size)
    e_stack, lengths = embed(bb, data.ids)

    rows = []
    for p in blocks:
        pool = pr.PoolConfig(mode="average", p=p)
        pool.validate_for_length(cfg.prompt.l)

        def step() -> None:
            prompt, _ = prompt_graph(dp, pool, cfg.prompt.mode)
            eg.backward(loss(forward_batch(bb, prompt, e_stack, lengths), data.labels))

        for _ in range(WARMUP_ITERS):
            step()
        samples = np.empty(iters)
        for i in range(iters):
            t0 = time.perf_counter()
            step()
            samples[i] = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "p": int(p),
                "prompt_rows": cfg.prompt.l // p,
                "median_ms": float(np.median(samples)),
            }
        )
    return rows

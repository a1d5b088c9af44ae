"""Experiment command line: train / count-params / gradcheck / bench / export / decompose.

Numpy is imported lazily inside main() so --deterministic can pin BLAS
thread counts via the environment before the first numpy import.  Exit
codes: 0 success, 1 runtime failure, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamptune", description=__doc__)
    ap.add_argument("--config", help="experiment config JSON path")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--out", help="override the config output directory")
    ap.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="single-thread BLAS, fixed-order reductions, wall_ms logged as 0.0",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="run a training experiment from --config")

    cp = sub.add_parser("count-params", help="print a CostReport as JSON")
    cp.add_argument("--l", type=int, required=True)
    cp.add_argument("--d", type=int, required=True)
    cp.add_argument("--r", type=int, required=True)
    cp.add_argument("--p", type=int, default=1)
    cp.add_argument("--m", type=int, default=0)
    cp.add_argument("--method", default="lamp", choices=("lamp", "vanilla-pt"))

    sub.add_parser("gradcheck", help="finite-difference check of the --config setup")

    bench = sub.add_parser("bench", help="median step time per pooling block")
    bench.add_argument("--pool-blocks", default="", help="comma-separated p values, e.g. 1,2,4")
    bench.add_argument("--iters", type=int, default=20, help="timed iterations per p (>= 20)")

    ex = sub.add_parser("export", help="write reconstructed prompt coordinates as CSV")
    ex.add_argument("checkpoint", help="prompt.lamp path")
    ex.add_argument("--csv", required=True, help="output CSV path")

    dec = sub.add_parser("decompose", help="write a freshly initialized checkpoint")
    dec.add_argument("--l", type=int, default=100)
    dec.add_argument("--d", type=int, default=64)
    dec.add_argument("--r", type=int, default=8)
    dec.add_argument("--top-k", type=int, default=5000)
    dec.add_argument("--mode", default="verbatim", choices=("verbatim", "balanced"))
    dec.add_argument("--vocab", help="vocabulary CSV (rank column + coordinates); synthetic if omitted")
    dec.add_argument("--vocab-size", type=int, default=5000, help="synthetic vocabulary size")
    return ap


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_train(args, report_wall: bool) -> int:
    from .artifacts import write_atomic
    from .backbone import build_backbone
    from .config import load_config
    from .analysis import cost_report
    from .prompt import save_checkpoint
    from .trainer import train_loop, write_metrics

    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    out = _ensure_out(cfg.output_dir)
    bb = build_backbone(cfg.backbone)
    res = train_loop(
        cfg.task,
        cfg.prompt.method,
        cfg.train,
        cfg.prompt.pooling,
        bb,
        l=cfg.prompt.l,
        r=cfg.prompt.r,
        top_k=cfg.prompt.top_k,
        mode=cfg.prompt.mode,
        n_train=cfg.n_train,
        n_heldout=cfg.n_heldout,
        record_wall_time=report_wall,
    )
    write_metrics(res.records, os.path.join(out, "metrics.ndjson"))
    save_checkpoint(os.path.join(out, "prompt.lamp"), res.checkpoint_prompt(),
                    mode=res.checkpoint_mode(), pool=cfg.prompt.pooling)
    rep = cost_report(
        cfg.prompt.l,
        cfg.backbone.d,
        cfg.prompt.r,
        p=cfg.prompt.pooling.p,
        m=cfg.backbone.m,
        method=cfg.prompt.method,
        sa_pool=cfg.prompt.pooling.mode == "self-attention",
    )
    write_atomic(os.path.join(out, "cost.json"), rep.to_json() + "\n")
    print(
        f"trained {cfg.prompt.method} for {cfg.train.epochs} epochs: "
        f"final heldout accuracy {res.final_heldout_accuracy:.4f}; artifacts in {out}"
    )
    return 0


def _cmd_count_params(args) -> int:
    from .analysis import cost_report

    if min(args.l, args.d, args.r, args.p) < 1 or args.m < 0:
        print(
            f"count-params: --l {args.l} --d {args.d} --r {args.r} --p {args.p} --m {args.m} "
            "must all be positive (m may be 0)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.l % args.p != 0:
        print(f"count-params: --p {args.p} does not divide --l {args.l}", file=sys.stderr)
        return USAGE_ERROR
    rep = cost_report(args.l, args.d, args.r, p=args.p, m=args.m, method=args.method)
    print(rep.to_json())
    return 0


def _cmd_gradcheck(args) -> int:
    import numpy as np

    from .backbone import build_backbone
    from .config import load_config
    from .trainer import generate_dataset, gradcheck, init_prompt

    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    bb = build_backbone(cfg.backbone)
    p = cfg.prompt
    trainable, w_sa, _ = init_prompt(p.method, p.pooling, bb, l=p.l, r=p.r, top_k=p.top_k,
                                     seed=cfg.train.seed)
    data = generate_dataset(cfg.task, min(cfg.train.batch_size, 8))
    report = gradcheck(trainable, p.pooling, bb, data, p.mode, w_sa=w_sa)
    print(json.dumps({k: float(v) for k, v in report.items()}))
    ok = all(np.isfinite(v) and v <= 1e-4 for v in report.values())
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    from .artifacts import write_atomic
    from .backbone import build_backbone
    from .config import load_config
    from .bench import bench_pool_blocks

    if not args.pool_blocks.strip():
        print("bench: --pool-blocks must list at least one block size", file=sys.stderr)
        return USAGE_ERROR
    try:
        blocks = [int(tok) for tok in args.pool_blocks.split(",") if tok.strip()]
    except ValueError:
        print(f"bench: cannot parse --pool-blocks {args.pool_blocks!r}", file=sys.stderr)
        return USAGE_ERROR
    if not blocks:
        print("bench: --pool-blocks must list at least one block size", file=sys.stderr)
        return USAGE_ERROR
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    if cfg.prompt.method != "lamp":
        print(f"bench: prompt.method={cfg.prompt.method} does not pool; the pooling-block "
              "bench times lamp only", file=sys.stderr)
        return USAGE_ERROR
    for p in blocks:
        if p < 1 or cfg.prompt.l % p != 0:
            print(f"bench: block p={p} does not divide prompt.l={cfg.prompt.l}", file=sys.stderr)
            return USAGE_ERROR
    iters = max(args.iters, 20)  # medians below 20 samples are too noisy to compare
    bb = build_backbone(cfg.backbone)
    rows = bench_pool_blocks(cfg, bb, blocks, iters)
    out = _ensure_out(cfg.output_dir)
    write_atomic(os.path.join(out, "bench.json"), "".join(json.dumps(row) + "\n" for row in rows))
    for row in rows:
        print(json.dumps(row))
    return 0


def _cmd_export(args) -> int:
    from .analysis import export_embeddings
    from .prompt import load_checkpoint, reconstruct

    dp, mode, _pool = load_checkpoint(args.checkpoint)
    export_embeddings(reconstruct(dp, mode=mode).value, args.csv)
    print(f"wrote {dp.l} x {dp.d} coordinates to {args.csv}")
    return 0


def _cmd_decompose(args) -> int:
    from .prompt import (
        PoolConfig,
        decompose,
        init_source_prompt,
        load_vocab_csv,
        save_checkpoint,
        synthetic_vocab,
    )

    seed = args.seed if args.seed is not None else 0
    if args.vocab:
        vocab = load_vocab_csv(args.vocab)
    else:
        vocab = synthetic_vocab(args.vocab_size, args.d, seed=seed)
    eff_top_k = min(args.top_k, vocab.embeddings.shape[0])
    sp = init_source_prompt(vocab, l=args.l, top_k=eff_top_k, seed=seed)
    dp = decompose(sp, args.r)
    out = _ensure_out(args.out or "out")
    path = os.path.join(out, "prompt.lamp")
    save_checkpoint(path, dp, mode=args.mode, pool=PoolConfig(mode="none", p=1))
    print(f"wrote initialized checkpoint l={dp.l} d={dp.d} r={dp.r} to {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.deterministic:
        # must precede the first numpy import to pin BLAS threading
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")

    from .config import ConfigError

    needs_config = args.command in ("train", "gradcheck", "bench")
    if needs_config and not args.config:
        print(f"{args.command}: --config is required", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "train":
            return _cmd_train(args, report_wall=not args.deterministic)
        if args.command == "count-params":
            return _cmd_count_params(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

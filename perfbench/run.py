"""Benchmark of lamptune: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload desk-fullbatch --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One caller runs rounds of the workload back to back (see
``workloads.py``) for about ``--seconds`` seconds, at least three rounds.
With ``--trace 0`` it reports the end-to-end metrics: medians over the
rounds, plus peak memory.  With ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones and
the tracing overhead.  Every round is checked; the last line of standard
output is one JSON object, and the exit code is 0 only if every check
passed.  Results and spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
MIN_ROUNDS = {0: 3, 1: 4}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-fullbatch", "wide-minibatch", "tiny-overhead"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; the default reproduces the acceptance-gate seeds")
    ap.add_argument("--seconds", type=int, default=40, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced rounds")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _git_commit() -> str | None:
    """The commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def _environment(seed) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _mean(values) -> float:
    """Mean over a round's training runs; NaN when every run failed."""
    return statistics.fmean(values) if values else float("nan")


def main(argv=None) -> int:
    args = _parse(argv)
    # pin BLAS to one thread before the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "lamptune" / "__init__.py").is_file():
        print(f"run.py: no lamptune sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    from lamptune import trainer
    from workloads import WORKLOADS, FirstUpdate, patched, run_round

    wl = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    hook = FirstUpdate()
    tracer = tracing.Tracer(wl.name) if args.trace else None

    rounds, traced = [], []
    start = time.perf_counter()
    with patched([(trainer, "adamw_update", hook.wrap(trainer.adamw_update))]):
        while True:
            on = bool(args.trace) and (len(rounds) + len(traced)) % 2 == 1
            t = tracer if on else tracing.NullTracer()
            with t.installed():
                res = run_round(wl, args.seed, hook, out_dir, t)
            (traced if on else rounds).append(res)
            done = rounds + traced
            elapsed = time.perf_counter() - start
            if len(done) >= MIN_ROUNDS[args.trace] and (
                    elapsed + max(r.wall_s for r in done) > args.seconds):
                break

    done = rounds + traced
    env = _environment(args.seed)
    failures = [f for r in done for f in r.failures]
    prints = sorted({r.fingerprint for r in done})
    if len(prints) != 1:
        failures.append(f"rounds gave {len(prints)} different determinism fingerprints")
    if _threads() > env["nproc"]:
        failures.append(f"{_threads()} threads running, more than nproc={env['nproc']}")
    # the two run-level checks above count as operations too
    attempted = sum(r.attempted for r in done) + 2
    failed = len(failures)

    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        r0 = traced[0]
        metrics["trainer.heldout_accuracy"] = (_mean(r0.heldout_accuracies), "fraction")
        metrics["analysis.trainable_params"] = (float(sum(c.trainable_params for c in r0.costs)), "count")
        metrics["analysis.optimizer_state_floats"] = (
            float(sum(c.optimizer_state_floats for c in r0.costs)), "count")
        metrics["analysis.attention_cost_units"] = (
            float(sum(c.attention_cost_units for c in r0.costs)), "count")
        plain = _median([r.wall_s for r in rounds])
        overhead = _median([r.wall_s for r in traced]) - plain
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / plain, "fraction")
    else:
        def per_round(num, den):
            return _median([getattr(r, num) / getattr(r, den) for r in rounds
                            if getattr(r, den) > 0] or [float("nan")])

        r0 = rounds[0]
        metrics = {
            "setup_s": (_median([r.setup_s for r in rounds]), "s"),
            "run_s": (_median([r.wall_s for r in rounds]), "s"),
            "train_examples_per_s": (per_round("train_examples", "train_s"), "examples/s"),
            "score_examples_per_s": (per_round("score_examples", "score_s"), "examples/s"),
            "gradcheck_probes_per_s": (per_round("probes", "gradcheck_s"), "probes/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "final_train_loss": (_mean(r0.final_train_losses), "nats"),
            "heldout_loss": (_mean(r0.heldout_losses), "nats"),
        }

    stem = f"{wl.name}.seed{args.seed}.trace{args.trace}"
    record = {
        "workload": wl.name,
        "environment": env,
        "fingerprint": prints[0] if len(prints) == 1 else prints,
        "rounds": len(done),
        "round_wall_s": [r.wall_s for r in done],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "gradcheck_errors": done[0].grad_errors,
        "score_accuracy": done[0].score_accuracy,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["self_ms"] = tracing.self_times_ms(tracer.spans)
        tracer.write(out_dir / f"{stem}.spans.ndjson.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  rounds {len(done)}  "
          f"error_rate {failed / max(attempted, 1):.4f}  fingerprint {record['fingerprint']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

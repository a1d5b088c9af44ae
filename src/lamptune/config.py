"""Experiment configuration: strict JSON in, validated dataclasses out.

Unknown keys are an error at every level.  Sweep scripts generate these
files mechanically, and a silently ignored typo ("weigth_decay") costs a
day of wrong runs; failing loudly at load is the cheaper contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .backbone import BackboneConfig
from .prompt import POOL_MODES, RECONSTRUCT_MODES, PoolConfig
from .trainer import METHODS, TASK_RULES, SyntheticTask, TrainConfig

__all__ = ["ConfigError", "PromptSettings", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or unknown configuration field; maps to exit code 2."""


@dataclass(frozen=True)
class PromptSettings:
    l: int = 100
    r: int = 8
    top_k: int = 5000
    mode: str = "verbatim"
    pooling: PoolConfig = field(default_factory=lambda: PoolConfig(mode="none", p=1))
    method: str = "lamp"


@dataclass(frozen=True)
class ExperimentConfig:
    backbone: BackboneConfig
    prompt: PromptSettings
    train: TrainConfig
    task: SyntheticTask
    output_dir: str = "out"
    seed: int = 0
    n_train: int = 200
    n_heldout: int = 200


def _take(section: dict, name: str, allowed: dict[str, Any]) -> dict:
    """Pop known keys with defaults; reject anything left over."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    out = {}
    for key, default in allowed.items():
        out[key] = section.pop(key, default)
    if section:
        bad = ", ".join(sorted(section))
        raise ConfigError(f"unknown key(s) in {name!r}: {bad}")
    return out


def _require_int(name: str, value, lo: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise ConfigError(f"{name} must be an integer >= {lo}, got {value!r}")
    return value


def load_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")

    top = _take(
        raw,
        "config",
        {
            "backbone": {},
            "prompt": {},
            "train": {},
            "task": {},
            "output_dir": "out",
            "seed": 0,
        },
    )
    seed = top["seed"] if seed_override is None else seed_override
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    bb_raw = _take(
        top["backbone"],
        "backbone",
        {
            "vocab_size": 64,
            "d": 64,
            "n_layers": 2,
            "n_heads": 2,
            "ffn_width": 256,
            "m": 16,
            "n_classes": 2,
            "seed": seed,
        },
    )
    pr_raw = _take(
        top["prompt"],
        "prompt",
        {
            "l": 100,
            "r": 8,
            "top_k": 5000,
            "mode": "verbatim",
            "pooling": {},
            "method": "lamp",
        },
    )
    pool_raw = _take(pr_raw["pooling"], "prompt.pooling", {"mode": "none", "p": 1})
    tr_raw = _take(
        top["train"],
        "train",
        {
            "learning_rate": 0.3,
            "weight_decay": 1e-5,
            "adam_beta1": 0.9,
            "adam_beta2": 0.999,
            "adam_epsilon": 1e-8,
            "batch_size": 16,
            "epochs": 100,
            "seed": seed,
        },
    )
    tk_raw = _take(
        top["task"],
        "task",
        {
            "rule": "token-presence",
            "vocab_size": bb_raw["vocab_size"],
            "seq_len": bb_raw["m"],
            "n_classes": bb_raw["n_classes"],
            "seed": seed,
            "n_train": 200,
            "n_heldout": 200,
        },
    )

    # field-level checks first, so messages name the offending fields
    l = _require_int("prompt.l", pr_raw["l"])
    r = _require_int("prompt.r", pr_raw["r"])
    top_k = _require_int("prompt.top_k", pr_raw["top_k"])
    d = _require_int("backbone.d", bb_raw["d"])
    n_heads = _require_int("backbone.n_heads", bb_raw["n_heads"])
    p = _require_int("prompt.pooling.p", pool_raw["p"])
    n_train = _require_int("task.n_train", tk_raw.pop("n_train"))
    n_heldout = _require_int("task.n_heldout", tk_raw.pop("n_heldout"))
    if pr_raw["mode"] not in RECONSTRUCT_MODES:
        raise ConfigError(f"prompt.mode must be one of {RECONSTRUCT_MODES}, got {pr_raw['mode']!r}")
    if pool_raw["mode"] not in POOL_MODES:
        raise ConfigError(f"prompt.pooling.mode must be one of {POOL_MODES}, got {pool_raw['mode']!r}")
    if pr_raw["method"] not in METHODS:
        raise ConfigError(f"prompt.method must be one of {METHODS}, got {pr_raw['method']!r}")
    if tk_raw["rule"] not in TASK_RULES:
        raise ConfigError(f"task.rule must be one of {TASK_RULES}, got {tk_raw['rule']!r}")

    # cross-field validity
    if l % p != 0:
        raise ConfigError(f"prompt.pooling.p={p} does not divide prompt.l={l}")
    if r > min(l, d):
        raise ConfigError(f"prompt.r={r} exceeds min(prompt.l={l}, backbone.d={d})")
    if d % n_heads != 0:
        raise ConfigError(f"backbone.d={d} not divisible by backbone.n_heads={n_heads}")
    if tk_raw["vocab_size"] != bb_raw["vocab_size"]:
        raise ConfigError(
            f"task.vocab_size={tk_raw['vocab_size']} must equal backbone.vocab_size={bb_raw['vocab_size']}"
        )
    if tk_raw["seq_len"] > bb_raw["m"]:
        raise ConfigError(f"task.seq_len={tk_raw['seq_len']} exceeds backbone.m={bb_raw['m']}")
    if tk_raw["n_classes"] != bb_raw["n_classes"]:
        raise ConfigError(
            f"task.n_classes={tk_raw['n_classes']} must equal backbone.n_classes={bb_raw['n_classes']}"
        )

    try:
        backbone = BackboneConfig(**bb_raw)
        train = TrainConfig(**tr_raw)
        task = SyntheticTask(**tk_raw)
        pooling = PoolConfig(mode=pool_raw["mode"], p=p)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    prompt = PromptSettings(
        l=l, r=r, top_k=top_k, mode=pr_raw["mode"], pooling=pooling, method=pr_raw["method"]
    )
    out_dir = top["output_dir"] if out_override is None else out_override
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {out_dir!r}")
    return ExperimentConfig(
        backbone=backbone,
        prompt=prompt,
        train=train,
        task=task,
        output_dir=out_dir,
        seed=seed,
        n_train=n_train,
        n_heldout=n_heldout,
    )

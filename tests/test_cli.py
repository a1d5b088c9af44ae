"""Command-line contract: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lamptune
from lamptune.cli import main
from lamptune.config import ConfigError, load_config
from lamptune.prompt import load_checkpoint, synthetic_vocab


def write_config(path, **overrides):
    cfg = {
        "backbone": {
            "vocab_size": 12,
            "d": 16,
            "n_layers": 1,
            "n_heads": 2,
            "ffn_width": 32,
            "m": 6,
            "n_classes": 2,
            "seed": 3,
        },
        "prompt": {"l": 8, "r": 3, "top_k": 12, "mode": "verbatim",
                   "pooling": {"mode": "none", "p": 1}, "method": "lamp"},
        "train": {"learning_rate": 0.1, "batch_size": 4, "epochs": 2, "seed": 7},
        "task": {"rule": "token-presence", "vocab_size": 12, "seq_len": 6,
                 "n_classes": 2, "seed": 5, "n_train": 12, "n_heldout": 12},
        "output_dir": str(path.parent / "out"),
        "seed": 7,
    }
    for key, val in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = val
        else:
            cfg[section] = val
    path.write_text(json.dumps(cfg))
    return cfg


# ---------------------------------------------------------------- config

def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    cfg = write_config(path)
    cfg["train"]["weigth_decay"] = 0.1  # typo must be fatal
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="weigth_decay"):
        load_config(str(path))


def test_load_config_cross_field_messages_name_fields(tmp_path):
    path = tmp_path / "c.json"
    write_config(path, **{"prompt.pooling": {"mode": "average", "p": 3}, "prompt.l": 100})
    with pytest.raises(ConfigError, match=r"p=3.*l=100"):
        load_config(str(path))
    write_config(path, **{"prompt.r": 40})
    with pytest.raises(ConfigError, match=r"r=40"):
        load_config(str(path))
    write_config(path, **{"backbone.n_heads": 3})
    with pytest.raises(ConfigError, match="n_heads"):
        load_config(str(path))


def test_load_config_seed_threads_to_sections(tmp_path):
    path = tmp_path / "c.json"
    cfg = write_config(path)
    del cfg["backbone"]["seed"]
    del cfg["train"]["seed"]
    del cfg["task"]["seed"]
    cfg["seed"] = 21
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path))
    assert loaded.backbone.seed == 21
    assert loaded.train.seed == 21
    assert loaded.task.seed == 21
    override = load_config(str(path), seed_override=4)
    assert override.train.seed == 4


# ---------------------------------------------------------------- train

def test_cmd_train_writes_artifacts_and_reruns_identically(tmp_path):
    path = tmp_path / "c.json"
    write_config(path)
    assert main(["--config", str(path), "train"]) == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.ndjson").read_bytes()
    ckpt = (out / "prompt.lamp").read_bytes()
    cost = json.loads((out / "cost.json").read_text())
    assert cost["trainable_params"] == 8 * 3 + 3 + 3 * 16
    assert cost["method"] == "lamp"

    records = [json.loads(line) for line in metrics.decode().splitlines()]
    assert len(records) == 2 * (2 + 1)  # train+heldout per epoch plus epoch 0
    assert all(rec["trainable_params"] == cost["trainable_params"] for rec in records)
    assert all(rec["wall_ms"] == 0.0 for rec in records)

    assert main(["--config", str(path), "train"]) == 0
    assert (out / "metrics.ndjson").read_bytes() == metrics
    assert (out / "prompt.lamp").read_bytes() == ckpt


def test_cmd_train_invalid_config_exits_2_naming_fields(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path, **{"prompt.pooling": {"mode": "average", "p": 3}, "prompt.l": 100})
    assert main(["--config", str(path), "train"]) == 2
    err = capsys.readouterr().err
    assert "p=3" in err and "l=100" in err


def test_cmd_train_missing_config_flag_exits_2():
    assert main(["train"]) == 2


def test_cmd_train_vanilla_pt_checkpoint_reconstructs_matrix(tmp_path):
    path = tmp_path / "c.json"
    write_config(path, **{"prompt.method": "vanilla-pt"})
    assert main(["--config", str(path), "train"]) == 0
    dp, mode, _ = load_checkpoint(tmp_path / "out" / "prompt.lamp")
    assert mode == "balanced"
    assert dp.l == 8 and dp.d == 16
    cost = json.loads((tmp_path / "out" / "cost.json").read_text())
    assert cost["trainable_params"] == 8 * 16
    assert cost["method"] == "vanilla-pt"


def test_cmd_train_artifacts_independent_of_blas_threads(tmp_path):
    # desk-shaped: 100 prompt rows over 16 input rows, so the GEMMs are
    # large enough for OpenBLAS to split them across threads
    src = str(Path(lamptune.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        path = tmp_path / threads / "c.json"
        path.parent.mkdir()
        write_config(
            path,
            backbone={"vocab_size": 16, "d": 64, "n_layers": 2, "n_heads": 2, "ffn_width": 256,
                      "m": 16, "n_classes": 2, "seed": 0},
            **{"prompt.l": 100, "prompt.r": 8, "prompt.top_k": 16,
               "train.batch_size": 32, "train.epochs": 1, "train.learning_rate": 0.3,
               "task.vocab_size": 16, "task.seq_len": 16, "task.n_train": 64, "task.n_heldout": 32},
        )
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        # --deterministic only sets the thread count where it is unset
        proc = subprocess.run(
            [sys.executable, "-m", "lamptune.cli", "--deterministic", "--config", str(path), "train"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = path.parent / "out"
        blobs.append(((out / "metrics.ndjson").read_bytes(), (out / "prompt.lamp").read_bytes()))
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------- count-params

def test_count_params_prints_paper_rows(capsys):
    assert main(["count-params", "--l", "100", "--d", "1024", "--r", "8"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ratio"] == 11.38
    assert main(["count-params", "--l", "500", "--d", "4096", "--r", "8"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["trainable_params"] == 36_776


def test_count_params_rejects_zero_rank(capsys):
    assert main(["count-params", "--l", "100", "--d", "64", "--r", "0"]) == 2
    assert "--r 0" in capsys.readouterr().err


# ---------------------------------------------------------------- gradcheck

def test_cmd_gradcheck_passes_tiny_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path, **{"prompt.pooling": {"mode": "average", "p": 2}})
    assert main(["--config", str(path), "gradcheck"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"u", "q", "v"}
    assert all(v <= 1e-4 for v in blob.values())


# ---------------------------------------------------------------- bench

def test_cmd_bench_rows_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path)
    assert main(["--config", str(path), "bench", "--pool-blocks", "1,2,4"]) == 0
    out_lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["p"] for row in out_lines] == [1, 2, 4]
    assert [row["prompt_rows"] for row in out_lines] == [8, 4, 2]
    assert all(row["median_ms"] > 0 for row in out_lines)
    bench_lines = (tmp_path / "out" / "bench.json").read_text().splitlines()
    assert [json.loads(line)["p"] for line in bench_lines] == [1, 2, 4]

    assert main(["--config", str(path), "bench", "--pool-blocks", ""]) == 2
    assert main(["--config", str(path), "bench", "--pool-blocks", "3"]) == 2


# ---------------------------------------------------------------- export / decompose

def test_decompose_then_export_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "dec")
    assert main(["--out", out, "decompose", "--l", "10", "--d", "12", "--r", "4",
                 "--vocab-size", "50"]) == 0
    ckpt = os.path.join(out, "prompt.lamp")
    dp, mode, _ = load_checkpoint(ckpt)
    assert (dp.l, dp.d, dp.r) == (10, 12, 4)
    assert mode == "verbatim"

    csv = str(tmp_path / "emb.csv")
    assert main(["export", ckpt, "--csv", csv]) == 0
    coords = np.loadtxt(csv, delimiter=",", ndmin=2)
    assert coords.shape == (10, 12)


def test_decompose_reads_vocab_csv(tmp_path):
    vocab = synthetic_vocab(30, 6, seed=1)
    lines = []
    rank_of = np.empty(30, dtype=int)
    rank_of[vocab.frequency_rank] = np.arange(30)
    for i, row in enumerate(vocab.embeddings):
        lines.append(",".join([str(rank_of[i])] + [f"{x:.17g}" for x in row]))
    vpath = tmp_path / "vocab.csv"
    vpath.write_text("\n".join(lines) + "\n")

    out = str(tmp_path / "dec")
    assert main(["--out", out, "--seed", "2", "decompose", "--l", "6", "--d", "6",
                 "--r", "2", "--top-k", "5", "--vocab", str(vpath)]) == 0
    dp, _, _ = load_checkpoint(os.path.join(out, "prompt.lamp"))

    # rebuild with the library path: same seed, same vocabulary table
    from lamptune.prompt import decompose as lib_decompose
    from lamptune.prompt import init_source_prompt

    sp = init_source_prompt(vocab, l=6, top_k=5, seed=2)
    ref = lib_decompose(sp, 2)
    assert np.allclose(dp.u, ref.u, atol=1e-12)
    assert np.allclose(dp.q, ref.q, atol=1e-12)
    assert np.allclose(dp.v, ref.v, atol=1e-12)


def test_export_missing_checkpoint_exits_1(tmp_path):
    assert main(["export", str(tmp_path / "nope.lamp"), "--csv", str(tmp_path / "x.csv")]) == 1

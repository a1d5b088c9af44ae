"""A small frozen pre-norm transformer encoder with a classifier head.

The encoder stands in for the frozen language model: its weights are
drawn once from a seeded normal distribution and never updated, which a
content digest makes checkable.  The prompt rows are concatenated above
the embedded input, sinusoidal position encodings are added to the
combined sequence, and the classifier reads a mean over all non-pad
positions (prompt rows included).

Gradient reaches only the prompt argument: every weight enters the
graph as a frozen leaf, so the tape never spends work on weight
gradients.  The batch path keeps activations as one (B*T, d) matrix for
the linear layers, which keeps the step at a few dozen large operations
instead of thousands of per-example ones.

Each layer is two fused engine ops between its projections:
``engine.attention`` reads the heads straight from the (B*T, d) Q/K/V
projections and hides pad keys by per-example key length, and
``engine.gelu_mlp`` is the whole feed-forward block.  Both do their
elementwise work in cache-sized blocks of whole examples or rows, set by
the fixed ``engine.BLOCK_BYTES``; attention recomputes each block's
probabilities in the backward instead of keeping a (B*H, T, T) tensor.
A block runs the same per-row arithmetic as a whole-batch pass, so
logits and gradients do not depend on the block size.  Weights are
checked finite once, when a ``FrozenBackbone`` is made.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import engine as eg

__all__ = [
    "BackboneConfig",
    "FrozenBackbone",
    "build_backbone",
    "sinusoidal_pe",
    "encode_input",
    "forward",
    "forward_batch",
    "digest",
]

INIT_SCALE = 0.02


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int
    d: int
    n_layers: int
    n_heads: int
    ffn_width: int
    m: int  # maximum input sequence length (prompt rows not counted)
    n_classes: int
    seed: int

    def __post_init__(self):
        for name in ("vocab_size", "d", "n_layers", "n_heads", "ffn_width", "m", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"backbone config field {name} must be >= 1")
        if self.d % self.n_heads != 0:
            raise ValueError(f"width d={self.d} not divisible by n_heads={self.n_heads}")


@dataclass(frozen=True)
class FrozenBackbone:
    config: BackboneConfig
    weights: dict[str, np.ndarray]  # never mutated after build

    def __post_init__(self):
        # checked once here, so each forward can wrap the weights unscanned
        for name, arr in self.weights.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"backbone weight {name} contains non-finite entries")

    @property
    def embedding(self) -> np.ndarray:
        return self.weights["embedding"]


def build_backbone(config: BackboneConfig) -> FrozenBackbone:
    """Seeded construction; layer norms start at identity, everything
    else is normal with scale 0.02."""
    rng = np.random.default_rng(config.seed)
    d, f = config.d, config.ffn_width
    w: dict[str, np.ndarray] = {}
    w["embedding"] = INIT_SCALE * rng.standard_normal((config.vocab_size, d))
    for i in range(config.n_layers):
        for name, shape in (
            ("wq", (d, d)),
            ("wk", (d, d)),
            ("wv", (d, d)),
            ("wo", (d, d)),
            ("w1", (d, f)),
            ("w2", (f, d)),
        ):
            w[f"layer{i}.{name}"] = INIT_SCALE * rng.standard_normal(shape)
        w[f"layer{i}.ln1_g"] = np.ones((1, d))
        w[f"layer{i}.ln1_b"] = np.zeros((1, d))
        w[f"layer{i}.ln2_g"] = np.ones((1, d))
        w[f"layer{i}.ln2_b"] = np.zeros((1, d))
    w["lnf_g"] = np.ones((1, d))
    w["lnf_b"] = np.zeros((1, d))
    w["head"] = INIT_SCALE * rng.standard_normal((d, config.n_classes))
    return FrozenBackbone(config=config, weights=w)


def digest(bb: FrozenBackbone) -> str:
    """sha256 over config and all weight bytes in a fixed order."""
    h = hashlib.sha256()
    h.update(repr(bb.config).encode())
    for name in sorted(bb.weights):
        h.update(name.encode())
        h.update(bb.weights[name].tobytes(order="C"))
    return h.hexdigest()


def sinusoidal_pe(t: int, d: int) -> np.ndarray:
    """Standard sin/cos position table scaled to the weight init scale."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    half = (d + 1) // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half, dtype=np.float64) / d)
    ang = pos * freqs[None, :]
    pe = np.zeros((t, d))
    pe[:, 0::2] = np.sin(ang[:, : (d + 1) // 2])
    pe[:, 1::2] = np.cos(ang[:, : d // 2])
    return INIT_SCALE * pe


def encode_input(bb: FrozenBackbone, token_ids) -> np.ndarray:
    """Embedding-row gather, right-padded with zero rows to length m."""
    cfg = bb.config
    ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    if ids.size > cfg.m:
        raise ValueError(f"sequence of {ids.size} tokens exceeds maximum length m={cfg.m}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocabulary of {cfg.vocab_size}")
    e = np.zeros((cfg.m, cfg.d))
    e[: ids.size] = bb.embedding[ids]
    return e


def _lengths_from_padding(e: np.ndarray) -> int:
    """Number of leading rows before the trailing all-zero pad block."""
    nonzero = np.any(e != 0.0, axis=1)
    idx = np.nonzero(nonzero)[0]
    return int(idx[-1]) + 1 if idx.size else 0


def _pool_weights(k: int, t: int, lengths: np.ndarray) -> np.ndarray:
    """(B, 1, t) rows averaging prompt positions plus real token positions."""
    b = lengths.shape[0]
    if np.all(lengths == t - k):  # nothing padded: one uniform row
        return np.full((b, 1, t), 1.0 / t)
    w = np.zeros((b, 1, t))
    for i, n in enumerate(lengths):
        w[i, 0, : k + n] = 1.0 / (k + n)
    return w


# Position encodings are pure constants: no gradient ever reaches them,
# so the broadcast stack can be shared across calls and across tapes.
_PE_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _pe_stack(b: int, t: int, d: int) -> np.ndarray:
    key = (b, t, d)
    stack = _PE_CACHE.get(key)
    if stack is None:
        stack = np.broadcast_to(sinusoidal_pe(t, d), (b, t, d)).copy()
        _PE_CACHE[key] = stack
    return stack


def forward_batch(bb: FrozenBackbone, prompt, e_stack: np.ndarray, lengths) -> eg.Node:
    """Logits (B, n_classes) for a stack of embedded inputs sharing one
    prompt.  ``prompt`` may be a graph node (training) or an array."""
    cfg = bb.config
    p_node = prompt if isinstance(prompt, eg.Node) else eg.constant(prompt)
    if p_node.value.ndim != 2 or p_node.value.shape[1] != cfg.d:
        raise eg.ShapeError(f"prompt width {p_node.value.shape} does not match backbone d={cfg.d}")
    e_stack = np.asarray(e_stack, dtype=np.float64)
    if e_stack.ndim != 3 or e_stack.shape[1] != cfg.m or e_stack.shape[2] != cfg.d:
        raise eg.ShapeError(f"input stack {e_stack.shape} must be (B, {cfg.m}, {cfg.d})")
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if lengths.shape[0] != e_stack.shape[0]:
        raise eg.ShapeError(f"{e_stack.shape[0]} examples but {lengths.shape[0]} lengths")
    if np.any(lengths < 0) or np.any(lengths > cfg.m):
        raise ValueError(f"lengths must lie in [0, {cfg.m}]")

    b = e_stack.shape[0]
    k = p_node.value.shape[0]
    t = k + cfg.m
    # the weights were checked finite when the backbone was built
    wt = {name: eg.Node(arr) for name, arr in bb.weights.items()}

    seq = eg.concat_axis1(eg.tile_stack(p_node, b), eg.constant(e_stack))
    seq = eg.add(seq, eg.Node(_pe_stack(b, t, cfg.d)))
    x = eg.merge_lead(seq)  # (B*t, d) for all linear layers
    key_len = k + lengths  # pad positions are hidden as keys

    for i in range(cfg.n_layers):
        ln = eg.layer_norm(x, wt[f"layer{i}.ln1_g"], wt[f"layer{i}.ln1_b"])
        qkv = [eg.matmul(ln, wt[f"layer{i}.{w}"]) for w in ("wq", "wk", "wv")]
        mixed = eg.attention(*qkv, cfg.n_heads, key_len)
        x = eg.add(x, eg.matmul(mixed, wt[f"layer{i}.wo"]))
        ln2 = eg.layer_norm(x, wt[f"layer{i}.ln2_g"], wt[f"layer{i}.ln2_b"])
        x = eg.add(x, eg.gelu_mlp(ln2, wt[f"layer{i}.w1"], wt[f"layer{i}.w2"]))

    x = eg.layer_norm(x, wt["lnf_g"], wt["lnf_b"])
    pooled = eg.batch_matmul(eg.constant(_pool_weights(k, t, lengths)), eg.split_lead(x, b))
    return eg.matmul(eg.merge_lead(pooled), wt["head"])


def forward(bb: FrozenBackbone, prompt, e: np.ndarray) -> eg.Node:
    """Single-example logits (1, n_classes).  Pad rows are recognized as
    the trailing all-zero block of ``e``."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2 or e.shape != (bb.config.m, bb.config.d):
        raise eg.ShapeError(f"input {e.shape} must be ({bb.config.m}, {bb.config.d})")
    n = _lengths_from_padding(e)
    return forward_batch(bb, prompt, e[None, :, :], np.array([n]))

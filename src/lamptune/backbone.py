"""A small frozen pre-norm transformer encoder with a classifier head.

The encoder stands in for the frozen language model: its weights are
drawn once from a seeded normal distribution and never updated, which a
content digest makes checkable.  The prompt rows are concatenated above
the embedded input, sinusoidal position encodings are added to the
combined sequence, and the classifier reads a mean over all non-pad
positions (prompt rows included).

``embed`` turns (n, seq) token ids into the zero-padded input stack
and per-example lengths that ``forward_batch`` takes; it is the one
place ids are checked against the vocabulary and the length m.  There
is no single-example path: one example is a stack of one.

Gradient reaches only the prompt argument: every weight enters the
graph as a frozen leaf, so the tape never spends work on weight
gradients.  Activations stay one (B*T, d) matrix for the linear layers,
which keeps the step at a few dozen large operations instead of
thousands of per-example ones.

Until layer 0's attention mixes them with the input, the k prompt rows
are the same in every example.  So the prompt plus its position
encodings, layer 0's first layer norm and its Q/K/V projection run once
on those k rows, and on the B*m input rows as constants that need no
gradient; ``engine.shared_prefix`` places the prompt rows in front of
every example's rows, for the residual stream and for the projection,
and sums their adjoints over the batch in the backward.  Every layer
projects Q, K and V with one product against [wq | wk | wv], kept per
layer in ``FrozenBackbone.qkv`` outside the weights and the digest.

Each layer is two fused engine ops between its projections:
``engine.attention`` reads the heads straight from the (B*T, 3d) Q/K/V
projection and hides pad keys by per-example key length, and
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
from dataclasses import dataclass, field

import numpy as np

from . import engine as eg

__all__ = [
    "BackboneConfig",
    "FrozenBackbone",
    "build_backbone",
    "sinusoidal_pe",
    "embed",
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
    # per layer, [wq | wk | wv] as one (d, 3d) matrix; derived from the
    # weights, so it stays out of them and out of the digest
    qkv: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked once here, so each forward can wrap the weights unscanned
        for name, arr in self.weights.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"backbone weight {name} contains non-finite entries")
        qkv = tuple(
            np.concatenate([self.weights[f"layer{i}.{w}"] for w in ("wq", "wk", "wv")], axis=1)
            for i in range(self.config.n_layers)
        )
        object.__setattr__(self, "qkv", qkv)

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


def embed(bb: FrozenBackbone, ids) -> tuple[np.ndarray, np.ndarray]:
    """Input stack for :func:`forward_batch` from (n, seq) token ids.

    Each row is gathered from the embedding table and right-padded with
    zero rows to length m; every example's length is seq.  Ids outside
    the vocabulary and sequences longer than m raise ValueError.
    """
    cfg = bb.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"token ids must be an (n, seq) array, got shape {ids.shape}")
    n, seq = ids.shape
    if seq > cfg.m:
        raise ValueError(f"sequence of {seq} tokens exceeds maximum length m={cfg.m}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocabulary of {cfg.vocab_size}")
    e = np.zeros((n, cfg.m, cfg.d))
    e[:, :seq, :] = bb.embedding[ids]
    return e, np.full(n, seq, dtype=np.int64)


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
# so one read-only (t, d) table serves every batch size and every tape.
_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _pe_table(t: int, d: int) -> np.ndarray:
    key = (t, d)
    table = _PE_CACHE.get(key)
    if table is None:
        table = sinusoidal_pe(t, d)
        table.flags.writeable = False
        _PE_CACHE[key] = table
    return table


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
    pe = _pe_table(t, cfg.d)

    def w(name: str) -> eg.Node:
        # the weights were checked finite when the backbone was built
        return eg.Node(bb.weights[name])

    # layer 0's input: the prompt rows once, the input rows as a constant
    # (which also checks the input stack finite)
    p_rows = eg.add(p_node, eg.Node(pe[:k]))
    e_rows = eg.constant((e_stack + pe[k:]).reshape(b * cfg.m, cfg.d))
    x = eg.shared_prefix(p_rows, e_rows, b)  # (B*t, d) for all linear layers
    key_len = k + lengths  # pad positions are hidden as keys

    for i in range(cfg.n_layers):
        g1, b1, wqkv = w(f"layer{i}.ln1_g"), w(f"layer{i}.ln1_b"), eg.Node(bb.qkv[i])
        if i == 0:
            # every example's prompt rows are equal until attention mixes
            # them with its input: normalize and project them once
            proj = [eg.matmul(eg.layer_norm(rows, g1, b1), wqkv) for rows in (p_rows, e_rows)]
            qkv = eg.shared_prefix(*proj, b)
        else:
            qkv = eg.matmul(eg.layer_norm(x, g1, b1), wqkv)
        mixed = eg.attention(qkv, cfg.n_heads, key_len)
        x = eg.add(x, eg.matmul(mixed, w(f"layer{i}.wo")))
        ln2 = eg.layer_norm(x, w(f"layer{i}.ln2_g"), w(f"layer{i}.ln2_b"))
        x = eg.add(x, eg.gelu_mlp(ln2, w(f"layer{i}.w1"), w(f"layer{i}.w2")))

    x = eg.layer_norm(x, w("lnf_g"), w("lnf_b"))
    pooled = eg.batch_matmul(eg.constant(_pool_weights(k, t, lengths)), eg.split_lead(x, b))
    return eg.matmul(eg.merge_lead(pooled), w("head"))

"""Low-rank prompt mechanics: init, decomposition, reconstruction, pooling.

A source prompt P (l x d) is sampled from frequent vocabulary rows, then
factored once by truncated SVD into the trainable triple (U, Q, V).
Training never touches P again: the prompt fed to the model is rebuilt
every step as a sum of rank-1 outer products of the aggregated factors
M = U diag(Q) and I = diag(Q) V^T, optionally compacted to l/p rows by
average pooling or a learned attention pooling.

Composing M and I verbatim squares Q, so the initial reconstruction is
U diag(Q^2) V^T rather than the rank-r truncation of P.  That is what
the defining equations literally say, and it is the default.  The
"balanced" mode splits Q as sqrt(Q) on each side instead, recovering
U diag(Q) V^T, the actual truncation.  Both are kept because the choice
changes only the starting point of optimization, not the parameter
count, and there is a real argument for each.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .artifacts import write_atomic
from .svd import svd, truncate

__all__ = [
    "VocabTable",
    "SourcePrompt",
    "DecomposedPrompt",
    "PromptLeaves",
    "PoolConfig",
    "SelfAttnPoolParams",
    "make_vocab",
    "synthetic_vocab",
    "load_vocab_csv",
    "init_source_prompt",
    "decompose",
    "leaves",
    "aggregate_m",
    "aggregate_i",
    "compressed_outer_product",
    "reconstruct",
    "average_pool",
    "self_attention_pool",
    "apply_pool",
    "init_self_attn_pool",
    "lamp_param_count",
    "vanilla_pt_param_count",
    "save_checkpoint",
    "load_checkpoint",
    "RECONSTRUCT_MODES",
    "POOL_MODES",
]

RECONSTRUCT_MODES = ("verbatim", "balanced")
POOL_MODES = ("none", "average", "self-attention")

CHECKPOINT_MAGIC = b"LAMP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class VocabTable:
    """Embedding table plus a frequency ordering of its rows.

    ``frequency_rank[k]`` is the row index of the k-th most frequent
    token, so ``frequency_rank[:top_k]`` are the top-k rows.
    """

    embeddings: np.ndarray  # (vocab_size, d)
    frequency_rank: np.ndarray  # permutation of row indices

    def __post_init__(self):
        n = self.embeddings.shape[0]
        ranks = np.asarray(self.frequency_rank)
        if ranks.shape != (n,) or not np.array_equal(np.sort(ranks), np.arange(n)):
            raise ValueError("frequency_rank must be a permutation of row indices")


@dataclass(frozen=True)
class SourcePrompt:
    tokens: np.ndarray  # (l, d)

    @property
    def l(self) -> int:
        return self.tokens.shape[0]

    @property
    def d(self) -> int:
        return self.tokens.shape[1]


@dataclass
class DecomposedPrompt:
    """The entire trainable state of the low-rank method.

    Plain arrays; the optimizer mutates them between steps.  Q starts
    non-negative and descending because it comes out of an SVD, but no
    ordering or sign constraint is enforced afterwards.
    """

    u: np.ndarray  # (l, r)
    q: np.ndarray  # (r,)
    v: np.ndarray  # (d, r)

    def __post_init__(self):
        l, r = self.u.shape
        if self.q.shape != (r,) or self.v.ndim != 2 or self.v.shape[1] != r:
            raise ValueError(
                f"inconsistent factor shapes U{self.u.shape} Q{self.q.shape} V{self.v.shape}"
            )

    @property
    def l(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[0]

    @property
    def r(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class PromptLeaves:
    """Graph nodes for one training step's view of (U, Q, V)."""

    u: eg.Node  # (l, r)
    q: eg.Node  # (1, r)
    v: eg.Node  # (d, r)


@dataclass(frozen=True)
class PoolConfig:
    mode: str = "none"
    p: int = 1

    def __post_init__(self):
        if self.mode not in POOL_MODES:
            raise ValueError(f"unknown pooling mode {self.mode!r}, expected one of {POOL_MODES}")
        if self.p < 1:
            raise ValueError(f"pooling block size must be >= 1, got {self.p}")

    def validate_for_length(self, l: int) -> None:
        if self.mode != "none" and l % self.p != 0:
            raise ValueError(f"pooling block p={self.p} does not divide prompt length l={l}")

    def pooled_rows(self, l: int) -> int:
        if self.mode == "none":
            return l
        self.validate_for_length(l)
        return l // self.p


@dataclass
class SelfAttnPoolParams:
    w_sa: np.ndarray  # (d, l/p)


def make_vocab(embeddings: np.ndarray) -> VocabTable:
    """Wrap an embedding table as a vocabulary whose ids are already in
    frequency order (id 0 most frequent), the convention used by the
    synthetic tasks."""
    emb = np.asarray(embeddings, dtype=np.float64)
    return VocabTable(embeddings=emb, frequency_rank=np.arange(emb.shape[0]))


def synthetic_vocab(n: int, d: int, seed: int = 0) -> VocabTable:
    """Desk-scale stand-in vocabulary: normal embeddings whose frequency
    ranks come from Zipf-law weights over a shuffled id order."""
    if n < 1 or d < 1:
        raise ValueError(f"vocabulary needs n >= 1 and d >= 1, got n={n} d={d}")
    rng = np.random.default_rng([seed, 0x70C4B])
    emb = 0.02 * rng.standard_normal((n, d))
    weights = 1.0 / (1.0 + rng.permutation(n).astype(np.float64))
    rank = np.argsort(-weights, kind="stable").astype(np.int64)
    return VocabTable(embeddings=emb, frequency_rank=rank)


def load_vocab_csv(path) -> VocabTable:
    """Vocabulary CSV: one token per line, leading integer frequency
    rank, then the d embedding coordinates."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if raw.shape[1] < 2:
        raise ValueError(f"vocabulary rows need a rank column plus coordinates, got {raw.shape[1]} columns")
    ranks = raw[:, 0]
    if not np.array_equal(ranks, np.round(ranks)):
        raise ValueError("frequency-rank column must hold integers")
    n = raw.shape[0]
    ranks = ranks.astype(np.int64)
    if sorted(ranks.tolist()) != list(range(n)):
        raise ValueError(f"frequency ranks must be a permutation of 0..{n - 1}")
    frequency_rank = np.empty(n, dtype=np.int64)
    frequency_rank[ranks] = np.arange(n)
    return VocabTable(embeddings=raw[:, 1:].copy(), frequency_rank=frequency_rank)


def init_source_prompt(vocab: VocabTable, l: int, top_k: int, seed: int) -> SourcePrompt:
    """Sample l prompt rows uniformly from the top_k most frequent
    vocabulary embeddings, without replacement unless l exceeds top_k."""
    vocab_size = vocab.embeddings.shape[0]
    if l < 1:
        raise ValueError(f"prompt length must be >= 1, got {l}")
    if top_k < 1 or top_k > vocab_size:
        raise ValueError(f"top_k must be in [1, {vocab_size}], got {top_k}")
    rng = np.random.default_rng(seed)
    pool = np.asarray(vocab.frequency_rank[:top_k])
    ids = rng.choice(pool, size=l, replace=l > top_k)
    return SourcePrompt(tokens=vocab.embeddings[ids].astype(np.float64).copy())


def decompose(p: SourcePrompt, r: int) -> DecomposedPrompt:
    """Truncated SVD of the source prompt; the factors become the
    trainable parameters and P itself is discarded."""
    k = min(p.l, p.d)
    if not 1 <= r <= k:
        raise ValueError(f"rank r={r} outside [1, {k}] for a {p.l} x {p.d} prompt")
    u, q, v = truncate(svd(p.tokens), r)
    return DecomposedPrompt(u=u, q=q, v=v)


def leaves(dp: DecomposedPrompt, trainable: bool = True) -> PromptLeaves:
    """Fresh graph leaves over the current factor values."""
    wrap = eg.parameter if trainable else eg.constant
    return PromptLeaves(u=wrap(dp.u), q=wrap(dp.q.reshape(1, -1)), v=wrap(dp.v))


def _as_leaves(x) -> PromptLeaves:
    return x if isinstance(x, PromptLeaves) else leaves(x, trainable=False)


def aggregate_m(x) -> eg.Node:
    """M = U diag(Q), the left factor of the outer-product rebuild."""
    lv = _as_leaves(x)
    return eg.matmul(lv.u, eg.diag(lv.q))


def aggregate_i(x) -> eg.Node:
    """I = diag(Q) V^T, the right factor."""
    lv = _as_leaves(x)
    return eg.matmul(eg.diag(lv.q), eg.transpose(lv.v))


def compressed_outer_product(m: eg.Node, i: eg.Node) -> eg.Node:
    """C = sum_k M[:, k] (x) I[k, :], the rank-r prompt rebuild."""
    return eg.outer_product_sum(m, i)


def reconstruct(x, mode: str = "verbatim") -> eg.Node:
    """Rebuild the full l x d prompt from the factors.

    verbatim: C = M I = U diag(Q^2) V^T, the composition as written.
    balanced: sqrt(Q) on each side, C = U diag(Q) V^T; requires Q >= 0.
    """
    lv = _as_leaves(x)
    if mode == "verbatim":
        return compressed_outer_product(aggregate_m(lv), aggregate_i(lv))
    if mode == "balanced":
        if np.any(lv.q.value < 0.0):
            raise ValueError("balanced reconstruction requires non-negative Q")
        root = eg.sqrt(lv.q)
        m = eg.matmul(lv.u, eg.diag(root))
        i = eg.matmul(eg.diag(root), eg.transpose(lv.v))
        return compressed_outer_product(m, i)
    raise ValueError(f"unknown reconstruction mode {mode!r}, expected one of {RECONSTRUCT_MODES}")


def average_pool(c: eg.Node, p: int) -> eg.Node:
    """Mean over consecutive blocks of p rows; p = 1 is the identity."""
    return eg.block_row_mean(c, p)


def self_attention_pool(c: eg.Node, w_sa) -> eg.Node:
    """Pool by learned attention: K = C W_sa, each column of K softmaxed
    over the token axis, output rows A^T C are convex mixes of tokens."""
    w = w_sa if isinstance(w_sa, eg.Node) else eg.constant(w_sa)
    k = eg.matmul(c, w)
    a_t = eg.softmax(eg.transpose(k))  # (l/p, l), rows sum to 1
    return eg.matmul(a_t, c)


def apply_pool(c: eg.Node, pool: PoolConfig, w_sa=None) -> eg.Node:
    l = c.value.shape[0]
    pool.validate_for_length(l)
    if pool.mode == "none":
        return c
    if pool.mode == "average":
        return average_pool(c, pool.p)
    if w_sa is None:
        raise ValueError("self-attention pooling needs its weight matrix")
    return self_attention_pool(c, w_sa)


def init_self_attn_pool(d: int, l: int, p: int, seed: int) -> SelfAttnPoolParams:
    if l % p != 0:
        raise ValueError(f"pooling block p={p} does not divide prompt length l={l}")
    rng = np.random.default_rng(seed)
    return SelfAttnPoolParams(w_sa=0.02 * rng.standard_normal((d, l // p)))


def lamp_param_count(l: int, d: int, r: int) -> int:
    if min(l, d, r) < 1:
        raise ValueError(f"counts must be positive, got l={l} d={d} r={r}")
    return l * r + r + r * d


def vanilla_pt_param_count(l: int, d: int) -> int:
    if min(l, d) < 1:
        raise ValueError(f"counts must be positive, got l={l} d={d}")
    return l * d


_POOL_BYTE = {"none": 0, "average": 1, "self-attention": 2}
_BYTE_POOL = {v: k for k, v in _POOL_BYTE.items()}
_MODE_BYTE = {"verbatim": 0, "balanced": 1}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}


def save_checkpoint(path, dp: DecomposedPrompt, mode: str = "verbatim", pool: PoolConfig = PoolConfig()) -> None:
    """Binary little-endian prompt checkpoint, written atomically."""
    if mode not in _MODE_BYTE:
        raise ValueError(f"unknown reconstruction mode {mode!r}")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<IIII", CHECKPOINT_VERSION, dp.l, dp.d, dp.r)
    blob += dp.u.astype("<f8").tobytes(order="C")
    blob += dp.q.astype("<f8").tobytes(order="C")
    blob += dp.v.astype("<f8").tobytes(order="C")
    blob += struct.pack("<BBI", _MODE_BYTE[mode], _POOL_BYTE[pool.mode], pool.p)
    write_atomic(path, bytes(blob))


def load_checkpoint(path) -> tuple[DecomposedPrompt, str, PoolConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {blob[:4]!r}")
    version, l, d, r = struct.unpack_from("<IIII", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = 20
    need = off + 8 * (l * r + r + d * r) + 6
    if len(blob) != need:
        raise ValueError(f"checkpoint is {len(blob)} bytes, expected {need}")
    u = np.frombuffer(blob, dtype="<f8", count=l * r, offset=off).reshape(l, r).copy()
    off += 8 * l * r
    q = np.frombuffer(blob, dtype="<f8", count=r, offset=off).copy()
    off += 8 * r
    v = np.frombuffer(blob, dtype="<f8", count=d * r, offset=off).reshape(d, r).copy()
    off += 8 * d * r
    mode_b, pool_b = struct.unpack_from("<BB", blob, off)
    p = struct.unpack_from("<I", blob, off + 2)[0]
    if mode_b not in _BYTE_MODE or pool_b not in _BYTE_POOL:
        raise ValueError(f"unknown mode bytes ({mode_b}, {pool_b}) in checkpoint")
    dp = DecomposedPrompt(u=u, q=q, v=v)
    return dp, _BYTE_MODE[mode_b], PoolConfig(mode=_BYTE_POOL[pool_b], p=p)

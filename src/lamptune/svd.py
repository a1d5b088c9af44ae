"""Singular value decomposition by one-sided Jacobi rotations.

The factorization runs once at prompt initialization and is never
differentiated through, so clarity and determinism win over speed.
Columns of the working matrix are orthogonalized pairwise; pairs are
scheduled with a round-robin tournament so every round touches disjoint
columns and can be rotated in one vectorized step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdResult", "svd", "truncate"]

SWEEP_CAP = 60
# a column pair counts as orthogonal when |<bp, bq>| <= ORTH_TOL * |bp| |bq|
ORTH_TOL = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(s) @ v.T with k = min(rows, cols) columns."""

    u: np.ndarray  # (rows, k)
    s: np.ndarray  # (k,) non-negative, non-increasing
    v: np.ndarray  # (cols, k)


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: each round pairs disjoint columns, all C(n,2)
    pairs appear exactly once across the rounds of one sweep."""
    m = n if n % 2 == 0 else n + 1  # odd n gets a bye slot
    players = list(range(m))
    rounds = []
    for _ in range(max(m - 1, 0)):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps, dtype=np.int64), np.asarray(qs, dtype=np.int64)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def _one_sided_jacobi(b: np.ndarray) -> tuple[np.ndarray, int]:
    """Rotate column pairs of ``b`` in place until all are mutually
    orthogonal; returns the accumulated right-rotation product and the
    number of sweeps run."""
    n = b.shape[1]
    v = np.eye(n)
    rounds = _round_robin_rounds(n)
    # a column with squared norm at most (eps |b|_F)^2 is round-off left
    # in a null direction; it would never pass the relative test, so a
    # pair holding one is not rotated and rank-deficient input converges
    floor = (np.finfo(np.float64).eps ** 2) * np.einsum("ij,ij->", b, b)
    for sweeps in range(1, SWEEP_CAP + 1):
        rotated = False
        for ps, qs in rounds:
            if ps.size == 0:
                continue
            bp = b[:, ps]
            bq = b[:, qs]
            alpha = np.einsum("ij,ij->j", bp, bp)
            beta = np.einsum("ij,ij->j", bq, bq)
            gamma = np.einsum("ij,ij->j", bp, bq)
            need = (np.abs(gamma) > ORTH_TOL * np.sqrt(alpha * beta)) & (np.minimum(alpha, beta) > floor)
            if not np.any(need):
                continue
            idx = np.nonzero(need)[0]
            g = gamma[idx]
            with np.errstate(over="ignore", divide="ignore"):
                zeta = (beta[idx] - alpha[idx]) / (2.0 * g)
                # Rutishauser: smaller root of t^2 + 2*zeta*t - 1 = 0;
                # for huge |zeta| the exact form overflows, use t ~ 1/(2 zeta)
                t = np.where(
                    zeta == 0.0,
                    1.0,
                    np.where(
                        np.abs(zeta) > 1e150,
                        0.5 / zeta,
                        np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
                    ),
                )
            finite = np.isfinite(t) & (t != 0.0)
            if not np.any(finite):
                continue
            idx = idx[finite]
            t = t[finite]
            rotated = True
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            pi, qi = ps[idx], qs[idx]
            bp, bq = b[:, pi], b[:, qi]
            b[:, pi] = c * bp - s * bq
            b[:, qi] = s * bp + c * bq
            vp, vq = v[:, pi], v[:, qi]
            v[:, pi] = c * vp - s * vq
            v[:, qi] = s * vp + c * vq
        if not rotated:
            break
    return v, sweeps


def _fill_null_columns(u: np.ndarray, start: int) -> None:
    """Complete columns ``start:`` of ``u`` to an orthonormal set using
    standard basis vectors, chosen by largest residual for determinism."""
    rows = u.shape[0]
    for j in range(start, u.shape[1]):
        prev = u[:, :j]
        resid_sq = 1.0 - np.einsum("ij,ij->i", prev, prev)
        pick = int(np.argmax(resid_sq))
        cand = np.zeros(rows)
        cand[pick] = 1.0
        for _ in range(2):  # twice is enough for orthogonality at round-off
            cand -= prev @ (prev.T @ cand)
        u[:, j] = cand / np.linalg.norm(cand)


def _svd_tall(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = a.shape
    b = a.copy()
    vacc, _ = _one_sided_jacobi(b)
    norms = np.sqrt(np.einsum("ij,ij->j", b, b))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    u = b[:, order]
    v = vacc[:, order]
    cutoff = cols * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    keep = int(np.searchsorted(-s, -cutoff, side="left"))
    u[:, :keep] /= s[:keep]
    _fill_null_columns(u, keep)
    return u, s, v


def svd(a) -> SvdResult:
    """Thin SVD with singular values sorted descending (stable under ties)
    and the largest-magnitude entry of each left column made non-negative."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"svd expects a non-empty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("svd: input contains non-finite entries")
    rows, cols = a.shape
    if rows >= cols:
        u, s, v = _svd_tall(a)
    else:
        ut, st, vt = _svd_tall(np.ascontiguousarray(a.T))
        u, s, v = vt, st, ut
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(s.shape[0])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdResult(u=u, s=s, v=v)


def truncate(res: SvdResult, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading-r factors (U_r: l x r, Q_r: r, V_r: d x r) of a thin SVD.

    The discarded tail never re-enters training or inference.
    """
    k = res.s.shape[0]
    if not 1 <= r <= k:
        raise ValueError(f"truncate: rank r={r} outside [1, {k}]")
    return res.u[:, :r].copy(), res.s[:r].copy(), res.v[:, :r].copy()

"""SVD against the two-sided Jacobi eigen oracle and algebraic invariants."""

import numpy as np
import pytest

from lamptune.svd import SWEEP_CAP, SvdResult, _one_sided_jacobi, svd, truncate

from oracles import svd_via_gram

RNG = np.random.default_rng(11)


def rel_fro(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def check_factorization(a, res: SvdResult, tol=1e-8):
    k = min(a.shape)
    assert res.s.shape == (k,)
    assert np.all(res.s >= 0)
    assert np.all(np.diff(res.s) <= 0), "singular values not descending"
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), atol=tol)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(k), atol=tol)
    assert rel_fro(res.u @ np.diag(res.s) @ res.v.T, a) < tol or np.linalg.norm(a) == 0


def test_identity_four():
    res = svd(np.eye(4))
    np.testing.assert_array_equal(res.s, np.ones(4))
    np.testing.assert_array_equal(res.u, np.eye(4))
    np.testing.assert_array_equal(res.v, np.eye(4))


def test_diagonal_two():
    res = svd(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(res.s, [3.0, 2.0])
    # signed permutation of the identity
    np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-14)


def test_values_match_gram_eigen_oracle():
    a = RNG.standard_normal((100, 64))
    res = svd(a)
    want = svd_via_gram(a)
    np.testing.assert_allclose(res.s, want, atol=1e-8)


@pytest.mark.parametrize("shape", [(6, 6), (20, 7), (7, 20), (1, 9), (9, 1), (128, 40)])
def test_factorization_invariants(shape):
    a = RNG.standard_normal(shape)
    check_factorization(a, svd(a))


def test_wide_matrix_transposed_consistency():
    a = RNG.standard_normal((8, 30))
    np.testing.assert_allclose(svd(a).s, svd(a.T).s, atol=1e-10)


def test_rank_deficient_columns_completed():
    a = RNG.standard_normal((12, 3)) @ RNG.standard_normal((3, 8))
    res = svd(a)
    assert np.all(res.s[3:] <= 1e-10 * res.s[0])
    check_factorization(a, res)


def test_rank_deficient_prompt_converges_well_under_sweep_cap():
    # prompt-shaped: 100 rows drawn from 16 vocabulary rows, so rank 16;
    # the 48 null columns must not keep the sweeps running to the cap
    a = RNG.standard_normal((16, 64))[RNG.integers(0, 16, size=100)]
    _, sweeps = _one_sided_jacobi(a.copy())
    assert sweeps <= 15 < SWEEP_CAP
    res = svd(a)
    assert np.all(res.s[16:] <= 1e-12 * res.s[0])
    check_factorization(a, res)


def test_zero_matrix():
    res = svd(np.zeros((5, 3)))
    np.testing.assert_array_equal(res.s, np.zeros(3))
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-14)


def test_equal_singular_values_tie_order_stable():
    res = svd(2.0 * np.eye(5))
    np.testing.assert_array_equal(res.s, 2.0 * np.ones(5))
    np.testing.assert_array_equal(res.u, np.eye(5))


def test_sign_convention_largest_entry_nonnegative():
    for _ in range(10):
        a = RNG.standard_normal((15, 9))
        res = svd(a)
        peaks = res.u[np.argmax(np.abs(res.u), axis=0), np.arange(9)]
        assert np.all(peaks >= 0)


def test_determinism_bit_identical():
    a = RNG.standard_normal((40, 25))
    r1, r2 = svd(a), svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.v, r2.v)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        svd(np.array([[np.inf], [0.0]]))


def test_truncate_full_rank_is_identity():
    a = RNG.standard_normal((10, 6))
    res = svd(a)
    u, q, v = truncate(res, 6)
    assert rel_fro(u @ np.diag(q) @ v.T, a) < 1e-8


def test_truncate_diagonal():
    _, q, _ = truncate(svd(np.diag([3.0, 2.0, 1.0])), 1)
    np.testing.assert_allclose(q, [3.0])


def test_truncate_tail_energy_identity():
    a = RNG.standard_normal((100, 512))
    res = svd(a)
    u, q, v = truncate(res, 8)
    err_sq = np.linalg.norm(a - u @ np.diag(q) @ v.T) ** 2
    tail = float(np.sum(res.s[8:] ** 2))
    assert abs(err_sq - tail) / tail < 1e-8


def test_truncate_range_checks():
    res = svd(RNG.standard_normal((5, 4)))
    with pytest.raises(ValueError):
        truncate(res, 0)
    with pytest.raises(ValueError):
        truncate(res, 5)


def test_eckart_young_beats_random_factorizations():
    # truncated SVD error must not exceed any random rank-r factorization
    for trial in range(5):
        a = RNG.standard_normal((20, 12))
        res = svd(a)
        for r in (1, 2, 4):
            u, q, v = truncate(res, r)
            best = np.linalg.norm(a - u @ np.diag(q) @ v.T)
            for _ in range(100):
                f = RNG.standard_normal((20, r))
                g = RNG.standard_normal((r, 12))
                assert best <= np.linalg.norm(a - f @ g) + 1e-12

"""Polynomial and matrix primitives, Perron normalization."""

import math
import time

import numpy as np
import pytest

from nonnegcone.core import (
    BeyondFloatRange,
    NonPositiveInput,
    Polynomial,
    eval_matrix,
    eval_scalar,
    min_entry,
    perron_normalize,
    sample_stochastic,
)


def test_eval_scalar_examples():
    p = Polynomial([1.0, -2.0, 1.0])
    assert eval_scalar(p, 1.0) == 0.0
    assert eval_scalar(Polynomial([0.0]), 3.7) == 0.0
    q = Polynomial([1.0, 1.0, -2.0, 0.0, 1.0, 1.0])
    assert eval_scalar(q, 2.0) == pytest.approx(43.0, abs=1e-12)


def test_degree_and_trim():
    assert Polynomial([0.0, 0.0]).degree() == -1
    assert Polynomial([1.0, 0.0, 2.0, 0.0]).degree() == 2
    assert Polynomial([1.0, 0.0, 2.0, 0.0]).trimmed().coeffs == (1.0, 0.0, 2.0)
    assert Polynomial([]).coeffs == (0.0,)


def test_arithmetic_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = Polynomial(rng.normal(size=rng.integers(1, 6)))
        b = Polynomial(rng.normal(size=rng.integers(1, 6)))
        x = float(rng.uniform(-2.0, 2.0))
        assert eval_scalar(a + b, x) == pytest.approx(
            eval_scalar(a, x) + eval_scalar(b, x), abs=1e-10)
        assert eval_scalar(a * b, x) == pytest.approx(
            eval_scalar(a, x) * eval_scalar(b, x), rel=1e-10, abs=1e-10)


def test_eval_matrix_identity_and_ones():
    p = Polynomial([2.0, 0.0, 1.0])      # 2 + x^2
    out = eval_matrix(p, np.eye(3))
    assert np.allclose(out, 3.0 * np.eye(3), atol=1e-14)
    # ones(2) squares to 2*ones(2)
    out = eval_matrix(Polynomial([0.0, 0.0, 1.0]), np.ones((2, 2)))
    assert np.allclose(out, 2.0 * np.ones((2, 2)), atol=1e-14)


def test_eval_matrix_idempotent_example():
    # a is idempotent, so p(a) = p0 * I + (sum of higher coeffs) * a
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    p = Polynomial([1.0, 1.0, -2.0, 0.0, 1.0, 1.0])
    out = eval_matrix(p, a)
    assert np.allclose(out, np.array([[1.5, 0.5], [0.5, 1.5]]), atol=1e-12)


def test_eval_matrix_matches_eigendecomposition():
    rng = np.random.default_rng(11)
    p = Polynomial([1.0, -3.0, 0.0, 2.0])
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.1, 2.0, size=(n, n))
        w, v = np.linalg.eig(a)
        expect = (v @ np.diag([eval_scalar(p, z) for z in w]) @
                  np.linalg.inv(v)).real
        assert np.allclose(eval_matrix(p, a), expect, atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacks_match_single_matrices_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    # entries up to 1e80, so that high powers overflow to inf and NaN
    a = rng.uniform(0.0, 2.0, size=(6, 50, n, n)) * \
        10.0 ** rng.integers(-3, 80, size=(6, 50, 1, 1))
    for deg in range(6):
        p = Polynomial(rng.normal(size=deg + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            out = eval_matrix(p, a)
        vals, i, j = min_entry(out)
        assert out.shape == a.shape and vals.shape == i.shape == (6, 50)
        for idx in np.ndindex(6, 50):
            with np.errstate(over="ignore", invalid="ignore"):
                one = eval_matrix(p, a[idx])
            assert one.shape == (n, n)
            assert out[idx].tobytes() == one.tobytes()
            val, i1, j1 = min_entry(one)
            assert np.float64(val).tobytes() == vals[idx].tobytes()
            assert (i1, j1) == (i[idx], j[idx])
    # one coefficient row per matrix: degrees 0-5 zero-padded at the top,
    # and about a third of the coefficients below the top zero
    deg = rng.integers(0, 6, size=(6, 50))
    rows = rng.normal(size=(6, 50, 6)) * (rng.random((6, 50, 6)) < 0.7)
    rows[np.arange(6) > deg[..., None]] = 0.0
    for coeffs in (rows, rows[:, :1]):      # the second broadcasts over axis 1
        with np.errstate(over="ignore", invalid="ignore"):
            out = eval_matrix(coeffs, a)
        assert out.shape == a.shape
        for idx in np.ndindex(6, 50):
            r = idx if coeffs.shape[1] > 1 else (idx[0], 0)
            p = Polynomial(rows[r][: deg[r] + 1])
            with np.errstate(over="ignore", invalid="ignore"):
                one = eval_matrix(p, a[idx])
            assert out[idx].tobytes() == one.tobytes()


def test_min_entry_first_position():
    m = np.array([[3.0, -1.0], [-1.0, 0.0]])
    val, i, j = min_entry(m)
    assert val == -1.0 and (i, j) == (0, 1)
    val, i, j = min_entry(np.array([[5.0]]))
    assert val == 5.0 and (i, j) == (0, 0)


def test_perron_constant_matrix():
    dec = perron_normalize(np.ones((3, 3)))
    assert dec.rho == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(dec.s, np.ones((3, 3)) / 3.0, atol=1e-12)


def test_perron_known_eigenvalue():
    # dominant eigenvalue of [[1,2],[3,4]] is (5 + sqrt(33)) / 2
    dec = perron_normalize(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert dec.rho == pytest.approx(5.372281323269014, rel=1e-12)


def test_perron_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        perron_normalize(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(NonPositiveInput):
        perron_normalize(np.array([[1.0, -2.0], [1.0, 1.0]]))


def test_perron_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.05, 5.0, size=(n, n))
        dec = perron_normalize(a)
        rows = dec.s.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
        assert np.all(dec.s > 0.0) and np.all(dec.d > 0.0) and dec.rho > 0.0
        back = dec.reconstruct()
        assert np.max(np.abs(back - a)) <= 1e-10 * np.max(np.abs(a))


def test_perron_near_the_float_range():
    # 0.5 (hi + lo) used to overflow although rho fits in a float
    dec = perron_normalize(np.array([[1e308, 1.0], [1.0, 1.0]]))
    assert dec.rho == pytest.approx(1e308, rel=1e-12)
    assert np.all(np.isfinite(dec.s)) and np.all(dec.d > 0.0)
    assert np.max(np.abs(dec.s.sum(axis=1) - 1.0)) <= 1e-12
    # rank one, rho = 9e307 + 1
    dec = perron_normalize(np.array([[9e307, 9e307], [1.0, 1.0]]))
    assert dec.rho == pytest.approx(9e307, rel=1e-12)
    assert np.max(np.abs(dec.s.sum(axis=1) - 1.0)) <= 1e-12
    with pytest.raises(BeyondFloatRange):
        perron_normalize(np.full((2, 2), 1e308))


@pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
def test_perron_power_of_two_scaling_changes_no_bit(k):
    # scaling a by 2^k scales rho by 2^k and leaves s and d as they are
    rng = np.random.default_rng(k % 97)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.05, 5.0, size=(n, n))
        dec, big = perron_normalize(a), perron_normalize(np.ldexp(a, k))
        assert big.rho == np.ldexp(dec.rho, k)
        assert big.s.tobytes() == dec.s.tobytes()
        assert big.d.tobytes() == dec.d.tobytes()


def _power_iteration(a):
    """Reference: the plain power iteration, capped at 100 n steps, that
    perron_normalize runs first; (rho, s, d), or None where it stalls."""
    n = a.shape[0]
    e = math.frexp(float(a.max()))[1]
    scaled = np.ldexp(a, -e)
    v = np.ones(n)
    for _ in range(100 * n):
        w = scaled @ v
        ratios = w / v
        hi, lo = float(ratios.max()), float(ratios.min())
        if hi - lo <= 1e-12 * hi:
            rho = math.ldexp(0.5 * (hi + lo), e)
            return rho, (a * v[None, :]) / (rho * v[:, None]), v
        v = w / w.sum()
    return None


def _assert_perron_pair(a, dec):
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    assert dec.rho == pytest.approx(rho, rel=1e-10)
    assert np.all(dec.s > 0.0) and np.all(dec.d > 0.0)
    assert np.max(np.abs(dec.s.sum(axis=1) - 1.0)) <= 1e-12


def test_perron_close_second_eigenvalue():
    # eigenvalues 4.98 and 4.48: 100 n power steps stop short of the target
    a = np.array([[4.573602132788537, 0.16389052227603035],
                  [0.22849918305669964, 4.887750447262916]])
    assert _power_iteration(a) is None
    _assert_perron_pair(a, perron_normalize(a))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
def test_perron_nearly_reducible_in_bounded_time(eps):
    # eigenvalues 1 +- sqrt(2) eps: power iteration gains a factor of about
    # 1 - 2.8 eps per step
    a = np.array([[1.0, eps], [2 * eps, 1.0]])
    t0 = time.perf_counter()
    dec = perron_normalize(a)
    assert time.perf_counter() - t0 < 0.5
    assert dec.rho == pytest.approx(1 + math.sqrt(2) * eps, rel=1e-12)
    assert np.max(np.abs(dec.s.sum(axis=1) - 1.0)) <= 1e-12


def test_perron_keeps_the_power_iterates_and_converges_past_them():
    # where 100 n power steps converge, every bit is theirs; elsewhere the
    # shifted inverse steps reach the Perron pair
    rng = np.random.default_rng(41)
    stalled = 0
    for t in range(300):
        n = int(rng.integers(2, 7))
        if t % 2:
            a = rng.uniform(0.05, 5.0, size=(n, n))
        else:  # close to diagonal: a second eigenvalue close to rho
            a = np.diag(rng.uniform(1.0, 1.2, n)) + \
                rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** -rng.uniform(1, 12)
        dec, ref = perron_normalize(a), _power_iteration(a)
        if ref is None:
            stalled += 1
            _assert_perron_pair(a, dec)
        else:
            assert dec.rho == ref[0]
            assert dec.s.tobytes() == ref[1].tobytes()
            assert dec.d.tobytes() == ref[2].tobytes()
    assert stalled > 25


def test_sample_stochastic_rows():
    rng = np.random.default_rng(5)
    for conc in (0.05, 0.3, 1.0):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = sample_stochastic(n, rng, concentration=conc)
            assert s.shape == (n, n)
            assert np.all(s > 0.0)
            assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)


def test_polynomial_json_roundtrip():
    p = Polynomial([1.0, 0.5, 0.0, -2.0])
    assert Polynomial(p.to_list()) == p


def test_eval_linearity_invariant():
    rng = np.random.default_rng(91)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        deg = int(rng.integers(1, 7))
        p = Polynomial(rng.normal(size=deg + 1))
        q = Polynomial(rng.normal(size=deg + 1))
        a = rng.uniform(0.1, 1.5, size=(n, n))
        lhs = eval_matrix(p + q, a)
        rhs = eval_matrix(p, a) + eval_matrix(q, a)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_eval_multiplicativity_invariant():
    rng = np.random.default_rng(92)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        p = Polynomial(rng.normal(size=int(rng.integers(1, 6))))
        q = Polynomial(rng.normal(size=int(rng.integers(1, 6))))
        a = rng.uniform(0.1, 1.5, size=(n, n))
        lhs = eval_matrix(p * q, a)
        rhs = eval_matrix(p, a) @ eval_matrix(q, a)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

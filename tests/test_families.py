"""Family constructors, coefficient bookkeeping, projection gap."""

import numpy as np
import pytest

from nonnegcone.core import Polynomial, eval_scalar
from nonnegcone.exact import RationalPolynomial, is_nonneg_on_halfline
from nonnegcone.families import (
    Alpha,
    ConjectureGap,
    InvalidSpec,
    LoewyGeneral,
    alpha_family,
    build,
    conjecture_family,
    family_with_t,
    loewy_general,
    necessary_conditions,
    projection_gap_example,
    spec_from_json_dict,
    spec_to_json_dict,
    split_alpha,
)
from nonnegcone.membership import Refuted, SearchConfig, refute

CFG = SearchConfig(restarts=6, max_iters=120, seed=11)


def test_loewy_shapes():
    assert list(loewy_general(2, 2, 0, 2.0).coeffs) == [1, 1, -2, 1, 1]
    assert list(loewy_general(1, 1, 0, 2.0).coeffs) == [1, -2, 1]
    assert list(loewy_general(2, 3, 1, 2.0).coeffs) == [0, 1, 1, -2, 1, 1]
    assert list(loewy_general(3, 5, 2, 1.5).coeffs) == \
        [0, 0, 1, 1, 1, -1.5, 1, 1, 1]


def test_loewy_structure_grid():
    for n in range(1, 4):
        for m in range(n, 6):
            for s in range(0, m - n + 1):
                p = loewy_general(n, m, s, 2.0)
                c = list(p.coeffs)
                assert p.degree() == 2 * m - s
                assert c[m] == -2.0
                ones = [d for d, v in enumerate(c) if v == 1.0]
                assert ones == list(range(s, s + n)) + \
                    list(range(2 * m - s - n + 1, 2 * m - s + 1))
                assert sum(c) == 2 * n - 2.0


def test_loewy_scalar_members_are_squares():
    # n = 1 members at t = 2 are x^s (1 - x^(m-s))^2
    for m in range(1, 6):
        for s in range(0, m):
            p = loewy_general(1, m, s, 2.0)
            for x in np.linspace(0.0, 2.0, 11):
                ref = x ** s * (1.0 - x ** (m - s)) ** 2
                assert eval_scalar(p, x) == pytest.approx(ref, abs=1e-9)
            assert is_nonneg_on_halfline(RationalPolynomial.from_polynomial(p))


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        loewy_general(2, 1, 0, 2.0)
    with pytest.raises(InvalidSpec):
        loewy_general(2, 3, 2, 2.0)
    with pytest.raises(InvalidSpec):
        alpha_family(2, 0.0)
    with pytest.raises(InvalidSpec):
        alpha_family(0, 1.0)
    with pytest.raises(InvalidSpec):
        conjecture_family(2, 2, 2, 1.0)
    with pytest.raises(InvalidSpec):
        projection_gap_example(2, 3, CFG)
    # non-finite weights, and degrees past the dense-list cap
    for t in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpec):
            loewy_general(2, 2, 0, t)
        with pytest.raises(InvalidSpec):
            conjecture_family(1, 1, 2, -t)
        with pytest.raises(InvalidSpec):
            alpha_family(2, t)
    assert loewy_general(1, 500, 0, 2.0).degree() == 1000
    with pytest.raises(InvalidSpec):
        loewy_general(1, 501, 0, 2.0)
    with pytest.raises(InvalidSpec):
        alpha_family(2, 1e308)


def test_alpha_shapes():
    assert list(alpha_family(2, 4.0).coeffs) == \
        [1, 1, 1, 1, -4, 1, 1, 1, 1]
    assert list(alpha_family(1, 2.0).coeffs) == [1, -2, 1]
    assert list(alpha_family(3, 0.5).coeffs) == [1, 1, 1, -0.5, 1, 1, 1]


def test_split_alpha_examples():
    blocks, slack = split_alpha(2, 4.0)
    assert len(blocks) == 2 and slack.is_zero()
    blocks, slack = split_alpha(1, 2.0)
    assert len(blocks) == 1 and slack.is_zero()
    blocks, slack = split_alpha(2, 3.0)
    assert len(blocks) == 2
    assert list(slack.coeffs) == [0, 0, 0, 0, 1.0]


def test_split_alpha_reconstruction_exact():
    for n in (1, 2, 3, 4):
        for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            blocks, slack = split_alpha(n, alpha)
            total = slack
            for b in blocks:
                total = total + b
            assert total.trimmed() == alpha_family(n, alpha).trimmed()


def test_split_alpha_block_structure():
    # every block: n ones below the center, -2 at the center, n ones above
    for n in (1, 2, 3):
        for alpha in (1.0, 2.5, 4.0):
            blocks, _ = split_alpha(n, alpha)
            m = n * len(blocks)
            for b in blocks:
                c = list(b.coeffs)
                assert c[m] == -2.0
                low = [d for d in range(m) if c[d] != 0]
                high = [d for d in range(m + 1, len(c)) if c[d] != 0]
                assert len(low) == n and len(high) == n
                assert all(c[d] == 1.0 for d in low + high)


def test_conjecture_shapes():
    assert list(conjecture_family(2, 2, 5, 1.0).coeffs) == \
        [1, 1, -1, 0, 0, 1, 1]
    assert list(conjecture_family(1, 1, 2, 1.0).coeffs) == [1, -1, 1]
    p = conjecture_family(1, 1, 2, 2.5)
    assert not is_nonneg_on_halfline(RationalPolynomial.from_polynomial(p))
    assert is_nonneg_on_halfline(
        RationalPolynomial.from_polynomial(conjecture_family(1, 1, 2, 1.0)))


def test_necessary_conditions():
    out = necessary_conditions(Polynomial([0, 0, 0, -1.0, 1.0]), 2)
    assert ("high_coeff", 3) in out
    out = necessary_conditions(Polynomial([1, 1, -2.0, 0, 1, 1]), 2)
    assert not any(k in ("low_coeff", "high_coeff") for k, _ in out)
    out = necessary_conditions(Polynomial([-1.0]), 3)
    assert ("low_coeff", 0) in out and ("high_coeff", 0) in out
    assert ("halfline", None) in out
    # p' < 0 somewhere on (0, infinity): no member of an n >= 2 cone
    assert ("monotone", None) in necessary_conditions(
        loewy_general(2, 3, 0, 2.0), 2)
    assert ("monotone", None) not in necessary_conditions(
        loewy_general(2, 3, 0, 2.0), 1)
    assert necessary_conditions(loewy_general(2, 2, 0, 2.0), 2) == []


def test_spec_json_roundtrip():
    for spec in (LoewyGeneral(2, 3, 1, 2.0), Alpha(3, 0.5),
                 ConjectureGap(2, 2, 5, 1.0)):
        d = spec_to_json_dict(spec)
        assert spec_from_json_dict(d) == spec
        assert build(spec).coeffs == build(spec_from_json_dict(d)).coeffs


def test_family_with_t():
    spec = LoewyGeneral(2, 2, 0, 2.0)
    assert list(family_with_t(spec, 1.5).coeffs) == [1, 1, -1.5, 1, 1]
    assert all(c >= 0 for c in family_with_t(spec, 0.0).coeffs)
    spec = Alpha(2, 3.0)
    assert all(c >= 0 for c in family_with_t(spec, 0.0).coeffs)
    assert family_with_t(spec, 3.0).coeffs == alpha_family(2, 3.0).coeffs


def test_projection_gap_scalar():
    for k in range(2, 7):
        p = projection_gap_example(1, k, CFG)
        c = list(p.coeffs)
        assert c[k - 1] == 1.0 and c[k] == -2.0
        assert sum(abs(v) for v in c) == 3.0
        q = RationalPolynomial.from_polynomial(p)
        assert not is_nonneg_on_halfline(q)
        lift = Polynomial(c + [0.0]) + Polynomial([0.0] * (k + 1) + [1.0])
        assert is_nonneg_on_halfline(RationalPolynomial.from_polynomial(lift))


def test_projection_gap_matrix():
    p = projection_gap_example(2, 4, CFG)
    assert p is not None
    assert p.degree() == 4
    assert isinstance(refute(p, 2, CFG), Refuted)
    # the completion (top coefficient restored) is a shifted t = 2 member
    completed = Polynomial(list(p.coeffs) + [1.0])
    shifted = Polynomial([0.0] + list(loewy_general(2, 2, 0, 2.0).coeffs))
    assert completed.coeffs == shifted.coeffs


def test_family_membership_small():
    assert not isinstance(refute(loewy_general(2, 2, 0, 2.0), 2, CFG), Refuted)
    assert isinstance(refute(loewy_general(2, 2, 0, 2.1), 2, CFG), Refuted)
    assert not isinstance(refute(alpha_family(2, 3.0), 2, CFG), Refuted)

"""The Loewy certificate: members of the order-n cone proved from
L_n = loewy_general(n, n, 0, 2), re-checked here in Fractions."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonnegcone import exact, membership, volume
from nonnegcone.core import Polynomial
from nonnegcone.families import LoewyGeneral, loewy_general
from nonnegcone.membership import Refuted, SearchConfig, _search, max_t, refute
from nonnegcone.volume import STAGES, _ball_chunks, estimate_cone_fraction

LOEWY_CONE = STAGES.index("loewy_cone")


def _loewy_row(n: int) -> list:
    """L_n from its formula: 1 + ... + x^(n-1) - 2 x^n + x^(n+1) + ... +
    x^(2n), lowest degree first."""
    return [Fraction(1)] * n + [Fraction(-2)] + [Fraction(1)] * n


def _assert_certifies(coeffs, n: int, cert) -> None:
    """cert = (j, a, lam) leaves p - lam x^j L_n(a x) with no negative
    coefficient, computed without the exact module."""
    j, a, lam = cert
    assert isinstance(j, int) and j >= 0
    assert isinstance(a, Fraction) and a > 0
    assert isinstance(lam, Fraction) and lam >= 0
    rest = [Fraction(c) for c in coeffs]
    for i, c in enumerate(_loewy_row(n)):
        rest[j + i] -= lam * c * a ** i
    assert min(rest) >= 0, (coeffs, cert)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_premise_is_the_paper_family(n):
    # the polynomial whose membership the certificate assumes
    assert [Fraction(c) for c in loewy_general(n, n, 0, 2.0).coeffs] == \
        _loewy_row(n)


@pytest.mark.parametrize("n,m,s", [(3, 3, 0), (3, 4, 1), (3, 5, 2),
                                   (4, 4, 0), (4, 6, 2)])
def test_shifted_loewy_members_are_certified_at_a_one(n, m, s):
    # s = m - n: x^(m - n) L_n, the families' sharp threshold t = 2
    p = loewy_general(n, m, s, 2.0)
    cert = exact.loewy_certificate(p, n)
    assert cert == (m - n, 1, 1)
    _assert_certifies(p.coeffs, n, cert)
    # above t = 2 no triple covers the centre: a^n min_i c_i / a^i <= 1
    assert exact.loewy_certificate(loewy_general(n, m, s, 2.0001), n) is None


@pytest.mark.parametrize("case", [(3, 4, 0), (3, 5, 0), (3, 5, 1)])
def test_gapped_loewy_members_are_not_certified(case):
    # zeros inside the window force lam = 0
    assert exact.loewy_certificate(loewy_general(*case, 2.0), case[0]) is None


def test_certificate_shapes():
    cert = exact.loewy_certificate
    assert cert(Polynomial([1.0, 0.0, 2.0]), 3) == (0, 1, 0)
    # two negative coefficients, a window past either end
    assert cert(Polynomial([1, 1, 1, -1, 1, 1, -1, 1]), 3) is None
    assert cert(Polynomial([1, 1, -1, 1, 1, 1, 1]), 3) is None
    assert cert(Polynomial([1, 1, 1, 1, -1, 1, 1]), 3) is None
    # L_3(x / 2) and 5 x L_3(2 x) scaled into the coefficients
    for a, j, lam in [(Fraction(1, 2), 0, Fraction(1)),
                      (Fraction(2), 1, Fraction(5))]:
        row = [Fraction(0)] * j + [lam * c * a ** i
                                   for i, c in enumerate(_loewy_row(3))]
        p = Polynomial([float(c) for c in row])
        got = cert(p, 3)
        assert got is not None and got[0] == j
        _assert_certifies(p.coeffs, 3, got)
    # rational coefficients take the same path; beyond the float range the
    # scan proposes nothing
    q = exact.RationalPolynomial([1, 1, 1, Fraction(-19, 10), 1, 1, 1])
    _assert_certifies(q.coeffs, 3, cert(q, 3))
    assert cert(exact.RationalPolynomial([10 ** 400, 1, 1, -1, 1, 1, 1]),
                3) is None
    assert cert(exact.RationalPolynomial([1, 1, 1, -10 ** 400, 1, 1, 1]),
                3) is None


@pytest.mark.parametrize("n,k,least", [(3, 6, 10), (3, 7, 10), (4, 8, 1)])
def test_every_sampled_certificate_rechecks(n, k, least):
    # every row of the first chunk with one negative coefficient
    _, rows = next(_ball_chunks(k + 1, 4096, 1))
    certified = 0
    for r in rows[(rows < 0).sum(axis=1) == 1].tolist():
        cert = exact.loewy_certificate(Polynomial(r), n)
        if cert is not None:
            _assert_certifies(r, n, cert)
            certified += 1
    assert certified >= least


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.sampled_from([3, 4]), j=st.integers(0, 2),
       a=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
       lam=st.sampled_from([0.5, 1.0, 3.0]),
       slack=st.lists(st.integers(0, 2), min_size=12, max_size=12),
       seed=st.integers(0, 2 ** 32))
@example(n=3, j=0, a=1.0, lam=1.0, slack=[0] * 12, seed=0)    # L_3 itself
def test_certified_polynomials_are_never_refuted(n, j, a, lam, slack, seed):
    # lam x^j L_n(a x) plus nonnegative slack, exact in floats
    size = j + 2 * n + 1 + slack[-1]
    coeffs = [float(s) for s in slack[:size]] + [0.0] * (size - len(slack))
    for i, c in enumerate(_loewy_row(n)):
        coeffs[j + i] += lam * float(c) * a ** i
    p = Polynomial(coeffs)
    cert = exact.loewy_certificate(p, n)
    assume(cert is not None)
    _assert_certifies(coeffs, n, cert)
    verdict = refute(p, n, SearchConfig(restarts=20, seed=seed))
    assert not isinstance(verdict, Refuted)


@pytest.mark.parametrize("family", [(3, 3, 0), (3, 4, 1)])
def test_order3_maxt_runs_no_lockstep(family):
    # the benchmark's maxt: every t <= 2 is certified, every probe above 2
    # is refuted by the probe matrices or the xI + cJ certificate
    with mock.patch.object(membership, "_lockstep",
                           side_effect=AssertionError("lockstep ran")):
        lo, hi = max_t(LoewyGeneral(*family, 2.0), 3,
                       SearchConfig(restarts=10, seed=1), t_hi=4.0,
                       width=0.02)
    assert lo <= 2.0 < hi
    assert (lo, hi) == (2.0, 2.015625)


def test_loewy_cone_stage_moves_only_exhausted_rows():
    # seed 1, n = 3, k = 6, 40,960 samples, the command line budget; before
    # the stage this estimate counted 441 inside, 152 search_refuted and
    # 146 search_exhausted samples
    seen = []
    classify = volume._classify_rows

    def spy(rows, *args):
        stage = classify(rows, *args)
        seen.append(rows[stage[0] == LOEWY_CONE])
        return stage

    with mock.patch.object(volume, "_classify_rows", spy):
        est = estimate_cone_fraction(3, 6, 40960,
                                     SearchConfig(restarts=20, max_iters=120,
                                                  seed=1))
    st_ = est.stages
    assert est.n_inside == 441 and st_["search_refuted"] == 152
    assert st_["loewy_cone"] >= 100
    assert st_["loewy_cone"] + st_["search_exhausted"] == 146
    assert est.bias == "UpperBiased"
    rows = np.concatenate(seen)
    assert len(rows) == st_["loewy_cone"]
    polys = [Polynomial(r) for r in rows.tolist()]
    for p in polys:
        _assert_certifies(p.coeffs, 3, exact.loewy_certificate(p, 3))
    # and no search refutes a certified row, under seeds the estimate
    # did not use
    cfgs = [SearchConfig(restarts=20, max_iters=120, seed=1000 + t)
            for t in range(len(polys))]
    assert not any(isinstance(v, Refuted) for v in _search(polys, 3, cfgs))

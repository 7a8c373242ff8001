"""Classical Wendland family: frozen values, shape properties, derivatives."""

from fractions import Fraction

import numpy as np
import pytest

from wendnet.activations import KINDS, _powers, _wc0, _wc2, _wc4

# Each kernel gives (phi(r), dphi/dr) on r >= 0.  A test of the value alone
# is named for its form (wendland_c0), one of the value and the derivative
# for both (wendland_c0-wendland_c0_dr).
_NAME = {_wc0: "wendland_c0", _wc2: "wendland_c2", _wc4: "wendland_c4"}


def _value_id(v):
    return _NAME.get(v)


def _pair_id(v):
    return f"{_NAME[v]}-{_NAME[v]}_dr" if v in _NAME else None


# Exact rational evaluations at r = 1/2, computed independently with Fraction:
#   c0: (1/2)^2 = 1/4
#   c2: (1/2)^4 * 3 = 3/16
#   c4: (1/2)^6 * (35/4 + 9 + 3) / 3 = 83/768
C0_HALF = Fraction(1, 2) ** 2
C2_HALF = Fraction(1, 2) ** 4 * (4 * Fraction(1, 2) + 1)
C4_HALF = Fraction(1, 2) ** 6 * (35 * Fraction(1, 4) + 18 * Fraction(1, 2) + 3) / 3
assert C4_HALF == Fraction(83, 768)


@pytest.mark.parametrize("form,expected", [
    (_wc0, C0_HALF),
    (_wc2, C2_HALF),
    (_wc4, C4_HALF),
], ids=_value_id)
def test_value_at_half(form, expected):
    assert form(0.5)[0] == pytest.approx(float(expected), abs=1e-12)


@pytest.mark.parametrize("form", [_wc0, _wc2, _wc4], ids=_value_id)
def test_endpoints(form):
    assert form(0.0)[0] == 1.0
    assert form(1.0)[0] == 0.0
    assert form(2.0)[0] == 0.0
    # exactly zero on the whole tail
    tail = form(np.linspace(1.0, 10.0, 50))[0]
    assert np.all(tail == 0.0)


@pytest.mark.parametrize("form", [_wc0, _wc2], ids=_value_id)
def test_monotone_nonincreasing_on_support(form):
    r = np.linspace(0.0, 1.0, 501)
    vals = form(r)[0]
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_c4_nonnegative():
    vals = _wc4(np.linspace(0.0, 2.0, 1001))[0]
    assert np.all(vals >= 0.0)


@pytest.mark.parametrize("form", [_wc0, _wc2, _wc4], ids=_pair_id)
def test_derivative_matches_finite_differences(form):
    rng = np.random.default_rng(5)
    r = rng.uniform(0.01, 2.0, size=200)
    r = r[np.abs(r - 1.0) > 1e-4]  # keep clear of the support boundary
    h = 1e-6
    numeric = (form(r + h)[0] - form(r - h)[0]) / (2 * h)
    analytic = form(r)[1]
    denom = np.maximum(1.0, np.abs(numeric))
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-7


def test_c2_boundary_derivative_continuity():
    # first derivative is continuous at r=1 for the C2 and C4 forms
    h = 1e-7
    for form in (_wc2, _wc4):
        left = form(1.0 - h)[1]
        right = form(1.0 + h)[1]
        assert abs(left - right) < 1e-5


# The closed forms as separate value and derivative expressions, kept here as
# the reference the one-pass forms must match bit for bit.  Each takes its
# powers of p = (1-r)_+ by multiplication, in the kernels' square-and-multiply
# order: p^3 = p (p p), p^4 = p^3 p, p^5 = p ((p p)(p p)), p^6 = p^5 p.
def _ref_c0(r):
    p = np.maximum(0.0, 1.0 - r)
    return p * p


def _ref_c2(r):
    p = np.maximum(0.0, 1.0 - r)
    return p * (p * p) * p * (4.0 * r + 1.0)


def _ref_c4(r):
    p = np.maximum(0.0, 1.0 - r)
    return p * ((p * p) * (p * p)) * p * (35.0 * r * r + 18.0 * r + 3.0) / 3.0


def _ref_c0_dr(r):
    return np.where(r < 1.0, -2.0 * (1.0 - r), 0.0)


def _ref_c2_dr(r):
    p = np.maximum(0.0, 1.0 - r)
    return np.where(r < 1.0, -20.0 * r * (p * (p * p)), 0.0)


def _ref_c4_dr(r):
    p = np.maximum(0.0, 1.0 - r)
    return np.where(r < 1.0, p * ((p * p) * (p * p)) * (-6.0 * (35.0 * r * r + 18.0 * r + 3.0)
                                                         + p * (70.0 * r + 18.0)) / 3.0, 0.0)


def _edge_radii():
    one = np.array([1.0])
    edges = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.5,
             np.nextafter(0.0, 1.0), 1e-300, 1e300, np.inf, np.nan]
    rng = np.random.default_rng(12)
    return np.concatenate([edges, rng.uniform(0.0, 1.5, 20000),
                           one + rng.uniform(-1e-12, 1e-12, 200), rng.exponential(50.0, 200)])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, form, ref, ref_dr", [
    ("wc0", _wc0, _ref_c0, _ref_c0_dr),
    ("wc2", _wc2, _ref_c2, _ref_c2_dr),
    ("wc4", _wc4, _ref_c4, _ref_c4_dr),
], ids=_pair_id)
def test_one_pass_forms_match_the_separate_closed_forms_bit_for_bit(kind, form, ref, ref_dr):
    r = _edge_radii()
    x = np.concatenate([r, -r])
    with np.errstate(invalid="ignore", over="ignore"):  # r * r past 1e154, inf * 0
        phi, dphi = form(r)
        _same_bits(phi, ref(r))
        _same_bits(dphi, ref_dr(r))
        for scalar in map(np.float64, (0.0, 0.5, 1.0, 2.0)):
            phi, dphi = form(scalar)
            _same_bits(phi, ref(scalar))
            _same_bits(dphi, ref_dr(scalar))
        y, dy = KINDS[kind].forward({}, x, None)
        _same_bits(y, ref(np.abs(x)))
        _same_bits(dy, np.where(x >= 0, 1.0, -1.0) * ref_dr(np.abs(x)))


def _ulps(a, b):
    """Elementwise distance in units in the last place; the zeros of either
    sign are one point."""
    def ordered(x):
        i = x.view(np.int64)
        return np.where(i < 0, np.int64(-2 ** 63) - i, i)
    return np.abs(ordered(a) - ordered(b))


@pytest.mark.parametrize("k", range(1, 9))
def test_power_chains_stay_within_n_ulps_of_pow(k):
    # p**n by multiplication rounds n - 1 times, each time by at most half an
    # ulp of its product, which compounds to about n - 1 ulps of p**n; libm
    # pow is itself under one ulp off, so n ulps bound the gap (measured: at
    # most 4, for n = 7 and 8)
    r = _edge_radii()
    with np.errstate(over="ignore"):  # 1e300 ** n is inf on both sides
        chains = _powers(r, k)
        for n, chain in zip((k - 1, k), chains):
            power = np.power(r, n)
            number = ~np.isnan(power)
            assert np.array_equal(np.isnan(chain), ~number)
            assert _ulps(chain[number], power[number]).max() <= n, n

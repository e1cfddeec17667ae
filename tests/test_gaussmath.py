"""Scalar Gaussian utilities against high-precision references."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from standout.gaussmath import (SQRT2, g, g_inverse, gaussian_upside,
                                std_normal_cdf, std_normal_pdf,
                                std_normal_quantile, std_normal_sf)

mp.mp.dps = 30

# frozen from mpmath at 30 digits
G_REFERENCE = [
    (-1.5, 1.5293067937626046),
    (-0.3, 0.56676124211720989),
    (0.0, 0.39894228040143268),
    (0.7, 0.14287937681061015),
    (2.4, 0.0027204440758121862),
    (5.0, 5.346165533832815e-8),
]

UPSIDE_REFERENCE = [
    # (mean, sd, threshold, frozen mpmath quad value)
    (0.4, 1.3, -0.2, 0.87290306420197465),
    (-1.0, 0.5, 0.3, 0.00073194018600843333),
]


def test_cdf_sf_quantile_against_mpmath():
    pts = np.array([-8.0, -3.2, -1.0, 0.0, 0.47, 2.6, 7.5])
    for x in pts:
        ref = float(mp.ncdf(x))
        assert std_normal_cdf(x) == pytest.approx(ref, rel=1e-13, abs=1e-300)
        assert std_normal_sf(x) == pytest.approx(float(mp.ncdf(-x)),
                                                 rel=1e-13, abs=1e-300)
    for p in (1e-10, 0.01, 0.3, 0.5, 0.77, 1 - 1e-12):
        x = std_normal_quantile(p)
        assert float(mp.ncdf(x)) == pytest.approx(p, rel=1e-12)


@given(st.lists(st.floats(min_value=-37.0, max_value=37.0), min_size=1, max_size=64))
@example([-37.0, -8.5, -1e-300, 0.0, 1e-300, 0.3, 8.5, 37.0])
@settings(max_examples=300, deadline=None)
def test_scalar_and_array_branches_agree(xs):
    # Scalars go through math.erfc, arrays through scipy.special.erfc.
    # scipy's relative error in the small tail grows as about 4e-17 x^2
    # (5.7e-14 at x = -33), hence the x^2 term; math.erfc's stays at a
    # few ulps (the test below).
    x = np.array(xs)
    for fn in (std_normal_cdf, std_normal_sf):
        arr = fn(x)
        assert arr.shape == x.shape
        for xi, ai in zip(xs, arr):
            one = fn(xi)
            assert type(one) is float
            assert abs(one - ai) <= (1e-14 + 1e-16 * xi * xi) * abs(ai)


def test_scalar_cdf_is_erfc_to_a_few_ulps():
    # against the exact erfc of the same rounded argument -x/sqrt(2)
    for x in np.linspace(-37.0, 37.0, 741).tolist():
        ref = 0.5 * float(mp.erfc(mp.mpf(-x / SQRT2)))
        assert abs(std_normal_cdf(x) - ref) <= 1e-15 * ref


def test_quantile_domain():
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.5, np.nan]))


def test_g_reference_values():
    for d, ref in G_REFERENCE:
        assert g(d) == pytest.approx(ref, rel=1e-13)


def test_g_vectorized():
    d = np.array([-2.0, 0.0, 1.5])
    out = g(d)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(g(0.0))


@given(st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=1e-6, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_g_strictly_decreasing(d, step):
    assert g(d) > g(d + step)


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_g_inverse_roundtrip(d):
    y = g(d)
    assert g_inverse(y) == pytest.approx(d, abs=1e-9)


@given(st.floats(min_value=1e-8, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_g_inverse_solves(y):
    d = g_inverse(y)
    assert g(d) == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_g_asymptotics():
    # g(d) ~ -d for very negative d, and vanishes for large d
    assert g(-40.0) == pytest.approx(40.0, rel=1e-12)
    assert g(40.0) == 0.0 or g(40.0) < 1e-300


def test_gaussian_upside_reference():
    for mean, sd, thr, ref in UPSIDE_REFERENCE:
        assert gaussian_upside(mean, sd, thr) == pytest.approx(ref, rel=1e-12)


def test_gaussian_upside_monte_carlo():
    rng = np.random.default_rng(42)
    x = 0.4 + 1.3 * rng.standard_normal(2_000_000)
    est = np.maximum(x - (-0.2), 0.0)
    se = est.std() / np.sqrt(len(x))
    assert abs(est.mean() - gaussian_upside(0.4, 1.3, -0.2)) < 4 * se


def test_gaussian_upside_scaling():
    # E(X - b)^+ is positively homogeneous in (mean-b, sd)
    lam = 2.7
    a = gaussian_upside(0.9, 0.8, 0.1)
    b = gaussian_upside(lam * 0.8, lam * 0.8, 0.0)
    assert b == pytest.approx(lam * gaussian_upside(0.8, 0.8, 0.0), rel=1e-13)
    assert a == pytest.approx(gaussian_upside(0.8, 0.8, 0.0), rel=1e-13)


@pytest.mark.parametrize("call, message", [
    (lambda: g_inverse(0.0), "g_inverse requires a strictly positive argument"),
    (lambda: gaussian_upside(0.0, 0.0, 1.0), "gaussian_upside requires sd > 0"),
], ids=["g_inverse_at_0", "upside_at_sd_0"])
def test_outside_the_domain_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()

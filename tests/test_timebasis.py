"""Quadrature, Legendre evaluation, interval polynomials, temporal projectors,
and the explicit constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from waveslab import (
    IntervalPoly,
    c3_constant,
    c4_constant,
    gauss_legendre,
    integrated_thomee,
    legendre_eval,
    mu_n,
    project_H1,
    project_L2,
    reconstruction_constants,
    thomee_project,
)

rng = np.random.default_rng(20240811)


# ---------------------------------------------------------------- quadrature

def test_gauss_rule_examples():
    x, w = gauss_legendre(0)
    assert len(x) == 1 and abs(x[0]) < 1e-15 and abs(w[0] - 2.0) < 1e-15
    x, w = gauss_legendre(1)
    assert len(x) == 1
    x, w = gauss_legendre(3)
    assert len(x) == 2
    assert np.allclose(np.sort(x), [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-15)


def test_gauss_rule_exactness_sweep():
    # rule of a given order must integrate every monomial up to that degree
    for order in range(13):
        x, w = gauss_legendre(order)
        for k in range(order + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) < 1e-13, (order, k)


def test_gauss_rule_rejects_negative_order():
    with pytest.raises(ValueError):
        gauss_legendre(-1)


def test_legendre_matches_binomial_formula():
    # P_n(x) = 2^-n sum_k C(n,k)^2 (x-1)^(n-k) (x+1)^k, evaluated in exact
    # rational arithmetic at rational points
    points = [Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(2, 5), Fraction(1)]
    for n in range(9):
        for xq in points:
            exact = sum(
                Fraction(math.comb(n, k)) ** 2 * (xq - 1) ** (n - k) * (xq + 1) ** k
                for k in range(n + 1)
            ) / Fraction(2) ** n
            got = legendre_eval(n, float(xq))
            assert abs(got - float(exact)) < 1e-13, (n, xq)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


# ----------------------------------------------------------- IntervalPoly

def test_nodal_round_trip():
    vals = rng.standard_normal(5)
    poly = IntervalPoly.from_nodal((0.5, 2.0), vals)
    assert poly.degree == 4
    assert abs(poly.length - 1.5) < 1e-15
    nodes = np.linspace(0.5, 2.0, 5)
    assert np.allclose(poly.eval(nodes), vals, atol=1e-12)


def test_vector_valued_shapes():
    vals = rng.standard_normal((4, 7))
    poly = IntervalPoly.from_nodal((0.0, 1.0), vals)
    assert poly.eval(0.3).shape == (7,)
    assert poly.eval(np.array([0.1, 0.9])).shape == (2, 7)


def test_derivative_of_cubic():
    ts = np.linspace(0.0, 2.0, 4)
    poly = IntervalPoly.from_nodal((0.0, 2.0), ts**3)
    probe = np.array([0.1, 0.77, 1.9])
    assert np.allclose(poly.deriv(probe), 3.0 * probe**2, atol=1e-11)
    assert np.allclose(poly.deriv(probe, m=2), 6.0 * probe, atol=1e-10)


def test_truncation_is_l2_projection():
    vals = rng.standard_normal(6)
    poly = IntervalPoly.from_nodal((0.2, 1.7), vals)
    cut = poly.truncated(2)
    ref = project_L2(poly.eval, 2, (0.2, 1.7), quad_order=21)
    assert np.allclose(cut.modes, ref.modes, atol=1e-12)
    # truncating to an equal or larger degree is the identity
    assert poly.truncated(5) is poly
    assert poly.truncated(9) is poly


def test_l2_norm_examples():
    lin = IntervalPoly.from_nodal((-1.0, 1.0), np.array([-1.0, 1.0]))
    assert abs(lin.l2_norm_sq() - 2.0 / 3.0) < 1e-14
    vec = IntervalPoly.from_nodal((0.0, 1.0), rng.standard_normal((3, 4)))
    weighted = vec.l2_norm_sq(norm_sq=lambda row: 2.0 * float(row @ row))
    assert abs(weighted - 2.0 * vec.l2_norm_sq()) < 1e-12


# ------------------------------------------------------------- projectors

def test_l2_projection_of_cubic():
    proj = project_L2(lambda t: np.asarray(t) ** 3, 1, (-1.0, 1.0))
    probe = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(proj.eval(probe), 0.6 * probe, atol=1e-13)


@pytest.mark.parametrize("degree", range(7))
def test_l2_projection_reproduces_polynomials(degree):
    coeffs = rng.standard_normal(degree + 1)
    w = lambda t: np.polyval(coeffs, t)
    proj = project_L2(w, degree, (0.3, 1.1))
    probe = np.linspace(0.3, 1.1, 11)
    assert np.allclose(proj.eval(probe), w(probe), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("degree", range(5))
def test_l2_projection_default_rule_has_order_2p_plus_3(degree):
    # a non-polynomial w moves with the rule by its quadrature error only,
    # so the default is pinned bit for bit, against a rule one point larger
    w = lambda t: np.exp(np.sin(3.0 * np.asarray(t)))
    interval = (0.2, 1.3)
    default = project_L2(w, degree, interval).modes
    assert np.array_equal(default, project_L2(w, degree, interval,
                                              quad_order=2 * degree + 3).modes)
    assert not np.array_equal(default, project_L2(w, degree, interval,
                                                  quad_order=2 * degree + 4).modes)


def test_l2_projection_residual_orthogonality():
    w = lambda t: np.sin(3.0 * np.asarray(t))
    proj = project_L2(w, 3, (0.0, 1.0), quad_order=41)
    x, wt = gauss_legendre(41)
    t = 0.5 * (x + 1.0)
    for k in range(4):
        moment = 0.5 * wt @ ((w(t) - proj.eval(t)) * legendre_eval(k, x))
        assert abs(moment) < 1e-14, k


def test_derivative_matching_projection():
    # r' is the L2 projection of w' one degree down and r matches w on the left
    w = lambda t: np.asarray(t) ** 2
    dw = lambda t: 2.0 * np.asarray(t)
    r = project_H1(w, dw, 1, (-1.0, 1.0))
    probe = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(r.eval(probe), 1.0, atol=1e-13)

    w = lambda t: np.cos(2.0 * np.asarray(t))
    dw = lambda t: -2.0 * np.sin(2.0 * np.asarray(t))
    r = project_H1(w, dw, 3, (0.2, 0.9), quad_order=41)
    assert abs(r.eval(0.2) - w(0.2)) < 1e-13
    dref = project_L2(dw, 2, (0.2, 0.9), quad_order=41)
    assert np.allclose(r.deriv(probe * 0.3 + 0.55), dref.eval(probe * 0.3 + 0.55), atol=1e-12)


def test_endpoint_matching_projection():
    r = thomee_project(lambda t: np.asarray(t) ** 2, 1, (-1.0, 1.0))
    probe = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(r.eval(probe), 1.0 / 3.0 + 2.0 / 3.0 * probe, atol=1e-13)

    w = lambda t: np.exp(np.asarray(t))
    for p in (1, 2, 3, 4):
        r = thomee_project(w, p, (0.1, 0.8), quad_order=41)
        assert abs(r.eval(0.8) - w(0.8)) < 1e-12
        # residual orthogonal to everything one degree down
        x, wt = gauss_legendre(41)
        t = 0.45 + 0.35 * x
        for k in range(p):
            moment = 0.35 * wt @ ((w(t) - r.eval(t)) * legendre_eval(k, x))
            assert abs(moment) < 1e-12, (p, k)


def test_endpoint_projection_is_l2_plus_top_mode():
    # the endpoint-matching projection equals the plain L2 projection plus the
    # endpoint defect carried by the top Legendre mode, pointwise
    w = lambda t: np.sin(2.5 * np.asarray(t)) + np.asarray(t) ** 2
    for p in (1, 2, 3, 5):
        interval = (0.3, 1.4)
        r = thomee_project(w, p, interval, quad_order=41)
        proj = project_L2(w, p, interval, quad_order=41)
        defect = w(1.4) - proj.eval(1.4)
        probe = np.linspace(0.3, 1.4, 13)
        x = (2.0 * probe - 0.3 - 1.4) / 1.1
        assert np.allclose(
            r.eval(probe), proj.eval(probe) + defect * legendre_eval(p, x), atol=1e-11
        )


def test_integrated_projection_conditions():
    # endpoint values at both ends, derivative at the right end, and
    # orthogonality three degrees down
    w = lambda t: np.sin(3.0 * np.asarray(t)) + 0.5 * np.asarray(t)
    dw = lambda t: 3.0 * np.cos(3.0 * np.asarray(t)) + 0.5
    for p in (2, 3, 4, 5):
        a, b = 0.2, 1.1
        P = integrated_thomee(w, dw, p, (a, b), quad_order=41)
        assert P.degree == p
        assert abs(P.eval(a) - w(a)) < 1e-11
        assert abs(P.eval(b) - w(b)) < 1e-11
        assert abs(P.deriv(b) - dw(b)) < 1e-11
        x, wt = gauss_legendre(41)
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        for k in range(p - 2):
            moment = 0.5 * (b - a) * wt @ ((w(t) - P.eval(t)) * legendre_eval(k, x))
            assert abs(moment) < 1e-11, (p, k)


def test_integrated_projection_derivative_relation():
    w = lambda t: np.cos(1.7 * np.asarray(t))
    dw = lambda t: -1.7 * np.sin(1.7 * np.asarray(t))
    for p in (2, 3, 4):
        P = integrated_thomee(w, dw, p, (0.1, 0.9), quad_order=41)
        r = thomee_project(dw, p - 1, (0.1, 0.9), quad_order=41)
        x, _ = gauss_legendre(2 * p + 3)
        t = 0.5 + 0.4 * x
        assert np.allclose(P.deriv(t), r.eval(t), atol=1e-11)


def test_integrated_projection_idempotence():
    coeffs = rng.standard_normal(5)
    w = lambda t: np.polyval(coeffs, t)
    dw = lambda t: np.polyval(np.polyder(coeffs), t)
    P = integrated_thomee(w, dw, 4, (0.3, 0.8))
    probe = np.linspace(0.3, 0.8, 9)
    assert np.allclose(P.eval(probe), w(probe), rtol=1e-12, atol=1e-12)


def test_integrated_projection_rate():
    # smooth target: the gap shrinks one order faster than the degree
    w = lambda t: np.sin(4.0 * np.asarray(t))
    dw = lambda t: 4.0 * np.cos(4.0 * np.asarray(t))
    for p in (2, 3):
        taus = np.array([0.05, 0.025, 0.0125, 0.00625])
        errs = []
        for tau in taus:
            P = integrated_thomee(w, dw, p, (0.3, 0.3 + tau), quad_order=41)
            probe = np.linspace(0.3, 0.3 + tau, 33)
            errs.append(np.max(np.abs(P.eval(probe) - w(probe))))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(slope - (p + 1)) < 0.2, (p, slope)


def test_integrated_projection_jump_identity():
    # against a test polynomial of degree p-1, the second derivative of the
    # gap reduces to a pure endpoint term through the derivative mismatch
    for p in (2, 3, 4, 5):
        a, b = 0.25, 1.05
        c = rng.standard_normal(3)
        w = lambda t: np.sin(2.2 * np.asarray(t)) + c[0] * np.asarray(t) ** 2 + c[1]
        dw = lambda t: 2.2 * np.cos(2.2 * np.asarray(t)) + 2.0 * c[0] * np.asarray(t)
        d2w = lambda t: -2.2**2 * np.sin(2.2 * np.asarray(t)) + 2.0 * c[0]
        q = IntervalPoly.from_nodal((a, b), rng.standard_normal(p))
        P = integrated_thomee(w, dw, p, (a, b), quad_order=61)
        x, wt = gauss_legendre(61)
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        lhs = 0.5 * (b - a) * wt @ ((d2w(t) - P.deriv(t, m=2)) * q.eval(t))
        rhs = (P.deriv(a) - dw(a)) * q.eval(a)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), p


def test_projectors_reject_bad_degrees():
    w = lambda t: np.asarray(t)
    with pytest.raises(ValueError):
        project_L2(w, -1, (0.0, 1.0))
    with pytest.raises(ValueError):
        project_H1(w, w, 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        thomee_project(w, 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        integrated_thomee(w, w, 1, (0.0, 1.0))


# -------------------------------------------------------------- constants

def test_gap_constants_exact_values():
    c1_sq, c2_sq, c3 = reconstruction_constants(2)
    assert c1_sq == 2.0 / 15.0
    assert c2_sq == 2.0 / (15.0 * np.pi**2)
    assert c3 == np.sqrt(np.pi)
    c1_sq, c2_sq, c3 = reconstruction_constants(3)
    assert c1_sq == 3.0 / 35.0
    assert c2_sq == 3.0 / 280.0
    assert c3 == 1.0


def test_weight_constants():
    assert c3_constant(0) == np.sqrt(np.pi)
    assert c3_constant(2) == np.sqrt(np.pi)
    assert c3_constant(3) == 1.0
    assert c3_constant(5) == 1.0 / 3.0
    assert mu_n(2) == 1.0 / 20480.0
    assert mu_n(3) == 1.0 / 64512.0


def test_jump_weight_examples():
    assert abs(c4_constant(2, 1.0, 0.0, 0.2) - 5.0 * np.pi) < 1e-14
    # distance factor saturates on long horizons
    far = c4_constant(2, 40.0, 0.0, 0.5)
    assert abs(far - np.pi * np.sqrt(np.pi) / 0.5) < 1e-12
    assert c4_constant(3, 7.0, 1.0, 0.3) == np.sqrt(np.pi)
    assert c4_constant(5, 7.0, 1.0, 0.3) == np.sqrt(np.pi)
    assert c4_constant(6, 7.0, 1.0, 0.3) == 1.0


def test_constants_reject_small_degrees():
    with pytest.raises(ValueError):
        reconstruction_constants(1)
    with pytest.raises(ValueError):
        c3_constant(-1)
    with pytest.raises(ValueError):
        c4_constant(1, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        mu_n(1)

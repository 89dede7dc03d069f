import math
import re

import mpmath
import numpy as np
import pytest

from caputodr import quadrature, specfun

GAMMA_5_4 = 44.598848145082606466  # mpmath, 40 digits


def log_moment(rule, degree):
    """log of sum_i w_i z_i^degree, assembled without overflow."""
    log_terms = np.log(rule.scaled_weights) - rule.nodes + degree * np.log(rule.nodes)
    top = log_terms.max()
    return top + math.log(np.sum(np.exp(log_terms - top)))


def christoffel_scaled_weights(nodes, gamma):
    """Independent scaled weights: 1 / sum_j q_j(z)^2, q_j = p_j exp(-z/2).

    The orthonormal-polynomial recurrence is evaluated with the exp(-z/2)
    damping folded in, so every intermediate stays inside double range.
    """
    n = len(nodes)
    q_prev = np.zeros_like(nodes)
    q = np.exp(-0.5 * nodes - 0.5 * math.log(specfun.gamma(gamma + 1.0)))
    total = q * q
    for k in range(n - 1):
        a_k = 2.0 * k + gamma + 1.0
        e_k = math.sqrt(k * (k + gamma)) if k > 0 else 0.0
        e_k1 = math.sqrt((k + 1.0) * (k + 1.0 + gamma))
        q_next = ((nodes - a_k) * q - e_k * q_prev) / e_k1
        q_prev, q = q, q_next
        total += q * q
    return 1.0 / total


class TestJacobiMatrix:
    def test_order_one(self):
        diag, off = quadrature.jacobi_matrix(1, 0.0)
        assert diag.tolist() == [1.0]
        assert off.size == 0

    def test_order_two(self):
        diag, off = quadrature.jacobi_matrix(2, 0.5)
        assert diag.tolist() == [1.5, 3.5]
        assert off.tolist() == [math.sqrt(1.5)]

    def test_order_three_negative_gamma(self):
        diag, off = quadrature.jacobi_matrix(3, -0.6)
        assert np.allclose(diag, [0.4, 2.4, 4.4], rtol=0, atol=1e-15)
        assert np.allclose(off, [math.sqrt(0.4), math.sqrt(2.8)], rtol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quadrature.jacobi_matrix(0, 0.0)
        with pytest.raises(ValueError):
            quadrature.jacobi_matrix(3, -1.0)


class TestGaussLaguerre:
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.7])
    def test_one_point_rule(self, gamma):
        rule = quadrature.gauss_laguerre(1, gamma)
        assert rule.nodes[0] == pytest.approx(gamma + 1.0, rel=1e-14)
        assert rule.weights[0] == pytest.approx(specfun.gamma(gamma + 1.0), rel=1e-13)

    def test_first_moment(self):
        rule = quadrature.gauss_laguerre(10, 0.0)
        assert rule.weights @ rule.nodes == pytest.approx(1.0, rel=1e-12)

    def test_fifth_moment_negative_gamma(self):
        rule = quadrature.gauss_laguerre(20, -0.6)
        moment = rule.weights @ rule.nodes**5
        assert moment == pytest.approx(GAMMA_5_4, rel=1e-12)

    @pytest.mark.parametrize("gamma", [-0.6, -0.5, -0.4, 0.2, 0.4, 0.5, 0.6])
    @pytest.mark.parametrize("order", [5, 20, 60])
    def test_polynomial_exactness(self, order, gamma):
        rule = quadrature.gauss_laguerre(order, gamma)
        for degree in range(2 * order):
            got = log_moment(rule, degree)
            want = math.lgamma(gamma + degree + 1.0)
            assert abs(math.expm1(got - want)) <= 1e-10

    @pytest.mark.parametrize("gamma", [-0.6, 0.2, 0.6])
    @pytest.mark.parametrize("order", [5, 20, 60, 160])
    def test_node_growth_bound(self, order, gamma):
        rule = quadrature.gauss_laguerre(order, gamma)
        assert rule.nodes[-1] <= 4.0 * order + 2.0 * gamma + 6.0

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_nodes_match_polynomial_roots(self, order):
        # Monic generalized Laguerre recurrence gives the characteristic
        # polynomial; its roots (via the companion matrix) are an oracle
        # for the QL eigenvalues.
        gamma = -0.3
        coeffs = [np.array([1.0])]
        for k in range(order):
            a_k = 2.0 * k + gamma + 1.0
            b_k = k * (k + gamma)
            p = np.concatenate([coeffs[-1], [0.0]]) - a_k * np.concatenate([[0.0], coeffs[-1]])
            if k > 0:
                p[2:] -= b_k * coeffs[-2]
            coeffs.append(p)
        roots = np.sort(np.roots(coeffs[-1]))
        rule = quadrature.gauss_laguerre(order, gamma)
        assert np.max(np.abs(rule.nodes - roots)) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.4, 0.2, 0.6])
    def test_invariants(self, gamma):
        rule = quadrature.gauss_laguerre(40, gamma)
        assert rule.nodes[0] > 0.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert rule.weights.sum() == pytest.approx(specfun.gamma(gamma + 1.0), rel=1e-12)

    @pytest.mark.parametrize("order", [40, 160])
    def test_scaled_weights_against_christoffel(self, order):
        # The library builds its weights from this identity too, so this is
        # a consistency check of the log-scaled recurrence against a plainly
        # damped one; the independent oracle is the mpmath closed form in
        # test_top_scaled_weight.
        gamma = -0.4
        rule = quadrature.gauss_laguerre(order, gamma)
        ref = christoffel_scaled_weights(rule.nodes, gamma)
        assert np.max(np.abs(rule.scaled_weights / ref - 1.0)) <= 1e-11

    @pytest.mark.parametrize("gamma", [-0.6, 0.2, 0.6])
    @pytest.mark.parametrize("order,tol", [(40, 4.4e-12), (160, 2.8e-10)])
    def test_every_scaled_weight(self, order, tol, gamma):
        # closed form at each computed node, as in test_top_scaled_weight;
        # tol is twice the worst error of the two-pass recurrence this
        # one-pass build replaced (2.2e-12 at N = 40, 1.4e-10 at N = 160)
        rule = quadrature.gauss_laguerre(order, gamma)
        with mpmath.workdps(40):
            scale = mpmath.gamma(order + gamma + 1) / (mpmath.factorial(order) * (order + 1) ** 2)
            worst = 0.0
            for z, got in zip(rule.nodes.tolist(), rule.scaled_weights.tolist()):
                z = mpmath.mpf(z)
                exact = scale * z * mpmath.exp(z) / mpmath.laguerre(order + 1, gamma, z) ** 2
                worst = max(worst, abs(float(got / exact) - 1.0))
        assert worst <= tol

    @pytest.mark.parametrize("gamma", [-0.6, 0.2])
    @pytest.mark.parametrize("order", [300, 370, 380, 1000])
    def test_top_scaled_weight(self, order, gamma):
        # the top weight itself underflows to 0.0 at these orders, its
        # scaled weight must not; closed form
        # W = Gamma(n+g+1) z e^z / (n! (n+1)^2 L_{n+1}^(g)(z)^2)
        rule = quadrature.gauss_laguerre(order, gamma)
        with mpmath.workdps(40):
            z = mpmath.mpf(rule.nodes[-1])
            laguerre = mpmath.laguerre(order + 1, gamma, z)
            exact = (
                mpmath.gamma(order + gamma + 1) * z * mpmath.exp(z)
                / (mpmath.factorial(order) * (order + 1) ** 2 * laguerre**2)
            )
        assert abs(float(rule.scaled_weights[-1] / exact) - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.6, 0.2])
    def test_weight_sum_at_order_1000(self, gamma):
        # kept apart from test_invariants: hundreds of weights underflow to
        # 0.0 at this order, so positivity does not hold there
        rule = quadrature.gauss_laguerre(1000, gamma)
        total = math.fsum(rule.weights.tolist())
        assert total == pytest.approx(specfun.gamma(gamma + 1.0), rel=1e-12)

    def test_refuses_nodes_out_of_order(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda matrix: eigvalsh(matrix)[::-1])
        with pytest.raises(RuntimeError, match="^computed nodes are not strictly increasing and positive$"):
            quadrature.gauss_laguerre(10, 0.2)

    def test_refuses_weights_off_their_sum(self, monkeypatch):
        # at order 300 the weights sum to Gamma(gamma+1) to a few 1e-14, not exactly
        monkeypatch.setattr(quadrature, "_MASS_TOL", 0.0)
        with pytest.raises(RuntimeError, match=r"^weights of the order-300 rule sum to Gamma\(gamma\+1\) only to "
                           r"\S+ relative \(tolerance 0\)$"):
            quadrature.gauss_laguerre(300, -0.37)

    @pytest.mark.parametrize("order,gamma", [(5, 150.0), (5, 170.0), (5, 200.0), (10, 1e300), (10, 1e308)])
    def test_overflow_is_refused(self, order, gamma):
        # the first three wrote inf weights with a RuntimeWarning; the last two warned, then refused in
        # the node check or in eigvalsh ("Eigenvalues did not converge")
        message = f"the order-{order} rule for gamma={gamma:g} overflows double precision"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quadrature.gauss_laguerre(order, gamma)

    def test_largest_weights_below_overflow_are_built(self):
        rule = quadrature.gauss_laguerre(5, 100.0)
        assert np.all(np.isfinite(rule.scaled_weights)) and rule.scaled_weights.max() > 1e200


class TestIntegrate:
    def test_constant(self):
        rule = quadrature.gauss_laguerre(8, -0.5)
        got = rule.weights @ np.ones(rule.order)
        assert got == pytest.approx(specfun.gamma(0.5), rel=1e-13)

    def test_quadratic(self):
        rule = quadrature.gauss_laguerre(2, 0.0)
        assert rule.weights @ rule.nodes**2 == pytest.approx(2.0, rel=1e-12)

    def test_exponential(self):
        rule = quadrature.gauss_laguerre(40, 0.0)
        got = rule.weights @ np.exp(-rule.nodes)
        assert got == pytest.approx(0.5, abs=1e-8)


class TestIntegerOrder:
    @pytest.mark.parametrize("order", [2.5, 3.0])
    def test_gauss_laguerre_refuses_non_integer(self, order):
        # unchecked, order 2.5 would build 3 nodes under order == 2
        with pytest.raises(ValueError, match=rf"^order must be an integer, got order={order!r}$"):
            quadrature.gauss_laguerre(order, 0.0)

    def test_jacobi_matrix_refuses_non_integer(self):
        with pytest.raises(ValueError, match=r"^order must be an integer, got order=2\.5$"):
            quadrature.jacobi_matrix(2.5, 0.0)

    def test_numpy_float_order_is_named_plainly(self):
        # numpy 2 would print np.float64(2.5)
        with pytest.raises(ValueError, match=r"^order must be an integer, got order=2\.5$"):
            quadrature.gauss_laguerre(np.float64(2.5), 0.0)

    def test_numpy_integer_order(self):
        rule = quadrature.gauss_laguerre(np.int64(4), 0.5)
        assert rule.order == 4 and type(rule.order) is int and rule.nodes.shape == (4,)

"""Chebyshev smoothing and eigenvalue estimation (paper SS III-C)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import ChebyshevSmoother, estimate_lambda_max


def laplace_1d(n):
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    return A


class TestLambdaMax:
    def test_diagonal_matrix_exact(self):
        d = np.array([1.0, 2.0, 5.0, 10.0])
        A = sp.diags(d).tocsr()
        lmax = estimate_lambda_max(lambda v: A @ v, np.ones(4))
        assert lmax == pytest.approx(10.0, rel=1e-6)

    def test_jacobi_scaled_spectrum(self):
        """lambda_max of D^{-1} A for the 1D Laplacian is 2 - O(h^2)."""
        A = laplace_1d(50)
        lmax = estimate_lambda_max(lambda v: A @ v, 1.0 / A.diagonal(), iters=20)
        assert 1.8 < lmax <= 2.0001

    def test_estimate_within_safety_interval(self):
        """A 10-iteration estimate lands within the paper's [.., 1.1 lmax]
        safety margin of the true value."""
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((80, 80))
        A = sp.csr_matrix(Q @ Q.T + 10 * np.eye(80))
        dinv = 1.0 / A.diagonal()
        true = np.max(np.linalg.eigvalsh(
            np.diag(np.sqrt(dinv)) @ A.toarray() @ np.diag(np.sqrt(dinv))
        ))
        est = estimate_lambda_max(lambda v: A @ v, dinv)
        assert 0.8 * true < est < 1.1 * true


class TestSmoother:
    def test_error_reduction_on_high_frequencies(self):
        """Chebyshev targeting [0.2, 1.1] lmax damps the upper spectrum
        strongly while barely touching the smooth end -- the smoothing
        property multigrid needs."""
        n = 64
        A = laplace_1d(n)
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=2)
        k_high, k_low = n - 1, 1
        modes = {}
        for k in (k_low, k_high):
            v = np.sin(np.pi * k * np.arange(1, n + 1) / (n + 1))
            v /= np.linalg.norm(v)
            # error-propagation operator applied to the mode: with exact
            # solution v of A x = A v, the post-smoothing error is v - x1
            e = v - cheb.smooth(A @ v, np.zeros(n))
            modes[k] = np.linalg.norm(e)
        assert modes[k_high] < 0.25
        assert modes[k_high] < modes[k_low]

    def test_exact_on_matching_interval_degree_grows(self):
        A = laplace_1d(32)
        r = np.random.default_rng(1).standard_normal(32)
        norms = []
        for degree in (1, 3, 6):
            cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=degree)
            x = cheb.smooth(r, None)
            norms.append(np.linalg.norm(r - A @ x))
        assert norms[2] < norms[1] < norms[0]

    def test_preconditioner_interface(self):
        A = laplace_1d(32)
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=3)
        r = np.ones(32)
        assert np.allclose(cheb(r), cheb.smooth(r, None))

    @pytest.mark.parametrize("x0", [None, "random"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_minimal_applies_and_reference_iterate(self, x0, degree):
        """``smooth`` stops after the last iterate update: ``degree - 1``
        applies from a zero guess, ``degree`` from a non-zero one, with an
        iterate bitwise equal to the full recurrence (inlined below, the
        loop this class ran before it skipped the unused last residual).
        ``smooth_with_residual`` spends the one apply more and returns the
        recurrence residual, equal to ``b - A x`` up to rounding."""
        A = laplace_1d(32)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(32)
        x_init = None if x0 is None else rng.standard_normal(32)
        applies = [0]

        def counted(v):
            applies[0] += 1
            return A @ v

        cheb = ChebyshevSmoother(counted, A.diagonal(), degree=degree)

        def reference(b, x):
            theta = 0.5 * (cheb.lmax + cheb.lmin)
            delta = 0.5 * (cheb.lmax - cheb.lmin)
            if x is None:
                x = np.zeros_like(b)
                r = b.copy()
            else:
                x = x.copy()
                r = b - A @ x
            sigma = theta / delta
            rho = 1.0 / sigma
            d = (cheb.dinv * r) / theta
            for _ in range(degree):
                x = x + d
                r = r - A @ d
                rho_new = 1.0 / (2.0 * sigma - rho)
                d = rho_new * rho * d + (2.0 * rho_new / delta) * (cheb.dinv * r)
                rho = rho_new
            return x, r

        x_ref, r_ref = reference(b, x_init)
        start = 0 if x0 is None else 1  # b - A x0 costs one apply
        applies[0] = 0
        x_plain = cheb.smooth(b, x_init)
        assert applies[0] == start + degree - 1
        applies[0] = 0
        x_fused, r_fused = cheb.smooth_with_residual(b, x_init)
        assert applies[0] == start + degree
        assert np.array_equal(x_plain, x_ref)
        assert np.array_equal(x_fused, x_ref)
        assert np.array_equal(r_fused, r_ref)
        scale = np.linalg.norm(b)
        assert np.linalg.norm(r_fused - (b - A @ x_fused)) < 1e-12 * scale

    def test_results_survive_the_next_call(self):
        """The work buffers are internal: vectors handed back by one call
        are not touched by the next call on the same smoother."""
        A = laplace_1d(32)
        rng = np.random.default_rng(5)
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=3)
        x1, r1 = cheb.smooth_with_residual(rng.standard_normal(32))
        x1_copy, r1_copy = x1.copy(), r1.copy()
        cheb.smooth(rng.standard_normal(32), rng.standard_normal(32))
        assert np.array_equal(x1, x1_copy) and np.array_equal(r1, r1_copy)

    def test_nonzero_initial_guess(self):
        A = laplace_1d(32)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(32)
        x0 = rng.standard_normal(32)
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=4)
        x1 = cheb.smooth(b, x0)
        assert np.linalg.norm(b - A @ x1) < np.linalg.norm(b - A @ x0)

    def test_interval_validation(self):
        A = laplace_1d(8)
        with pytest.raises(ValueError):
            ChebyshevSmoother(lambda v: A @ v, A.diagonal(), interval=(2.0, 1.0))

    def test_zero_diagonal_rejected(self):
        A = laplace_1d(8)
        d = A.diagonal()
        d[3] = 0.0
        with pytest.raises(ValueError):
            ChebyshevSmoother(lambda v: A @ v, d)

    def test_paper_interval_factors(self):
        """Default interval is [0.2, 1.1] x lambda_max estimate."""
        A = laplace_1d(32)
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=2)
        assert cheb.lmax / cheb.lmin == pytest.approx(1.1 / 0.2, rel=1e-12)


class TestIndefiniteDiagonal:
    """Regression: an indefinite operator diagonal used to surface as an
    opaque ``LinAlgError`` from the Lanczos eigensolve; it must now be
    rejected up front with an actionable message (or handled via the
    explicit ``indefinite='abs'`` opt-in)."""

    def indefinite_system(self, n=16):
        d = np.linspace(1.0, 2.0, n)
        d[n // 2] = -0.5  # one negative pivot (e.g. an unpinned BC row)
        return sp.diags(d).tocsr() + 0.01 * sp.eye(n, k=1) + 0.01 * sp.eye(n, k=-1)

    def test_estimate_rejects_negative_dinv(self):
        A = self.indefinite_system()
        with pytest.raises(ValueError, match="positive"):
            estimate_lambda_max(lambda v: A @ v, 1.0 / A.diagonal())

    def test_estimate_rejects_nonfinite_dinv(self):
        A = laplace_1d(8)
        dinv = 1.0 / A.diagonal()
        dinv[2] = np.inf
        with pytest.raises(ValueError):
            estimate_lambda_max(lambda v: A @ v, dinv)

    def test_smoother_rejects_negative_diagonal(self):
        A = self.indefinite_system()
        with pytest.raises(ValueError, match="indefinite='abs'"):
            ChebyshevSmoother(lambda v: A @ v, A.diagonal())

    def test_smoother_abs_fallback_is_finite(self):
        A = self.indefinite_system()
        cheb = ChebyshevSmoother(lambda v: A @ v, A.diagonal(),
                                 indefinite="abs")
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        x = cheb.smooth(b, None)
        assert np.all(np.isfinite(x))

    def test_invalid_indefinite_mode(self):
        A = laplace_1d(8)
        with pytest.raises(ValueError, match="indefinite"):
            ChebyshevSmoother(lambda v: A @ v, A.diagonal(),
                              indefinite="clip")

    def test_positive_diagonal_unaffected(self):
        """The validation must not change behavior on the SPD path."""
        A = laplace_1d(32)
        c1 = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=2)
        c2 = ChebyshevSmoother(lambda v: A @ v, A.diagonal(), degree=2,
                               indefinite="abs")
        assert c1.lmax == c2.lmax and c1.lmin == c2.lmin

"""Dense Hermitian primitives: eigensolves, fractional powers, norms,
spectral radius, Loewner comparison.

Reference values were computed with the independent characteristic-polynomial
oracles in support.py and frozen; property tests draw random Hermitian and
HPD matrices within the conditioning for which double precision supports the
stated tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmeq import analysis, matcore as mc

from support import (
    eigvals_oracle,
    random_hermitian,
    random_hpd,
    random_unitary,
    spectral_radius_oracle,
)

# matrices from the bundled reference problems, used as fixed test data
A1 = np.array(
    [
        [0.02, -0.10, -0.02],
        [0.08, -0.10, 0.02],
        [-0.06, -0.12, 0.14],
    ]
)
B1 = np.array(
    [
        [-0.04, 0.010, -0.020],
        [0.05, 0.070, -0.013],
        [0.011, 0.090, 0.060],
    ]
)
Q2 = np.array(
    [
        [7.5, 0.0, 1.0],
        [0.0, 7.5, 1.0],
        [1.0, 1.0, 8.5],
    ]
)


def seeded_rng(seed):
    return np.random.default_rng(seed)


def loewner_holds(L, R, scale=1.0):
    """The library's one Loewner rule: L <= R up to 1e-10 max(scale, 1)."""
    return analysis._loewner_verdict(L, R, scale).holds


def is_pd(M):
    """The library's one positivity rule on the spectrum of a Hermitian M."""
    return mc.is_pd_spectrum(np.linalg.eigvalsh(M))


class TestValidation:
    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            mc.as_matrix(np.zeros((2, 3)), "M")

    def test_as_matrix_rejects_nonfinite(self):
        M = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            mc.as_matrix(M, "M")

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            mc.as_matrix(np.arange(4.0), "M")

    def test_as_matrix_keeps_real_input_real(self):
        assert mc.as_matrix(A1).dtype == np.float64
        assert mc.as_matrix(np.eye(3, dtype=int)).dtype == np.float64

    def test_as_matrix_drops_zero_imaginary_parts(self):
        M = mc.as_matrix(A1 + 0j)
        assert M.dtype == np.float64
        assert M.flags.c_contiguous
        assert np.array_equal(M, A1)

    def test_as_matrix_keeps_nonzero_imaginary_parts(self):
        M = A1 + 0j
        M[0, 1] += 1e-300j
        assert mc.as_matrix(M).dtype == np.complex128

    def test_as_matrix_rejects_nonfinite_imaginary_part(self):
        M = np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            mc.as_matrix(M, "M")

    def test_spectral_norm_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            mc.spectral_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_check_hermitian_rejects_drift(self):
        M = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            mc.check_hermitian(M, "M")

    def test_check_hermitian_accepts_roundoff(self):
        M = np.array([[2.0, 1.0 + 1e-15], [1.0, 2.0]])
        out = mc.check_hermitian(M, "M")
        assert np.allclose(out, out.conj().T)

    def test_hermitian_part_is_hermitian(self):
        rng = seeded_rng(0)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = mc.hermitian_part(M)
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_hermitian_part_halves_first(self, cplx):
        # M/2 + (M/2)* is (M + M*)/2 bit for bit where no half is subnormal, and
        # stays finite where M + M* overflows
        rng = seeded_rng(1)
        for n in (1, 4, 17):
            M = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-250.0, 250.0, (n, n))
            if cplx:
                M = M + 1j * rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-250.0, 250.0, (n, n))
            assert np.array_equal(mc.hermitian_part(M), 0.5 * (M + M.conj().T))
        big = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
        assert np.array_equal(mc.hermitian_part(big.astype(M.dtype)), big)


class TestCongruence:
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_matches_explicit_product(self, n, cplx):
        rng = seeded_rng(100 + n + cplx)
        M = rng.normal(size=(n, n))
        if cplx:
            M = M + 1j * rng.normal(size=(n, n))
            V = random_unitary(rng, n)
        else:
            V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = rng.uniform(0.1, 10.0, size=n)
        got = mc.congruence(V, w, M)
        expected = M.conj().T @ ((V * w) @ V.conj().T) @ M
        assert got.dtype == (np.complex128 if cplx else np.float64)
        assert np.linalg.norm(got - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)


class TestEig:
    def test_q2_eigenvalues_frozen(self):
        # char poly of Q2 factors exactly: roots 6.5, 7.5, 9.5
        values, vectors = mc.herm_eig(Q2)
        assert values == pytest.approx([6.5, 7.5, 9.5], rel=1e-12)
        recon = (vectors * values) @ vectors.conj().T
        assert mc.spectral_norm(recon - Q2) <= 1e-12 * mc.spectral_norm(Q2)

    def test_matches_char_poly_oracle(self):
        rng = seeded_rng(1)
        for _ in range(20):
            M = random_hermitian(rng, 4)
            values, _ = mc.herm_eig(M)
            expected = eigvals_oracle(M)
            scale = max(abs(expected[0]), abs(expected[-1]), 1.0)
            assert np.max(np.abs(values - expected)) <= 1e-8 * scale

    def test_trusted_lambda_min_and_norm(self):
        rng = seeded_rng(13)
        M = random_hermitian(rng, 5)
        values = np.linalg.eigvalsh(M)
        assert mc.trusted_lambda_min(M) == pytest.approx(values[0], rel=1e-12)
        # drift in the upper triangle, which eigvalsh alone would not read
        drifted = M + 1e-9 * np.triu(M, 1)
        expected = np.linalg.eigvalsh(mc.hermitian_part(drifted))[0]
        assert mc.trusted_lambda_min(drifted) == expected != values[0]

    def test_eigenvalues_ascending(self):
        rng = seeded_rng(2)
        values, _ = mc.herm_eig(random_hermitian(rng, 6))
        assert np.all(np.diff(values) >= 0)


class TestPower:
    def test_identity_any_exponent(self):
        for r in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
            assert np.allclose(mc.herm_power(np.eye(3), r), np.eye(3))

    def test_diagonal_exact(self):
        D = np.diag([1.0, 4.0, 9.0])
        assert np.allclose(mc.herm_power(D, 0.5), np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(mc.herm_power(D, -1.0), np.diag([1.0, 0.25, 1 / 9]))

    def test_integer_power_of_indefinite_allowed(self):
        M = np.diag([-2.0, 3.0])
        assert np.allclose(mc.herm_power(M, 2), np.diag([4.0, 9.0]))

    def test_fractional_power_of_indefinite_rejected(self):
        M = np.diag([-2.0, 3.0])
        with pytest.raises(ValueError, match="positive definite"):
            mc.herm_power(M, 0.5)

    def test_negative_power_of_singular_rejected(self):
        M = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="positive definite"):
            mc.herm_power(M, -1.0)

    def test_result_hermitian(self):
        rng = seeded_rng(3)
        M = random_hpd(rng, 5)
        P = mc.herm_power(M, 0.37)
        assert np.array_equal(P, P.conj().T)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r1=st.floats(-1.0, 1.0),
        r2=st.floats(-1.0, 1.0),
    )
    def test_power_law_wide_spectrum(self, seed, r1, r2):
        # |r| <= 1 keeps the composed conditioning within double precision
        rng = seeded_rng(seed)
        M = random_hpd(rng, 4, lo=1e-3, hi=1e3)
        lhs = mc.herm_power(mc.herm_power(M, r1), r2)
        rhs = mc.herm_power(M, r1 * r2)
        assert mc.spectral_norm(lhs - rhs) <= 1e-8 * max(mc.spectral_norm(rhs), 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r1=st.floats(-3.0, 3.0),
        r2=st.floats(-3.0, 3.0),
    )
    def test_power_law_moderate_spectrum(self, seed, r1, r2):
        rng = seeded_rng(seed)
        M = random_hpd(rng, 4, lo=0.1, hi=10.0)
        lhs = mc.herm_power(mc.herm_power(M, r1), r2)
        rhs = mc.herm_power(M, r1 * r2)
        assert mc.spectral_norm(lhs - rhs) <= 1e-8 * max(mc.spectral_norm(rhs), 1e-300)

    def test_power_law_tight_tolerance_mild_conditioning(self):
        # at condition <= 100 the strict eigensolver tolerance is attainable
        rng = seeded_rng(4)
        for _ in range(25):
            M = random_hpd(rng, 4, lo=0.1, hi=10.0)
            for r1, r2 in ((0.5, 2.0), (-1.0, 0.5), (1.5, -0.5), (2.0, 1.5)):
                lhs = mc.herm_power(mc.herm_power(M, r1), r2)
                rhs = mc.herm_power(M, r1 * r2)
                assert mc.spectral_norm(lhs - rhs) <= 1e-12 * mc.spectral_norm(rhs)

    def test_eig_power_is_trusted(self):
        # positive values inside the PD_TOL margin: the trusted kernel takes
        # the power, the gate for spectra from outside the library refuses
        values = np.array([1e-15, 1.0])
        assert np.array_equal(mc.eig_power(values, np.eye(2), 0.5), np.diag(values**0.5))
        with pytest.raises(ValueError, match="positive definite for exponent 0.5"):
            mc.checked_eig_power(values, np.eye(2), 0.5)
        assert np.array_equal(mc.checked_eig_power(-values, np.eye(2), 2.0), np.diag(values**2))

    def test_eig_power_of_clamped_spectrum(self):
        # a clamped congruence spectrum goes through the one kernel, bit for
        # bit as the clamped-power expression it replaces
        rng = seeded_rng(12)
        V = random_unitary(rng, 4)
        values = np.array([-3e-17, 0.0, 0.4, 2.5])
        clamped = np.maximum(values, 0.0)
        expected = mc.hermitian_part((V * clamped**0.75) @ V.conj().T)
        assert np.array_equal(mc.eig_power(clamped, V, 0.75), expected)

    def test_inverse_roundtrip(self):
        rng = seeded_rng(5)
        M = random_hpd(rng, 4)
        assert np.allclose(mc.herm_power(M, -1.0) @ M, np.eye(4), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), r=st.floats(0.1, 3.0))
    def test_order_preserved_by_congruence_root(self, seed, r):
        # X <= Y implies X^r <= Y^r only for r <= 1 (operator monotonicity);
        # test the monotone range
        if r > 1.0:
            r = 1.0 / r
        rng = seeded_rng(seed)
        X = random_hpd(rng, 3)
        Y = X + random_hpd(rng, 3, lo=0.01, hi=1.0)
        scale = max(mc.spectral_norm(X), mc.spectral_norm(Y))
        assert loewner_holds(mc.herm_power(X, r), mc.herm_power(Y, r), scale)


class TestNormRadius:
    def test_spectral_norm_diag(self):
        assert mc.spectral_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0)

    def test_norm_unitary_invariance(self):
        rng = seeded_rng(6)
        M = rng.normal(size=(4, 4))
        U = random_unitary(rng, 4)
        assert mc.spectral_norm(U @ M) == pytest.approx(mc.spectral_norm(M), rel=1e-12)

    def test_radius_zero_matrix(self):
        assert mc.spectral_radius(np.zeros((3, 3))) == 0.0

    def test_radius_nilpotent_is_zero(self):
        N = np.array([[0.0, 5.0], [0.0, 0.0]])
        assert mc.spectral_radius(N) == 0.0

    def test_radius_diagonal(self):
        assert mc.spectral_radius(np.diag([0.5, -2.0])) == pytest.approx(2.0, rel=1e-8)

    def test_radius_identity(self):
        assert mc.spectral_radius(np.eye(4)) == pytest.approx(1.0, rel=1e-8)

    def test_radius_a1_frozen(self):
        # char-poly roots of A1: real 0.14764505977914757 and a complex pair
        # of modulus 0.0946
        assert mc.spectral_radius(A1) == pytest.approx(0.14764505977914757, rel=1e-10)

    def test_radius_b1_frozen(self):
        assert mc.spectral_radius(B1) == pytest.approx(0.0813127443279718, rel=1e-6)

    def test_radius_vs_oracle_random(self):
        rng = seeded_rng(7)
        for _ in range(50):
            M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = mc.spectral_radius(M)
            assert rho == pytest.approx(spectral_radius_oracle(M), rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_radius_below_norm(self, seed):
        rng = seeded_rng(seed)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert mc.spectral_radius(M) <= mc.spectral_norm(M) * (1.0 + 1e-8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_norm_submultiplicative(self, seed):
        rng = seeded_rng(seed)
        M = rng.normal(size=(3, 3))
        N = rng.normal(size=(3, 3))
        assert mc.spectral_norm(M @ N) <= mc.spectral_norm(M) * mc.spectral_norm(N) * (
            1.0 + 1e-12
        )

    def test_radius_similarity_invariance(self):
        rng = seeded_rng(8)
        M = rng.normal(size=(4, 4))
        S = rng.normal(size=(4, 4)) + np.eye(4) * 4
        sim = S @ M @ np.linalg.inv(S)
        assert mc.spectral_radius(sim) == pytest.approx(mc.spectral_radius(M), rel=1e-5)


class TestLoewner:
    def test_reflexive(self):
        rng = seeded_rng(9)
        M = random_hermitian(rng, 4)
        assert loewner_holds(M, M)

    def test_strict_gap(self):
        assert loewner_holds(np.eye(2), 2 * np.eye(2))
        assert not loewner_holds(2 * np.eye(2), np.eye(2))

    def test_incomparable(self):
        X = np.diag([2.0, 0.5])
        Y = np.diag([1.0, 1.0])
        assert not loewner_holds(X, Y)
        assert not loewner_holds(Y, X)

    def test_tolerance_absorbs_roundoff(self):
        M = np.eye(3)
        assert loewner_holds(M + 1e-14 * np.eye(3), M)
        assert not loewner_holds(M + 1e-9 * np.eye(3), M)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_congruence_preserves_order(self, seed):
        rng = seeded_rng(seed)
        X = random_hpd(rng, 3)
        Y = X + random_hpd(rng, 3, lo=0.01, hi=1.0)
        C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        scale = mc.spectral_norm(C) ** 2 * mc.spectral_norm(Y)
        assert loewner_holds(C.conj().T @ X @ C, C.conj().T @ Y @ C, scale)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_reverses_order(self, seed):
        rng = seeded_rng(seed)
        X = random_hpd(rng, 3, lo=0.5, hi=5.0)
        Y = X + random_hpd(rng, 3, lo=0.01, hi=1.0)
        scale = mc.spectral_norm(mc.herm_power(X, -1.0))
        assert loewner_holds(mc.herm_power(Y, -1.0), mc.herm_power(X, -1.0), scale)


class TestHpd:
    def test_identity(self):
        assert is_pd(np.eye(3))

    def test_one_positivity_rule(self):
        # the PD_TOL margin relative to the largest |eigenvalue|
        assert not is_pd(np.diag([1e-13, 1.0]))
        assert is_pd(np.diag([1e-11, 1.0]))

    def test_semidefinite_rejected(self):
        assert not is_pd(np.diag([1.0, 0.0]))

    def test_indefinite_rejected(self):
        assert not is_pd(np.diag([1.0, -1.0]))

    def test_random_hpd_accepted(self):
        rng = seeded_rng(10)
        assert is_pd(random_hpd(rng, 5))

    def test_gram_matrix_accepted(self):
        rng = seeded_rng(11)
        C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert is_pd(C @ C.conj().T + 0.1 * np.eye(4))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1e-300,
                     1e-12, 1.0, 1e300, np.inf, np.nan]
                ),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_endpoint_rule_is_the_modulus_rule(self, values):
        # on an ascending spectrum (np.sort puts a NaN last) the rule read from the
        # two ends decides as the smallest against PD_TOL times the largest modulus
        spectrum = np.sort(np.array(values, dtype=np.float64))
        with np.errstate(all="ignore"):
            modulus_rule = spectrum[0] > mc.PD_TOL * float(np.max(np.abs(spectrum)))
        assert mc.is_pd_spectrum(spectrum) is bool(modulus_rule)

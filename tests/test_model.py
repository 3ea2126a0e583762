"""Model-layer checks: the real 4x4 matrices, the nonlinearity jet, and the
pointwise densities, each against the complex two-spinor form."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracdg.errors import ConfigError, DomainError
from diracdg.model import (
    ALPHA,
    BETA,
    DIRECTIONS,
    GAMMA,
    SIGMA3,
    NLDModel,
    add_rows,
    apply_alpha,
    apply_beta,
    apply_gamma,
    apply_rows,
    charge_density,
    complex_to_real,
    energy_density,
    real_to_complex,
    rho,
    signed_power,
    signed_rows,
)

RNG = np.random.default_rng(20260825)


def random_state(n=7):
    return RNG.standard_normal((4, n))


# --------------------------------------------------------------------------
# matrix structure

def test_matrix_squares():
    assert np.array_equal(ALPHA @ ALPHA, np.eye(4))
    assert np.array_equal(BETA @ BETA, np.eye(4))
    assert np.array_equal(GAMMA @ GAMMA, -np.eye(4))


def test_alpha_and_beta_anticommute():
    # with alpha^2 = beta^2 = I this squares the Dirac operator: the mixed
    # second derivatives drop out of u_ttt in the cascade
    assert np.array_equal(ALPHA @ BETA, -(BETA @ ALPHA))


def test_matrix_symmetries():
    assert np.array_equal(ALPHA, ALPHA.T)
    assert np.array_equal(BETA, BETA.T)
    assert np.array_equal(GAMMA, -GAMMA.T)


def test_apply_matches_matmul():
    u = random_state()
    np.testing.assert_allclose(apply_alpha(u), ALPHA @ u, rtol=0, atol=0)
    np.testing.assert_allclose(apply_beta(u), BETA @ u, rtol=0, atol=0)
    np.testing.assert_allclose(apply_gamma(u), GAMMA @ u, rtol=0, atol=0)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "sigma3", "-alpha",
                                  "-alpha gamma", "-beta gamma"])
def test_signed_rows_apply_and_add_match_matmul(name):
    mats = {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "sigma3": SIGMA3}
    P = np.eye(4)
    for m in name.lstrip("-").split():
        P = P @ mats[m]
    P = -P if name.startswith("-") else P
    u = RNG.standard_normal((4, 5, 3))[:, 1:4]  # a strided view, as in blocks
    rows = signed_rows(P)
    assert np.array_equal(apply_rows(rows, u), np.einsum("ij,j...->i...", P, u))
    out = RNG.standard_normal(u.shape)
    want = out + np.einsum("ij,j...->i...", P, u)
    add_rows(out, rows, u)
    assert np.array_equal(out, want)


def test_direction_table_pairs_each_matrix_with_its_apply():
    # the x and y fluxes of u_t + alpha u_x + beta u_y = g(rho) gamma u
    assert list(DIRECTIONS) == ["x", "y"]
    assert DIRECTIONS["x"].matrix is ALPHA and DIRECTIONS["y"].matrix is BETA
    u = RNG.standard_normal((4, 5, 3))[:, 1:4]
    for f in DIRECTIONS.values():
        assert np.array_equal(f.apply(u), np.einsum("ij,j...->i...", f.matrix, u))


def test_signed_rows_refuses_odd_sign_counts():
    with pytest.raises(ValueError):
        signed_rows(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_apply_does_not_alias_input():
    u = random_state()
    keep = u.copy()
    for f in (apply_alpha, apply_beta, apply_gamma):
        out = f(u)
        out += 1.0
        np.testing.assert_array_equal(u, keep)


def test_gamma_orthogonality():
    # u . (gamma u) = 0 pointwise (to rounding) -- the structural fact
    # behind charge decay
    u = random_state(50)
    scale = np.abs(u).max() ** 2
    assert np.abs(np.sum(u * apply_gamma(u), axis=0)).max() <= 1e-15 * scale


# --------------------------------------------------------------------------
# complex <-> real translation

def test_real_form_matches_complex_equation():
    """alpha/beta/gamma are exactly the real forms of sigma1 dx, sigma2 dy,
    and i g sigma3 acting on (psi1, psi2)."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    psi = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)

    u = complex_to_real(psi[0], psi[1])
    np.testing.assert_allclose(
        apply_alpha(u), complex_to_real(*(s1 @ psi)), atol=1e-15
    )
    np.testing.assert_allclose(
        apply_beta(u), complex_to_real(*(s2 @ psi)), atol=1e-15
    )
    np.testing.assert_allclose(
        apply_gamma(u), complex_to_real(*(-1j * s3 @ psi)), atol=1e-15
    )
    # rho = psi^dagger sigma3 psi
    assert rho(u) == pytest.approx((psi.conj() @ (s3 @ psi)).real, abs=1e-14)


def test_round_trip_complex_real():
    psi1 = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
    psi2 = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
    a, b = real_to_complex(complex_to_real(psi1, psi2))
    np.testing.assert_allclose(a, psi1, atol=0)
    np.testing.assert_allclose(b, psi2, atol=0)


def test_charge_density_is_spinor_modulus():
    u = random_state()
    psi1, psi2 = real_to_complex(u)
    np.testing.assert_allclose(
        charge_density(u), np.abs(psi1) ** 2 + np.abs(psi2) ** 2, atol=1e-14
    )


# --------------------------------------------------------------------------
# scalar self-interaction

def test_g_default_parameters():
    m = NLDModel()
    assert m.m == 1.0 and m.lam == 0.5 and m.kappa == 1.0
    assert m.g(0.0) == 1.0
    assert m.g(0.5) == pytest.approx(0.5)  # 1 - 2*(1/2)*s


@pytest.mark.parametrize("field", ["m", "lam", "kappa"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_a_non_finite_parameter(field, bad):
    with pytest.raises(ConfigError, match=f"parameter {field} must be finite"):
        NLDModel(**{field: bad})


@given(st.floats(-3, 3), st.integers(1, 3))
def test_g_jet_matches_value(s, kappa):
    model = NLDModel(kappa=float(kappa))
    g0, *_ = model.g_jet(s, 3)
    assert g0 == pytest.approx(model.g(s), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 2.5, 3.0])
def test_g_jet_derivatives_fd(kappa):
    model = NLDModel(kappa=kappa)
    s = 0.7
    g0, g1, g2, g3 = model.g_jet(s, 3)
    h = 1e-4
    gm2, gm1, gp1, gp2 = (model.g(s + k * h) for k in (-2, -1, 1, 2))
    fd1 = (gm2 - 8 * gm1 + 8 * gp1 - gp2) / (12 * h)
    fd2 = (-gm2 + 16 * gm1 - 30 * g0 + 16 * gp1 - gp2) / (12 * h * h)
    # third derivative needs a wide step or the cancellation eats everything
    H = 0.05
    gm2, gm1, gp1, gp2 = (model.g(s + k * H) for k in (-2, -1, 1, 2))
    fd3 = (gp2 - 2 * gp1 + 2 * gm1 - gm2) / (2 * H**3)
    assert g1 == pytest.approx(fd1, rel=1e-8, abs=1e-8)
    assert g2 == pytest.approx(fd2, rel=1e-5, abs=1e-5)
    assert g3 == pytest.approx(fd3, rel=1e-2, abs=1e-4)


def test_g_jet_kappa1_higher_derivatives_vanish():
    g0, g1, g2, g3 = NLDModel().g_jet(0.3, 3)
    assert g1 == -1.0
    assert g2 == 0.0 and g3 == 0.0


def test_signed_power():
    assert signed_power(-2.0, 3.0) == -8.0
    assert signed_power(np.array([4.0, 9.0]), 0.5)[1] == 3.0
    # fractional powers of negative arguments have no real value
    with pytest.raises(DomainError):
        signed_power(np.array([-1.0]), 0.5)


def test_signed_power_fractional_negative_scalar():
    with pytest.raises(DomainError):
        signed_power(-2.0, 1.5)


# --------------------------------------------------------------------------
# densities

def test_energy_density_spec_example():
    # state (a,0,0,0): rho_E = m a^2 - lam a^4; a=1, lam=1/2 -> 0.5
    u = np.array([1.0, 0.0, 0.0, 0.0]).reshape(4, 1)
    ux = np.zeros((4, 1))
    val = energy_density(u, ux, NLDModel())
    assert val[0] == pytest.approx(0.5, abs=1e-15)


def test_energy_density_matches_complex_form():
    """rho_E = Im(psi^dag sigma1 psi_x) [+ Im(psi^dag sigma2 psi_y)] + G(s)
    with G = m s - lam s^(kappa+1)."""
    model = NLDModel(m=1.3, lam=0.7, kappa=2.0)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    u, ux, uy = (random_state(6) for _ in range(3))
    psi = np.stack(real_to_complex(u))
    psix = np.stack(real_to_complex(ux))
    psiy = np.stack(real_to_complex(uy))
    s = np.einsum("cp,cd,dp->p", psi.conj(), s3, psi).real
    expect = (
        np.einsum("cp,cd,dp->p", psi.conj(), s1, psix).imag
        + np.einsum("cp,cd,dp->p", psi.conj(), s2, psiy).imag
        + model.m * s
        - model.lam * signed_power(s, model.kappa + 1.0)
    )
    np.testing.assert_allclose(
        energy_density(u, ux, model, uy), expect, rtol=1e-12, atol=1e-12
    )


def test_nonlinear_term_structure():
    model = NLDModel()
    u = random_state()
    expect = model.g(rho(u)) * apply_gamma(u)
    np.testing.assert_allclose(model.nonlinear_term(u), expect, atol=0)

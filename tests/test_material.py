import numpy as np
import pytest
from hypothesis import given, strategies as st

from kerrfem.material import (
    MaterialError,
    MaterialParams,
    cm_matrix,
    d_of_e,
    e_of_d,
    eps_matrix,
)


def test_invalid_params_rejected():
    with pytest.raises(MaterialError):
        MaterialParams(eps0=0.0)
    with pytest.raises(MaterialError):
        MaterialParams(mu0=-1.0)
    with pytest.raises(MaterialError, match="chi1"):
        MaterialParams(chi1=-0.1)
    with pytest.raises(MaterialError, match="chi3"):
        MaterialParams(chi3=-1.0)


@pytest.mark.parametrize("name", ["eps0", "mu0", "chi1", "chi3"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_params_rejected_by_name(name, value):
    # NaN compares False with every bound, so each parameter is checked for
    # finiteness first
    with pytest.raises(MaterialError, match=f"{name} must be finite"):
        MaterialParams(**{name: value})


def test_eps_vacuum_is_identity():
    p = MaterialParams(eps0=2.5)
    E = np.array([3.0, -1.0, 0.5])
    assert np.allclose(eps_matrix(p, E), 2.5 * np.eye(3))


def test_eps_kerr_example():
    p = MaterialParams(eps0=1.0, chi1=0.0, chi3=1.0)
    m = eps_matrix(p, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(m, np.diag([4.0, 2.0, 2.0]))
    assert np.linalg.eigvalsh(m).min() >= 1.0


def test_eps_positive_definite_randomized():
    rng = np.random.default_rng(42)
    n = 10_000
    chi1 = rng.uniform(0.0, 3.0, size=n)
    chi3 = rng.uniform(0.0, 3.0, size=n)
    eps0 = rng.uniform(0.1, 3.0, size=n)
    psi = rng.normal(scale=2.0, size=(n, 3))
    phi = rng.normal(scale=2.0, size=(n, 3))
    es = 1.0 + chi1 + chi3 * np.sum(psi * psi, axis=1)
    quad = eps0 * (es * np.sum(phi * phi, axis=1)
                   + 2.0 * chi3 * np.sum(psi * phi, axis=1) ** 2)
    assert np.all(quad >= eps0 * np.sum(phi * phi, axis=1) - 1e-14)


def test_cm_example_and_vacuum():
    p = MaterialParams(eps0=1.0, chi1=0.0, chi3=1.0)
    cm = cm_matrix(p, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(cm, np.diag([0.25, 0.5, 0.5]))
    assert np.allclose(cm @ np.diag([4.0, 2.0, 2.0]), np.eye(3))
    p0 = MaterialParams()
    assert np.allclose(cm_matrix(p0, np.array([1.0, 2.0, 3.0])), np.eye(3))


def test_cm_inverts_eps_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = MaterialParams(
            eps0=rng.uniform(0.1, 4.0),
            chi1=rng.uniform(0.0, 2.0),
            chi3=rng.uniform(0.0, 2.0),
        )
        E = rng.normal(scale=2.0, size=3)
        prod = (cm_matrix(p, E) / p.eps0) @ eps_matrix(p, E)
        assert np.abs(prod - np.eye(3)).max() <= 1e-12


def test_cm_matches_numerical_inverse():
    rng = np.random.default_rng(5)
    p = MaterialParams(eps0=2.0, chi1=0.5, chi3=1.5)
    for _ in range(50):
        E = rng.normal(size=3)
        assert np.abs(
            cm_matrix(p, E) / p.eps0 - np.linalg.inv(eps_matrix(p, E))
        ).max() <= 1e-12


def test_d_of_e_examples():
    p = MaterialParams(eps0=1.0, chi3=1.0)
    assert np.allclose(d_of_e(p, np.zeros(3)), 0.0)
    assert np.allclose(d_of_e(p, np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0])


def test_d_of_e_jacobian_is_eps_matrix():
    rng = np.random.default_rng(11)
    p = MaterialParams(eps0=1.3, chi1=0.4, chi3=0.9)
    E = rng.normal(size=3)
    delta = 1e-6
    jac = np.zeros((3, 3))
    for k in range(3):
        step = np.zeros(3)
        step[k] = delta
        jac[:, k] = (d_of_e(p, E + step) - d_of_e(p, E - step)) / (2 * delta)
    assert np.abs(jac - eps_matrix(p, E)).max() < 1e-6


def test_e_of_d_examples():
    p = MaterialParams(eps0=1.0, chi3=1.0)
    assert np.allclose(e_of_d(p, np.zeros(3)), 0.0)
    assert np.allclose(e_of_d(p, np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])


def test_constitutive_roundtrip_randomized():
    rng = np.random.default_rng(3)
    p = MaterialParams(eps0=1.7, chi1=0.8, chi3=2.5)
    D = rng.normal(scale=5.0, size=(1000, 3))
    back = d_of_e(p, e_of_d(p, D))
    denom = np.maximum(np.linalg.norm(D, axis=1), 1e-300)
    assert np.max(np.linalg.norm(back - D, axis=1) / denom) <= 1e-12


def test_chain_rule_energy_identity():
    # E . (eps(E) dE/dt) equals the time derivative of the electric energy
    # density, verified by central differences along a smooth path.
    p = MaterialParams(eps0=1.4, chi1=0.6, chi3=1.1)
    rng = np.random.default_rng(2)
    A = rng.normal(size=3)
    B = rng.normal(size=3)

    def E(t):
        return A * np.cos(t) + B * np.sin(2 * t)

    def dE(t):
        return -A * np.sin(t) + 2 * B * np.cos(2 * t)

    def density(t):
        e2 = E(t) @ E(t)
        return 0.5 * p.eps_lin * e2 + 0.75 * p.eps0 * p.chi3 * e2 * e2

    for t in (0.2, 0.9, 1.7):
        lhs = E(t) @ (eps_matrix(p, E(t)) @ dE(t))
        errs = []
        for delta in (1e-3, 5e-4):
            fd = (density(t + delta) - density(t - delta)) / (2 * delta)
            errs.append(abs(fd - lhs))
            assert abs(fd - lhs) <= 1e-4 * max(1.0, abs(lhs))
        # central differences: error drops by ~4 when delta halves
        assert errs[0] / max(errs[1], 1e-14) > 3.0


def test_e_of_d_linear_fast_path():
    p = MaterialParams(eps0=2.0, chi1=1.0, chi3=0.0)
    D = np.array([4.0, -2.0, 6.0])
    assert np.allclose(e_of_d(p, D), D / 4.0)


# nondimensional parameters, and SI-scale ones (eps0, mu0 in SI units with
# chi3 in m^2/V^2); chi3 is drawn by decimal exponent
NONDIM = st.builds(
    MaterialParams,
    chi1=st.floats(0.0, 10.0),
    chi3=st.one_of(st.just(0.0), st.floats(-12.0, 2.0).map(lambda x: 10.0**x)),
)
SI = st.builds(
    MaterialParams,
    eps0=st.just(8.854e-12),
    mu0=st.just(1.2566e-6),
    chi1=st.floats(0.0, 10.0),
    chi3=st.floats(-30.0, -18.0).map(lambda x: 10.0**x),
)


@given(
    params=st.one_of(NONDIM, SI),
    log_mag=st.floats(-150.0, 150.0),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
)
def test_constitutive_round_trip_extreme_magnitudes(params, log_mag, direction):
    v = np.asarray(direction)
    D = 10.0**log_mag * v / np.linalg.norm(v)
    back = d_of_e(params, e_of_d(params, D))
    assert np.linalg.norm(back - D) <= 1e-14 * np.linalg.norm(D)


@pytest.mark.parametrize("params", [
    MaterialParams(chi1=0.5, chi3=1.0),
    MaterialParams(eps0=8.854e-12, mu0=1.2566e-6, chi1=2.5, chi3=1e-22),
], ids=["nondim", "si"])
@pytest.mark.parametrize("magnitude", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.36, -0.48, 0.8)])
def test_constitutive_round_trip_below_squared_underflow(params, magnitude, direction):
    # |D|^2 underflows here, yet E keeps D's direction and D(E(D)) = D; the
    # errors are taken componentwise, since a 2-norm would underflow too
    D = magnitude * np.asarray(direction)
    E = e_of_d(params, D)
    back = d_of_e(params, E)
    assert np.abs(back - D).max() <= 1e-14 * np.abs(D).max()
    assert np.abs(E / np.abs(E).max() - D / np.abs(D).max()).max() <= 1e-14

"""Standing/travelling wave generator and the manufactured forcing.

The 1D profile has a closed form for every power kappa, which makes it the
primary oracle: with beta = sqrt(m^2 - omega^2),

    s(x)   = [ beta^2 / (lambda (m + omega cosh(2 kappa beta x))) ]^(1/kappa)
    P      = (m s - lambda s^(kappa+1)) / omega
    phi    = sqrt((P + s)/2),  chi = sign(x) sqrt((P - s)/2).

2D profiles have no closed form; they are pinned by the recomputed
collocation residual, the known exponential decay rate, and frozen charge
values from this solver (regression guards, quoted to 7 digits).
"""

import importlib.util
import math
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from diracdg import pool, waves
from diracdg.errors import ConfigError, DomainError
from diracdg.model import NLDModel
from diracdg.waves import (
    MMS_C1,
    MMS_C2,
    MMSSource,
    decay_rate,
    load_profile,
    mms_space_jet,
    mms_state,
    profile_charge,
    save_profile,
    solve_standing_wave,
    superposed_real,
    superposed_state,
    wave_ode_residual,
    wave_state,
)

RNG = np.random.default_rng(23)


def _density(psi1, psi2):
    return np.abs(psi1) ** 2 + np.abs(psi2) ** 2


def closed_form(omega, x, model=None):
    model = model or NLDModel()
    m, lam, kap = model.m, model.lam, model.kappa
    beta = np.sqrt(m * m - omega * omega)
    s = (beta**2 / (lam * (m + omega * np.cosh(2 * kap * beta * x)))) ** (
        1.0 / kap
    )
    P = (m * s - lam * s ** (kap + 1)) / omega
    phi = np.sqrt((P + s) / 2.0)
    chi = np.sign(x) * np.sqrt(np.maximum(P - s, 0.0) / 2.0)
    return phi, chi


@pytest.fixture(scope="module")
def prof_1d():
    return solve_standing_wave(0.8, dim=1)


@pytest.fixture(scope="module")
def prof_2d():
    return solve_standing_wave(0.8, dim=2)


@pytest.fixture(scope="module")
def prof_2d_quintic():
    return solve_standing_wave(0.94, dim=2, model=NLDModel(kappa=2.0))


# --------------------------------------------------------------------------
# 1D: collocation vs closed form

@pytest.mark.parametrize("omega,kappa", [(0.8, 1.0), (0.9, 2.0), (0.5, 1.0),
                                         (0.6, 0.5), (0.8, 1.5)])
def test_1d_profile_matches_closed_form(omega, kappa):
    model = NLDModel(kappa=kappa)
    prof = solve_standing_wave(omega, dim=1, model=model)
    x = np.linspace(0.0, 12.0, 400)
    phi, chi = closed_form(omega, x, model)
    assert np.abs(prof.phi(x) - phi).max() < 1e-12
    assert np.abs(prof.phi_chi(x)[1] - chi).max() < 1e-12
    # the collocated system at the profile: small on the interior rows, and
    # the decay rows p(R) = w(R) = 0 read the truncation of the wave at R
    # (2.6e-8 at omega = 0.9, kappa = 2)
    _, Dr, cc = waves._collocation(prof.N, prof.R, 1, 0)
    F, _ = waves._radial_system(prof.p, prof.w, prof.r, Dr, cc, omega, model, 0, False)
    n = prof.N + 1
    assert np.abs(np.delete(F, [0, n])).max() < 1e-10
    phi_R, chi_R = closed_form(omega, np.array([prof.R]), model)
    np.testing.assert_allclose(F[[0, n]], [phi_R[0], chi_R[0] / prof.R], rtol=1e-12)
    assert wave_ode_residual(prof) == prof.residual == np.abs(F).max()


@pytest.mark.parametrize("v, x0", [(0.0, 0.0), (-0.2, 1.5)])
def test_1d_profile_matches_the_benchmark_reference(v, x0):
    """The soliton-1d wave, standing and boosted, against
    `perfbench/reference.soliton_1d`, which shares no code with the package."""
    path = Path(__file__).parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    prof = solve_standing_wave(0.8, dim=1, model=NLDModel(kappa=2.0))
    x = np.linspace(-30.0, 30.0, 1001)  # |comoving x| < R
    want = ref.soliton_1d(0.8, 2.0, v, x0, 0.7, x)
    got = superposed_real([{"profile": prof, "v": v, "x0": x0}], 0.7, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_1d_charge_matches_quadrature_of_closed_form(prof_1d):
    x = np.linspace(-60.0, 60.0, 200001)
    phi, chi = closed_form(0.8, x)
    q_ref = np.trapezoid(phi * phi + chi * chi, x)
    assert profile_charge(prof_1d) == pytest.approx(q_ref, rel=1e-8)


def test_1d_decay_rate(prof_1d):
    assert decay_rate(prof_1d) == pytest.approx(0.6, rel=0.02)


def test_wave_state_is_phase_rotation(prof_1d):
    x = np.linspace(-8.0, 8.0, 101)
    t = 0.7
    psi1, psi2 = wave_state(prof_1d, t, x)
    phi, chi = closed_form(0.8, x)
    rot = np.exp(-1j * 0.8 * t)
    np.testing.assert_allclose(psi1, phi * rot, atol=1e-9)
    np.testing.assert_allclose(psi2, 1j * chi * rot, atol=1e-9)


# --------------------------------------------------------------------------
# 2D: residual, decay, frozen charge

def test_2d_profile_invariants(prof_2d):
    assert wave_ode_residual(prof_2d) < 1e-10
    assert decay_rate(prof_2d) == pytest.approx(0.6, rel=0.05)
    assert profile_charge(prof_2d) == pytest.approx(9.936883, rel=1e-5)
    # ground state: no interior sign change of phi
    r = np.linspace(0.0, 10.0, 500)
    assert prof_2d.phi(r).min() >= -1e-12


def test_2d_quintic_profile_invariants(prof_2d_quintic):
    beta = prof_2d_quintic.decay_exponent
    assert wave_ode_residual(prof_2d_quintic) < 1e-10
    assert decay_rate(prof_2d_quintic) == pytest.approx(beta, rel=0.05)
    assert profile_charge(prof_2d_quintic) == pytest.approx(8.822557, rel=1e-5)


def test_2d_deep_frequency_via_continuation():
    prof = solve_standing_wave(0.12, dim=2)
    assert wave_ode_residual(prof) < 1e-10
    assert decay_rate(prof) == pytest.approx(prof.decay_exponent, rel=0.05)


@pytest.mark.parametrize("omega, dim, kappa, most", [
    (0.8, 1, 2.0, 0),    # soliton-1d: the closed form, no solve
    (0.8, 2, 1.0, 7),    # travelling-2d and the 2D cubic presets
    (0.94, 2, 2.0, 90),  # ex48-breathing: continuation from omega = 0.8
], ids=["soliton-1d", "travelling-2d", "ex48"])
def test_profile_takes_full_newton_steps_near_the_root(monkeypatch, omega, dim,
                                                       kappa, most):
    """Full steps from max|delta| < 0.1 on: released only below 1e-3, the
    same 2D profiles took 12 and 206 solves (182 on two BLAS threads)."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(None) or solve(*a))
    prof = solve_standing_wave(omega, dim=dim, model=NLDModel(kappa=kappa))
    assert prof.residual < 1e-10
    assert len(calls) <= most


def test_resolution_insensitivity():
    a = solve_standing_wave(0.8, dim=1, N=200)
    b = solve_standing_wave(0.8, dim=1, N=256)
    x = np.linspace(0.0, 20.0, 300)
    assert np.abs(a.phi(x) - b.phi(x)).max() < 1e-10


def _bary_weights(n: int):
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _bary_eval(nodes, wts, vals, x):
    """Barycentric interpolation through (nodes, vals); exact at the nodes."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    c = wts / diff
    res = (c @ vals) / c.sum(axis=1)
    rows, cols = np.nonzero(hit)
    res[rows] = vals[cols]
    return res


def _bary_reference(prof, r):
    """(phi, chi) by barycentric interpolation of the node values."""
    inside = r <= prof.R
    rs = np.where(inside, r, 0.0)
    wts = _bary_weights(prof.N)
    return (
        np.where(inside, _bary_eval(prof.r, wts, prof.p, rs) * rs**prof.S, 0.0),
        np.where(inside, _bary_eval(prof.r, wts, prof.w, rs) * rs ** (prof.S + 1), 0.0),
    )


@pytest.mark.parametrize("dim, S, kappa", [(1, 0, 1.0), (1, 0, 2.0),
                                           (2, 0, 1.0), (2, 1, 1.0)])
def test_clenshaw_matches_barycentric(dim, S, kappa):
    prof = solve_standing_wave(0.8, dim=dim, S=S, model=NLDModel(kappa=kappa))
    R = prof.R
    r = np.concatenate([RNG.uniform(0.0, R, 500), prof.r,
                        [0.0, R, R * (1 + 1e-12), R + 1.0]])
    ref_phi, ref_chi = _bary_reference(prof, r)
    phi, chi = prof.phi_chi(r)
    tol = 1e-13 * np.abs(ref_phi).max()
    np.testing.assert_allclose(phi, ref_phi, rtol=0, atol=tol)
    np.testing.assert_allclose(chi, ref_chi, rtol=0, atol=tol)
    outside = r > R
    assert np.all(phi[outside] == 0.0) and np.all(chi[outside] == 0.0)
    np.testing.assert_array_equal(prof.phi(r), phi)


def test_phi_chi_does_not_depend_on_the_clenshaw_blocks(prof_2d):
    """Radii past one block of the Clenshaw sum give, bit for bit, the
    values of the same radii taken in slices that cut the blocks elsewhere."""
    r = np.linspace(0.0, prof_2d.R, 20_000)
    whole = prof_2d.phi_chi(r)
    parts = [prof_2d.phi_chi(r[lo : lo + 3000]) for lo in range(0, r.size, 3000)]
    for i in (0, 1):
        np.testing.assert_array_equal(whole[i], np.concatenate([p[i] for p in parts]))


def test_pooled_clenshaw_sum_is_the_serial_one(prof_2d, monkeypatch):
    """Above the pool's size rule the blocks of the sum go through
    `pool.map`; the result is the bytes of the same blocks summed in turn,
    for a flat, a 2-D and a 0-d input."""
    rows = prof_2d._coef.shape[0]
    n = (pool.MIN_ELEMENTS // (rows * waves._CHUNK) + 2) * waves._CHUNK + 777
    s = np.linspace(-1.0, 1.0, n)
    assert pool.large(np.empty((rows, n)))  # several blocks and a remainder
    mapped = []
    pooled_map = pool.map
    monkeypatch.setattr(pool, "map", lambda fn, items: mapped.append(len(items))
                        or pooled_map(fn, items))
    pooled = waves._clenshaw(prof_2d._coef, s)
    pooled_2d = waves._clenshaw(prof_2d._coef, s[:-1].reshape(-1, 2))
    assert mapped == [n // waves._CHUNK + 1] * 2
    monkeypatch.setattr(pool, "map", map)
    serial = waves._clenshaw(prof_2d._coef, s)
    assert pooled.shape == (rows, n)
    assert pooled.tobytes() == serial.tobytes()
    assert pooled_2d.shape == (rows, n // 2, 2)
    assert pooled_2d.tobytes() == serial[:, :-1].tobytes()
    point = waves._clenshaw(prof_2d._coef, s[5])
    assert point.shape == (rows,)
    assert point.tobytes() == serial[:, 5].tobytes()


def test_profile_vanishes_outside_support(prof_2d):
    r = np.array([prof_2d.R + 1.0, prof_2d.R + 10.0])
    assert np.all(prof_2d.phi(r) == 0.0)
    assert np.all(prof_2d.phi_chi(r)[1] == 0.0)


# --------------------------------------------------------------------------
# boosts

def test_boost_at_zero_velocity_is_identity(prof_2d):
    x = RNG.uniform(-5, 5, 40)
    y = RNG.uniform(-5, 5, 40)
    p1, p2 = wave_state(prof_2d, 0.3, x, y)
    b1, b2 = wave_state(prof_2d, 0.3, x, y, v=0.0)
    np.testing.assert_array_equal(p1, b1)
    np.testing.assert_array_equal(p2, b2)


def test_boost_breaks_y_reflection_symmetry(prof_2d):
    # the unboosted density is y-symmetric; the spinor mixing of a boost
    # along x destroys that exactly as expected
    x = np.full(60, 0.7)
    y = np.linspace(0.1, 4.0, 60)

    def asym(v):
        up = _density(*wave_state(prof_2d, 0.2, x, y, v=v))
        dn = _density(*wave_state(prof_2d, 0.2, x, -y, v=v))
        return np.abs(up - dn).max()

    assert asym(0.0) <= 1e-12
    assert asym(0.5) > 1e-3


def test_boost_preserves_total_charge_1d(prof_1d):
    x = np.linspace(-60.0, 60.0, 48001)
    q0 = np.trapezoid(_density(*wave_state(prof_1d, 0.0, x)), x)
    for v in (0.3, 0.5):
        p1, p2 = wave_state(prof_1d, 0.0, x, v=v)
        qv = np.trapezoid(_density(p1, p2), x)
        assert qv == pytest.approx(q0, rel=5e-3)


def test_boost_speed_validated(prof_1d):
    with pytest.raises(ConfigError):
        wave_state(prof_1d, 0.0, np.zeros(3), v=1.0)


# --------------------------------------------------------------------------
# superpositions

def test_superposition_adds_spinors(prof_1d):
    x = np.linspace(-10, 10, 41)
    specs = [
        {"profile": prof_1d, "x0": -4.0, "v": 0.2},
        {"profile": prof_1d, "x0": 4.0, "v": -0.2},
    ]
    s1, s2 = superposed_state(specs, 0.5, x)
    a1, a2 = wave_state(prof_1d, 0.5, x, v=0.2, x0=-4.0)
    b1, b2 = wave_state(prof_1d, 0.5, x, v=-0.2, x0=4.0)
    np.testing.assert_allclose(s1, a1 + b1, atol=1e-14)
    np.testing.assert_allclose(s2, a2 + b2, atol=1e-14)
    u = superposed_real(specs, 0.5, x)
    np.testing.assert_allclose(u[0] + 1j * u[2], s1, atol=1e-14)
    np.testing.assert_allclose(u[1] + 1j * u[3], s2, atol=1e-14)


# --------------------------------------------------------------------------
# persistence

def test_profile_save_load_roundtrip(tmp_path, prof_2d_quintic):
    path = tmp_path / "wave.txt"
    save_profile(path, prof_2d_quintic)
    back = load_profile(path)
    assert back.dim == 2 and back.S == prof_2d_quintic.S
    assert back.omega == pytest.approx(prof_2d_quintic.omega, abs=0)
    assert back.model.kappa == 2.0
    np.testing.assert_allclose(back.r, prof_2d_quintic.r, atol=1e-15)
    r = np.linspace(0, 10, 200)
    np.testing.assert_allclose(
        back.phi(r), prof_2d_quintic.phi(r), atol=1e-12
    )
    assert wave_ode_residual(back) < 1e-10


def _assert_same_doubles(back, prof):
    for key in ("r", "p", "w"):
        assert getattr(back, key).tobytes() == getattr(prof, key).tobytes(), key


def test_profile_reload_gives_the_same_doubles(tmp_path, prof_1d, prof_2d_quintic):
    for i, prof in enumerate((prof_1d, prof_2d_quintic)):
        save_profile(tmp_path / f"wave{i}.txt", prof)
        _assert_same_doubles(load_profile(tmp_path / f"wave{i}.txt"), prof)


@pytest.mark.parametrize("S", [0, 1])
def test_profile_roundtrip_evaluates_identically(tmp_path, S):
    prof = solve_standing_wave(0.8, dim=2, S=S)
    path = tmp_path / "wave.txt"
    save_profile(path, prof)
    r = np.concatenate([[0.0], RNG.uniform(0.0, prof.R, 300), [prof.R]])
    tol = 1e-14 * np.abs(prof.phi(r)).max()
    for a, b in zip(load_profile(path).phi_chi(r), prof.phi_chi(r)):
        np.testing.assert_allclose(a, b, rtol=0, atol=tol)
    _assert_same_doubles(load_profile(path), prof)
    # a file without a header line is refused by name, and one of the
    # former r phi chi columns by its format
    text = path.read_text()
    path.write_text("".join(ln for ln in text.splitlines(keepends=True)
                            if not ln.startswith("# omega =")))
    with pytest.raises(ConfigError, match="'omega'"):
        load_profile(path)
    path.write_text(text.replace("# columns: r p w", "# columns: r phi chi"))
    with pytest.raises(ConfigError, match="'columns: r p w' format"):
        load_profile(path)


# --------------------------------------------------------------------------
# solver guard rails

def test_solver_rejects_bad_requests():
    with pytest.raises(ConfigError):
        solve_standing_wave(1.0)  # omega = m: no localised wave
    with pytest.raises(ConfigError):
        solve_standing_wave(1.3)
    with pytest.raises(ConfigError):
        solve_standing_wave(0.8, dim=3)
    with pytest.raises(ConfigError):
        solve_standing_wave(0.8, dim=1, S=1)


# --------------------------------------------------------------------------
# manufactured field and forcing

def test_mms_state_starts_from_rest():
    x = RNG.uniform(-2, 2, 30)
    y = RNG.uniform(-2, 2, 30)
    assert np.abs(mms_state(x, y, 0.0)).max() == 0.0
    src = MMSSource(NLDModel())
    assert np.abs(src.jet(x, y, 0.0, depth=1)["val"]).max() == 0.0


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_mms_source_values_equal_the_jet_value(kappa):
    # the value-only path must reproduce the jet's 'val' bit for bit
    from diracdg.mesh import DGSpace2D, Grid2D

    space = DGSpace2D(Grid2D(-2.0, 2.0, 9, -1.5, 2.5, 6), 2)
    src = MMSSource(NLDModel(kappa=kappa))
    for t in (0.0, 0.35, 1.7):
        want = src.jet(*space.points, t, depth=1)["val"]
        np.testing.assert_array_equal(src.jet(*space.points, t, depth=0)["val"], want)
        assert sorted(src.jet(*space.points, t, depth=0)) == ["val"]


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
def test_mms_jet_depths_agree_bit_for_bit(kappa):
    # rkdg reads depth 0, tsdg depth 1 and lwdg depth 3 of the same source
    from diracdg.mesh import DGSpace2D, Grid2D

    space = DGSpace2D(Grid2D(-2.0, 2.0, 7, -1.5, 2.5, 5), 2)
    src = MMSSource(NLDModel(kappa=kappa))
    for points in (space.points, space.edge_points["x"]):
        for t in (0.35, 1.7):
            deep = src.jet(*points, t, depth=3)
            assert list(deep) == ["val", "t", "x", "y", "lap",
                                  "tx", "ty", "tt", "ttt"]
            for depth in (0, 1):
                shallow = src.jet(*points, t, depth=depth)
                assert list(shallow) == list(deep)[: depth + 1]
                for key, val in shallow.items():
                    assert val.tobytes() == deep[key].tobytes(), (depth, key)


# d^k/dz^k exp(-s z^2) = h_k(z; s) exp(-s z^2), written apart from waves._HERMITE
# so that the reference below shares no code with what it checks
_REF_HERMITE = (
    lambda z, s: 1.0,
    lambda z, s: -2.0 * s * z,
    lambda z, s: 4.0 * s * s * z * z - 2.0 * s,
    lambda z, s: -8.0 * s**3 * z**3 + 12.0 * s * s * z,
)


def _power_jet(x, y, t, p: int):
    """(a, b, c) -> d_x^a d_y^b d_t^c phi^p for an integer p >= 1 and
    a, b <= 3, where phi^p = t^(4p) E^p and E = exp(-5(x^2+y^2)).  E^p is
    taken by repeated multiplication, and each derivative is formed once,
    when first asked for."""
    E = np.exp(-5.0 * (x * x + y * y))
    Ep = E
    for _ in range(p - 1):
        Ep = Ep * E
    n, s = 4 * p, 5.0 * p

    @cache
    def d(a: int, b: int, c: int):
        # d^c/dt^c t^n = n (n-1) ... (n-c+1) t^(n-c)
        return (math.perm(n, c) * t ** (n - c) * _REF_HERMITE[a](x, s)
                * _REF_HERMITE[b](y, s) * Ep)

    return d


def _field_of(f):
    z = np.zeros_like(f)
    return np.stack([MMS_C1 * f, MMS_C2 * f, z, z])


def test_mms_field_and_space_jet_are_the_power_jet_bits():
    # perm(4, 0) = 1, so the closed form t^4 h_a h_b E multiplies in the
    # reference's order and must give its bits, at one time for all points
    # and at a time per point
    from diracdg.mesh import DGSpace2D, Grid2D

    space = DGSpace2D(Grid2D(-2.0, 2.0, 7, -1.5, 2.5, 5), 2)
    rng = np.random.default_rng(29)
    for x, y in (space.points, space.edge_points["x"], rng.uniform(-1, 1, (2, 40))):
        per_point = rng.uniform(0.0, 2.0, np.broadcast_shapes(x.shape, y.shape))
        for t in (0.0, 0.3, 1.7, per_point):
            phi = _power_jet(x, y, t, 1)
            assert mms_state(x, y, t).tobytes() == _field_of(phi(0, 0, 0)).tobytes()
            jet = mms_space_jet(x, y, t)
            assert list(jet) == ["u", "x", "y", "xx", "xy", "yy",
                                 "xxx", "xxy", "xyy", "yyy"]
            for key, val in jet.items():
                want = _field_of(phi(key.count("x"), key.count("y"), 0))
                assert val.tobytes() == want.tobytes(), key


def _reference_mms_jet(src, x, y, t, keys):
    """The source from `_power_jet`: each derivative of phi and phi^p formed
    whole, then R assembled component by component; "lap" is R_xx + R_yy."""
    phi, phip = _power_jet(x, y, t, 1), _power_jet(x, y, t, src.p)

    def R(key):
        a, b, c = (key.count(axis) for axis in "xyt")
        ft, fx, fy = phi(a, b, c + 1), phi(a + 1, b, c), phi(a, b + 1, c)
        G = src.model.m * phi(a, b, c) + src.cp * phip(a, b, c)
        return np.stack([MMS_C1 * ft + MMS_C2 * fx, MMS_C2 * ft + MMS_C1 * fx,
                         -MMS_C2 * fy + MMS_C1 * G, MMS_C1 * fy - MMS_C2 * G])

    return {key: R("xx") + R("yy") if key == "lap" else R(key) for key in keys}


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 3.0])
def test_mms_jet_equals_the_power_jet_reference(kappa):
    # the cached factors re-associate each product, so the two agree to
    # rounding: within 1e-14 of each key's largest entry, also with a time
    # per point
    from diracdg.mesh import DGSpace2D, Grid2D

    space = DGSpace2D(Grid2D(-2.0, 2.0, 7, -1.5, 2.5, 5), 2)
    src = MMSSource(NLDModel(kappa=kappa))
    rng = np.random.default_rng(19)
    keys = ["val", "t", "x", "y", "lap", "tx", "ty", "tt", "ttt"]
    for points in (space.points, *space.edge_points.values()):
        per_point = rng.uniform(0.0, 1.0, np.broadcast_shapes(*map(np.shape, points)))
        for t in (0.0, 0.03, 1.0, per_point):
            want = _reference_mms_jet(src, *points, t, keys)
            for depth, n in ((0, 1), (1, 2), (3, len(keys))):
                got = src.jet(*points, t, depth=depth)
                assert list(got) == keys[:n]
                for key, val in got.items():
                    assert val.shape == want[key].shape
                    err = np.abs(val - want[key]).max()
                    assert err <= 1e-14 * np.abs(want[key]).max(), (depth, key)


def test_mms_jet_on_copied_points_is_the_same_bits():
    from diracdg.mesh import DGSpace2D, Grid2D

    space = DGSpace2D(Grid2D(-2.0, 2.0, 7, -1.5, 2.5, 5), 2)
    src = MMSSource(NLDModel(kappa=2.0))
    x, y = space.points
    own = src.jet(x, y, 0.35)
    copied = src.jet(x.copy(), y.copy(), 0.35)
    assert list(copied) == list(own)
    for key, val in own.items():
        assert copied[key].tobytes() == val.tobytes(), key


def test_mms_source_keeps_factors_for_three_point_sets():
    # one contiguous (4, *points) block per group of keys, each made when
    # first used: val and t read only the block of group ""
    src, rng = MMSSource(NLDModel()), np.random.default_rng(19)
    for n in range(5):
        x, y = rng.uniform(-1, 1, (2, 10 + n))
        src.jet(x, y, 0.5, depth=1)
        assert len(src._point_sets) == min(n + 1, 3)
        assert list(src._point_sets[-1][2]) == [""]
    held = [(px, py, dict(blocks)) for px, py, blocks in src._point_sets]
    src.jet(x, y, 0.7, depth=3)  # the latest set again: no new point set
    assert len(src._point_sets) == len(held)
    for (px, py, blocks), (hx, hy, had) in zip(src._point_sets, held):
        assert px is hx and py is hy
        assert all(blocks[g] is block for g, block in had.items())
    blocks = src._point_sets[-1][2]
    assert list(blocks) == ["", "x", "y", "lap"]
    for block in blocks.values():
        assert block.shape == (4, x.size) and block.flags.c_contiguous


def _hand_written_weights(src):
    """MMSSource's weight matrices as first written, entry by entry."""
    c1, c2, m, cp = MMS_C1, MMS_C2, src.model.m, src.cp
    return (
        np.array([[c1, 0, 0, 0], [c2, 0, 0, 0],
                  [0, 0, 0, 0], [0, 0, 0, 0]]),
        np.array([[0, c2, 0, 0], [0, c1, 0, 0],
                  [c1 * m, 0, -c2, 0], [-c2 * m, 0, c1, 0]]),
        np.array([[0, 0, 0, 0], [0, 0, 0, 0],
                  [0, 0, 0, c1 * cp], [0, 0, 0, -c2 * cp]]),
    )


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 3.0])
def test_mms_weights_from_the_direction_table_are_the_hand_written_ones(kappa):
    # the hand-written columns weigh S_ab, S_(a+1)b, S_a(b+1) and S^p_ab; a
    # factor block holds them in the order S_ab, S^p_ab, S_(a+1)b, S_a(b+1)
    src = MMSSource(NLDModel(kappa=kappa))
    want = [M[:, [0, 3, 1, 2]] for M in _hand_written_weights(src)]
    assert len(src._weights) == len(want)
    for got, ref in zip(src._weights, want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_mms_source_needs_an_integer_kappa():
    for kappa in (1.5, -1.0):
        with pytest.raises(DomainError, match="integer kappa"):
            MMSSource(NLDModel(kappa=kappa))


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_mms_source_closes_the_system(kappa):
    """R must equal u_t + alpha u_x + beta u_y - M(u) on the exact field;
    all derivatives here come from sixth-order differences, independent of
    the jet code."""
    from diracdg.model import apply_alpha, apply_beta, apply_gamma, sigma3_pair

    model = NLDModel(kappa=kappa)
    src = MMSSource(model)
    x = RNG.uniform(-1.5, 1.5, 40)
    y = RNG.uniform(-1.5, 1.5, 40)
    t, h = 0.6, 0.02
    w1 = np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h)
    stack = lambda f: np.tensordot(
        w1, np.array([f(k * h) for k in range(-3, 4)]), axes=(0, 0)
    )
    ut = stack(lambda d: mms_state(x, y, t + d))
    ux = stack(lambda d: mms_state(x + d, y, t))
    uy = stack(lambda d: mms_state(x, y + d, t))
    u = mms_state(x, y, t)
    M = model.g(sigma3_pair(u, u)) * apply_gamma(u)
    r_fd = ut + apply_alpha(ux) + apply_beta(uy) - M
    np.testing.assert_allclose(
        src.jet(x, y, t, depth=1)["val"], r_fd, rtol=0, atol=5e-8
    )


def test_mms_space_jet_matches_finite_differences():
    x = RNG.uniform(-1, 1, 25)
    y = RNG.uniform(-1, 1, 25)
    t, h = 0.4, 0.02
    jet = mms_space_jet(x, y, t)
    w1 = np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h)
    w2 = np.array([2, -27, 270, -490, 270, -27, 2]) / (180.0 * h * h)
    f = lambda a, b: mms_state(a, b, t)
    fd = lambda w, g: np.tensordot(
        w, np.array([g(k * h) for k in range(-3, 4)]), axes=(0, 0)
    )
    np.testing.assert_allclose(jet["x"], fd(w1, lambda d: f(x + d, y)),
                               atol=1e-10)
    np.testing.assert_allclose(jet["y"], fd(w1, lambda d: f(x, y + d)),
                               atol=1e-10)
    np.testing.assert_allclose(jet["xx"], fd(w2, lambda d: f(x + d, y)),
                               atol=1e-8)
    np.testing.assert_allclose(jet["yy"], fd(w2, lambda d: f(x, y + d)),
                               atol=1e-8)

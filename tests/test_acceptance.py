"""Acceptance suite: every advertised guarantee at its stated tolerance.

One test per guarantee; each prints a single summary line on success, so

    pytest tests/test_acceptance.py -v -s

gives a one-line verdict per criterion.  The heavyweight entries (the 1D
and 2D convergence sweeps, the qualitative long runs) stay within their
stated wall-clock budgets on a single core.
"""

import time
from dataclasses import replace

import numpy as np

from diracdg.cascade import time_jet
from diracdg.cost import KINDS, op_count
from diracdg.diagnostics import count_local_maxima, total_charge
from diracdg.integrators import rk4_step, tvd_rk3_step
from diracdg.mesh import DGSpace1D, DGSpace2D, Grid1D, Grid2D
from diracdg.model import NLDModel
from diracdg.runner import (
    RunConfig,
    WaveSpec,
    converge_study,
    preset_config,
    run_simulation,
)
from diracdg.semidiscrete import dqdt_semidiscrete
from diracdg.waves import (
    MMSSource,
    decay_rate,
    mms_space_jet,
    mms_state,
    solve_standing_wave,
    wave_ode_residual,
    wave_state,
)

# ---------------------------------------------------------------------------
# 1. travelling-wave accuracy in 1D: the P^2 and P^3 variants of all three
#    schemes converge at (q+1) - 0.5 or better on the finest mesh pair

_TRAVELLING_1D = RunConfig(
    label="acc1", dim=1, scheme="rkdg", q=2, xmin=-60.0, xmax=60.0, nx=100,
    tfinal=50.0, waves=(WaveSpec(omega=0.8, v=-0.2, x0=5.0),),
    history_every=100_000,
)


def test_criterion_1_one_dimensional_accuracy():
    t0 = time.perf_counter()
    # the error reference is the boosted solved profile; certify it before
    # using it to grade anything else
    prof = solve_standing_wave(0.8, dim=1)
    assert wave_ode_residual(prof) <= 1e-10

    margin = np.inf
    for scheme in ("rkdg", "lwdg", "tsdg"):
        for q in (2, 3):
            cfg = replace(_TRAVELLING_1D, scheme=scheme, q=q)
            study = converge_study(cfg, [100, 200, 400])
            order = study["orders"][-1]
            assert order >= (q + 1) - 0.5, (scheme, q, study)
            margin = min(margin, order - ((q + 1) - 0.5))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(f"[criterion 1] PASS - six scheme/degree pairs, finest-pair L2 "
          f"order clears (q+1)-0.5 by >= {margin:.2f} ({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 2. forced 2D accuracy: orders sit within +-0.35 of the reference orders,
#    and the P^2 Taylor one-step error at 40x40 lands within 2x of the
#    reference value (quoted for the amplitude-normalised field)

_ORDERS_2D = {1: 2.0, 2: 3.0, 3: 3.895}
_P2_LWDG_40 = 4.8257e-4


def test_criterion_2_two_dimensional_forced_accuracy():
    t0 = time.perf_counter()
    base = preset_config("ex43-mms")
    amp = base.tfinal**4  # the exact field scales like t^4
    spot = None
    for scheme in ("rkdg", "lwdg", "tsdg"):
        for q in (1, 2, 3):
            cfg = replace(base, scheme=scheme, q=q)
            study = converge_study(cfg, [20, 40, 80])
            order = study["orders"][-1]
            assert abs(order - _ORDERS_2D[q]) <= 0.35, (scheme, q, study)
            if scheme == "lwdg" and q == 2:
                spot = study["l2"][1] / amp
    assert spot is not None
    assert 0.5 * _P2_LWDG_40 <= spot <= 2.0 * _P2_LWDG_40
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(f"[criterion 2] PASS - nine scheme/degree orders within 0.35 of "
          f"reference; P2 one-step 40x40 error {spot:.4e} vs {_P2_LWDG_40:.4e} "
          f"({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 3. semidiscrete charge dissipation on random fields

def test_criterion_3_semidiscrete_charge_dissipation():
    rng = np.random.default_rng(2025)
    model = NLDModel()
    spaces = [DGSpace1D(Grid1D(-3.0, 3.0, 17), q) for q in (1, 2, 3)]
    spaces += [DGSpace2D(Grid2D(-2.0, 2.0, 7, -2.0, 2.0, 6), q)
               for q in (1, 2, 3)]
    worst = -np.inf
    for k in range(200):
        sp = spaces[k % len(spaces)]
        if sp.dim == 1:
            shape = (4, sp.grid.nx, sp.nloc)
        else:
            shape = (4, sp.grid.nx, sp.grid.ny, sp.nloc)
        c = rng.standard_normal(shape)
        d = dqdt_semidiscrete(sp, model, c)
        assert d <= 1e-12 * max(1.0, total_charge(sp, c))
        worst = max(worst, d)
    print(f"[criterion 3] PASS - dQ/dt <= 1e-12 max(1, Q) on 200 random "
          f"fields, 1D and 2D, q in 1..3 (max dQ/dt = {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. long-run conservation history at J = 1000 with the P^3 multi-stage
#    scheme: relative charge/energy drift <= 1e-5 and charge never grows

def test_criterion_4_conservation_history():
    t0 = time.perf_counter()
    cfg = replace(_TRAVELLING_1D, scheme="rkdg", q=3, nx=1000,
                  history_every=1)
    res = run_simulation(cfg)
    q_rel = float(np.abs(res.history[:, 3]).max())
    e_rel = float(np.abs(res.history[:, 4]).max())
    assert q_rel <= 1e-5
    assert e_rel <= 1e-5
    q_h = res.history[:, 1]
    assert np.all(np.diff(q_h) <= 1e-10 * q_h[0])
    elapsed = time.perf_counter() - t0
    print(f"[criterion 4] PASS - to t=50: |Q_rela| <= {q_rel:.2e}, "
          f"|E_rela| <= {e_rel:.2e}, Q_h non-increasing every step "
          f"({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 5. the time-derivative cascade reproduces u_t, u_tt, u_ttt of the exact
#    forced field against 6th-order finite differences in t

def test_criterion_5_time_cascade_matches_finite_differences():
    rng = np.random.default_rng(5)
    n = 10_000
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    t = rng.uniform(0.2, 1.0, n)
    model = NLDModel()
    jet = time_jet(mms_space_jet(x, y, t), model, depth=3,
                   source=MMSSource(model).per_block(x, y, t, depth=3))

    h = 0.02
    stack = np.stack([mms_state(x, y, t + k * h) for k in range(-3, 4)])
    stencils = {
        "t": np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h),
        "tt": np.array([2, -27, 270, -490, 270, -27, 2]) / (180.0 * h * h),
        "ttt": np.array([1, -8, 13, 0, -13, 8, -1]) / (8.0 * h**3),
    }
    worst = 0.0
    for key, w in stencils.items():
        fd = np.tensordot(w, stack, axes=(0, 0))
        rel = float(np.abs(jet[key] - fd).max() / np.abs(fd).max())
        assert rel <= 1e-6, (key, rel)
        worst = max(worst, rel)
    print(f"[criterion 5] PASS - u_t, u_tt, u_ttt match 6th-order finite "
          f"differences at {n} random points (max rel err {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. time integrators hit their design orders on a nonlinear ODE with a
#    closed-form solution (logistic growth)

def _logistic(y, t):
    return y * (1.0 - y)


def _logistic_rate_of_rate(y, t):
    # d/dt f(y(t)) = f'(y) f(y) along the solution
    return (1.0 - 2.0 * y) * y * (1.0 - y)


def _two_stage_ode_step(y, t, tau):
    half = 0.5 * tau
    ystar = y + half * (_logistic(y, t)
                        + 0.25 * tau * _logistic_rate_of_rate(y, t))
    return y + tau * (_logistic(y, t)
                      + tau / 6.0 * _logistic_rate_of_rate(y, t)
                      + tau / 3.0 * _logistic_rate_of_rate(ystar, t + half))


def test_criterion_6_time_integrator_orders():
    y0, tfinal = 0.4, 2.0
    exact = 1.0 / (1.0 + (1.0 / y0 - 1.0) * np.exp(-tfinal))

    def march(stepper, n):
        y, t = y0, 0.0
        tau = tfinal / n
        for _ in range(n):
            y = stepper(y, t, tau)
            t += tau
        return abs(y - exact)

    steppers = {
        "rk4": (lambda y, t, tau: rk4_step(y, t, tau, _logistic), 4.0),
        "two-stage": (_two_stage_ode_step, 4.0),
        "tvd3": (lambda y, t, tau: tvd_rk3_step(y, t, tau, _logistic), 3.0),
    }
    report = []
    for name, (stepper, target) in steppers.items():
        errs = [march(stepper, n) for n in (16, 32, 64, 128)]
        order = float(np.mean(np.log2(np.array(errs[:-1]) / errs[1:])))
        assert abs(order - target) <= 0.15, (name, errs, order)
        report.append(f"{name} {order:.2f}")
    print(f"[criterion 6] PASS - measured orders {', '.join(report)} "
          f"(targets 4, 4, 3 with +-0.15)")


# ---------------------------------------------------------------------------
# 7. the operation-count model matches an independent transcription of the
#    per-step formulas, and the one-step Taylor scheme is the most
#    expensive per step for every J >= 1 at Gp = q + 1

_COUNTS = {
    ("lwdg", 2): {"adds": (166, 270, 220), "muls": (207, 284, 256),
                  "assigns": (95, 192, 152)},
    ("lwdg", 3): {"adds": (186, 294, 220), "muls": (231, 308, 257),
                  "assigns": (99, 212, 152)},
    ("tsdg", 2): {"adds": (122, 228, 72), "muls": (136, 156, 60),
                  "assigns": (104, 208, 69)},
    ("tsdg", 3): {"adds": (154, 276, 72), "muls": (168, 204, 62),
                  "assigns": (116, 240, 79)},
    ("rkdg", 2): {"adds": (128, 260, 50), "muls": (148, 152, 23),
                  "assigns": (116, 208, 57)},
    ("rkdg", 3): {"adds": (176, 320, 50), "muls": (196, 208, 25),
                  "assigns": (132, 240, 59)},
}


def _affine_in_j(scheme, q, kinds):
    """(slope, value at J=1) of the per-step count summed over `kinds`."""
    gp = q + 1
    c1 = sum(op_count(scheme, q, k, 1, 1, gp) for k in kinds)
    c2 = sum(op_count(scheme, q, k, 2, 1, gp) for k in kinds)
    return c2 - c1, c1


def test_criterion_7_operation_count_model():
    rng = np.random.default_rng(17)
    checked = 0
    for (scheme, q), kinds in _COUNTS.items():
        for _ in range(20):
            gp = int(rng.integers(2, 7))
            j = int(rng.integers(1, 10_000))
            nsteps = int(rng.integers(1, 1_000))
            for kind, (a, b, c) in kinds.items():
                expected = ((a * gp + b) * j + c) * nsteps
                assert op_count(scheme, q, kind, j, nsteps, gp) == expected
            checked += 1

    # counts are affine in J with nonnegative slopes, so slope dominance
    # plus dominance at J=1 gives dominance for every J >= 1
    for q in (2, 3):
        for basis in (("adds",), KINDS):
            slopes = {s: _affine_in_j(s, q, basis)
                      for s in ("lwdg", "tsdg", "rkdg")}
            for other in ("tsdg", "rkdg"):
                assert slopes["lwdg"][0] > slopes[other][0], (q, basis)
                assert slopes["lwdg"][1] > slopes[other][1], (q, basis)
            # and the two-stage scheme stays the cheapest of the three
            assert slopes["tsdg"][0] < slopes["rkdg"][0], (q, basis)
            assert slopes["tsdg"][1] < slopes["rkdg"][1], (q, basis)
    print(f"[criterion 7] PASS - {checked} random (Gp, J, steps) triples "
          f"match exactly; one-step Taylor scheme costs most for all J >= 1, "
          f"both degrees")


# ---------------------------------------------------------------------------
# 8. wave factory: residuals, far-field decay, and boost asymmetry

def test_criterion_8_wave_factory():
    t0 = time.perf_counter()
    profiles = [
        solve_standing_wave(0.8, dim=2),
        solve_standing_wave(0.12, dim=2),
        solve_standing_wave(0.8, dim=1),
    ]
    for prof in profiles:
        assert wave_ode_residual(prof) <= 1e-10
        beta = prof.decay_exponent
        assert abs(decay_rate(prof) - beta) <= 0.05 * beta

    y = np.linspace(0.1, 4.0, 60)
    x = np.full_like(y, 0.7)

    def asym(v):
        up = wave_state(profiles[0], 0.2, x, y, v=v)
        dn = wave_state(profiles[0], 0.2, x, -y, v=v)
        du = (np.abs(up[0]) ** 2 + np.abs(up[1]) ** 2
              - np.abs(dn[0]) ** 2 - np.abs(dn[1]) ** 2)
        return float(np.abs(du).max())

    a0, a5 = asym(0.0), asym(0.5)
    assert a0 <= 1e-12
    assert a5 > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"[criterion 8] PASS - residual <= 1e-10 and decay within 5% for "
          f"three profiles; boost asymmetry {a5:.2e} at v=0.5, {a0:.2e} at "
          f"v=0 ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 9. qualitative dynamics at desk scale: the two-wave collision makes the
#    central density oscillate, and the four-wave run only loses charge

def test_criterion_9_qualitative_dynamics():
    t0 = time.perf_counter()
    osc = run_simulation(preset_config("ex46-oscillation"))
    series = osc.probe[:, 1]
    prominence = 0.1 * float(series.max() - series.min())
    n_peaks = count_local_maxima(series, min_prominence=prominence)
    assert n_peaks >= 3

    quad = run_simulation(preset_config("ex44-quaternary"))
    q_h = quad.history[:, 1]
    assert q_h[-1] < q_h[0]
    assert np.all(np.diff(q_h) <= 1e-12 * q_h[0])
    elapsed = time.perf_counter() - t0
    print(f"[criterion 9] PASS - central density shows {n_peaks} prominent "
          f"maxima to t=100; four-wave charge decreases monotonically to "
          f"t=40 ({elapsed:.0f} s)")

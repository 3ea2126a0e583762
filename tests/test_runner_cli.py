"""Run orchestration, config files, artifact formats, CLI behaviour."""

import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracdg import cli, runner, waves
from diracdg.cli import build_parser, main
from diracdg.errors import ConfigError, DiracDGError
from diracdg.integrators import cfl_dt
from diracdg.mesh import DGSpace2D, Grid2D
from diracdg.runner import (
    PRESETS,
    RunConfig,
    WaveSpec,
    build_space,
    config_from_flat,
    config_to_flat,
    converge_study,
    initial_state,
    load_config,
    make_stepper,
    parse_config_text,
    preset_config,
    read_history,
    run_simulation,
    save_config,
)
from diracdg.waves import MMSSource, load_profile, superposed_real

FAST_1D = RunConfig(
    label="fast", dim=1, scheme="rkdg", q=2, xmin=-10.0, xmax=10.0, nx=50,
    tfinal=0.3, waves=(WaveSpec(omega=0.8),), history_every=5,
)


# --------------------------------------------------------------------------
# configuration round trips

def _not_a_number(s: str) -> bool:
    # the plain-text format is typeless: a label spelled like a number
    # ("00", "1e5") is legitimately normalised on reload, so keep the
    # round-trip property to labels that read back as words
    try:
        float(s)
    except ValueError:
        return True
    return False


_safe_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12
).filter(_not_a_number)
def _wave(dim):
    # a 1D run has no y axis, so its waves keep y0 = 0
    return st.builds(
        WaveSpec,
        omega=st.floats(0.05, 0.95),
        v=st.floats(-0.9, 0.9),
        x0=st.floats(-20, 20),
        y0=st.floats(-20, 20) if dim == 2 else st.just(0.0),
        S=st.integers(0, 2),
    )


@st.composite
def _configs(draw):
    dim = draw(st.sampled_from([1, 2]))
    mms = dim == 2 and draw(st.booleans())
    tfinal = draw(st.floats(0.1, 100.0))
    return RunConfig(
        label=draw(_safe_label),
        dim=dim,
        scheme=draw(st.sampled_from(["rkdg", "lwdg", "tsdg"])),
        q=draw(st.sampled_from([1, 2, 3])),
        tfinal=tfinal,
        mu=draw(st.sampled_from([0.0, 0.25, 0.7])),
        history_every=draw(st.integers(1, 500)),
        xmin=-30.0,
        xmax=30.0,
        nx=draw(st.integers(4, 2000)),
        ymin=-30.0 if dim == 2 else 0.0,
        ymax=30.0 if dim == 2 else 0.0,
        ny=draw(st.integers(4, 2000)) if dim == 2 else 0,
        kappa=draw(st.sampled_from([1.0, 2.0, 3.0])),
        ic="mms" if mms else "waves",
        source="mms" if mms else "none",
        waves=()
        if mms
        else tuple(draw(st.lists(_wave(dim), min_size=0, max_size=3))),
        probe=draw(
            st.sampled_from([(), (0.0,), (1.5,)])
            if dim == 1
            else st.sampled_from([(), (0.0, 0.0), (-1.0, 2.5)])
        ),
        # one snapshot file per time: no two %g names alike
        snapshots=tuple(
            draw(st.lists(st.floats(0.0, tfinal), min_size=0, max_size=3,
                          unique_by=lambda s: f"{s:g}"))
        ),
    )


@given(_configs())
@example(RunConfig(label="false"))
@example(RunConfig(label="true"))
@settings(max_examples=60, deadline=None)
def test_config_text_roundtrip(cfg):
    text = "\n".join(
        f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
        for k, v in config_to_flat(cfg).items()
    )
    back = config_from_flat(parse_config_text(text))
    assert back == cfg


_STEP_BASES = (
    replace(FAST_1D, nx=8, wave_N=64, probe=(0.5,), snapshots=(0.1,)),
    RunConfig(label="mms", dim=2, q=1, xmin=-2.0, xmax=2.0, nx=3, ymin=-2.0,
              ymax=2.0, ny=3, tfinal=0.05, ic="mms", source="mms",
              snapshots=(0.0,)),
)
# small integers only, so that no drawn grid.nx, grid.ny or ic.wave_N
# allocates much
_DRAWN_TEXT = st.one_of(
    st.sampled_from(["", "abc", "true", "1/3", "-0.5", "2.5", "nan", "inf",
                     "-inf", "rkdg", "mms", "waves"]),
    st.integers(-2, 12).map(str),
    st.floats(-3.0, 3.0).map(repr),
)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_config_steps_or_raises(data):
    base = data.draw(st.sampled_from(_STEP_BASES))
    flat = config_to_flat(base)
    keys = data.draw(
        st.lists(st.sampled_from(sorted(flat)), min_size=1, max_size=3, unique=True)
    )
    for key in keys:
        flat[key] = data.draw(_DRAWN_TEXT, label=key)
    text = "\n".join(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in flat.items())
    try:
        cfg = config_from_flat(parse_config_text(text))
        # an accepted config takes a step and reaches every snapshot time
        assert cfg.tfinal > 0.0 and all(0.0 <= s <= cfg.tfinal for s in cfg.snapshots)
        assert (cfg.ic == "mms") == (cfg.source == "mms")
        # its exact field, if any, is the one its initial field starts from
        assert cfg.exact_kind() in ("none", cfg.ic)
        space = build_space(cfg)
        model = cfg.model()
        source = MMSSource(model) if cfg.ic == "mms" else None
        step = make_stepper(cfg, space, model, source)
        with np.errstate(all="ignore"):
            step(initial_state(cfg, space), 0.0, cfl_dt(space, cfg.effective_mu()))
    except DiracDGError:
        pass


def test_config_file_roundtrip(tmp_path):
    cfg = preset_config("ex44-quaternary")
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_parse_config_rejects_junk():
    with pytest.raises(ConfigError):
        parse_config_text("run.scheme rkdg")  # missing '='
    with pytest.raises(ConfigError):
        config_from_flat({"run.scheme": "abc"})
    with pytest.raises(ConfigError):
        config_from_flat({"grid.dim": 3})
    with pytest.raises(ConfigError):
        config_from_flat({"ic.type": "mms", "grid.dim": 1})
    with pytest.raises(ConfigError):
        config_from_flat({"run.scheme": "tsdg", "run.theta": 1.0})


def test_comments_and_blanks_ignored():
    flat = parse_config_text("# hi\n\nrun.q = 3\n  # another\nrun.mu = 0.5\n")
    assert flat == {"run.q": 3, "run.mu": 0.5}


# --------------------------------------------------------------------------
# presets

@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("full", [False, True])
def test_presets_are_valid_configs(name, full):
    cfg = preset_config(name, full_scale=full)
    assert cfg.label == name
    space = build_space(cfg)
    assert space.dim == cfg.dim
    # every preset round-trips through the flat representation
    assert config_from_flat(config_to_flat(cfg)) == cfg


def test_preset_descriptions():
    for name, (desc, _, _) in PRESETS.items():
        assert isinstance(desc, str) and desc


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("ex99-nothing")


# --------------------------------------------------------------------------
# run artifacts

@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    # a directory the run makes itself, before its first snapshot
    out = tmp_path_factory.mktemp("artifacts") / "new"
    cfg = replace(FAST_1D, probe=(0.0,), snapshots=(0.0, 0.15))
    res = run_simulation(cfg, outdir=str(out))
    return cfg, res, out


def test_run_result_fields(fast_run):
    cfg, res, _ = fast_run
    assert res.t == pytest.approx(cfg.tfinal)
    assert res.nsteps > 0
    assert res.history.shape[1] == 5
    # the [-10, 10] box truncates the profile tail at exp(-6) ~ 2.5e-3,
    # which caps the accuracy of this deliberately cheap run
    assert res.err_l2 is not None and res.err_l2 < 5e-3
    assert res.err_linf >= res.err_l2 / 10
    # history rows start at t=0 and end at tfinal
    assert res.history[0, 0] == 0.0
    assert res.history[-1, 0] == pytest.approx(cfg.tfinal)
    # the wall jump dissipates charge at (tail amplitude)^2, so the drift
    # is small but visible here; it must never be an increase
    assert res.history[:, 3].max() < 1e-5
    q_h = res.history[:, 1]
    assert np.all(np.diff(q_h) <= 1e-13 * q_h[0])


def test_run_evaluates_exact_field_once_for_both_norms(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args[1])
        return superposed_real(*args)

    monkeypatch.setattr(runner, "superposed_real", spy)
    res = run_simulation(FAST_1D)
    assert calls == [0.0, res.t]  # the projection, then both norms
    sp = res.space
    diff = sp.eval(res.coeffs) - runner.exact_state_fn(FAST_1D, res.t)(*sp.points)
    assert res.err_l2 == pytest.approx(np.sqrt(np.sum(diff**2 * sp.w)), rel=1e-14)
    assert res.err_linf == pytest.approx(np.abs(diff).max(), rel=1e-14)


def test_nsteps_counts_the_sliver_step(monkeypatch):
    # tfinal / dt lands just past an integer: evolve takes a sliver step
    # that ceil(tfinal / dt - 1e-9) does not count
    dt = cfl_dt(build_space(FAST_1D), FAST_1D.effective_mu())
    cfg = replace(FAST_1D, tfinal=(3 + 1e-9) * dt)
    taken = []
    make_stepper = runner.make_stepper

    def counting(*args):
        step = make_stepper(*args)
        return lambda u, t, tau: taken.append(tau) or step(u, t, tau)

    monkeypatch.setattr(runner, "make_stepper", counting)
    res = run_simulation(cfg)
    assert len(taken) == 4 and taken[-1] < 1e-6 * dt
    assert res.nsteps == len(taken)


def test_history_file_format(fast_run):
    _, res, out = fast_run
    path = os.path.join(out, "history.csv")
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == "t,Q_h,E_h,Q_rela,E_rela"
    data = read_history(path)
    assert data.shape == res.history.shape
    np.testing.assert_allclose(data[:, 1], res.history[:, 1], rtol=1e-15)
    np.testing.assert_allclose(data[:, 0], res.history[:, 0], rtol=1e-11)


def test_read_history_rejects_other_files(tmp_path):
    bad = tmp_path / "h.csv"
    bad.write_text("time,charge\n0,1\n")
    with pytest.raises(ConfigError):
        read_history(bad)


def test_read_history_of_a_file_without_rows(tmp_path, recwarn):
    path = tmp_path / "h.csv"
    runner.write_history(path, [])
    assert path.read_text() == "t,Q_h,E_h,Q_rela,E_rela\n"
    data = read_history(path)
    assert data.shape == (0,) and data.dtype == float
    assert not recwarn.list


def test_snapshot_format(fast_run):
    cfg, res, out = fast_run
    path = os.path.join(out, "snapshot_final.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# t = ")
    assert lines[1] == "# columns: x u1 u2 u3 u4 rhoQ"
    rows = [ln.split() for ln in lines[2:]]
    assert len(rows) == cfg.nx
    arr = np.array(rows, dtype=float)
    # density column is consistent with the component columns
    np.testing.assert_allclose(
        arr[:, 5], np.sum(arr[:, 1:5] ** 2, axis=1), atol=1e-12
    )
    # the timed snapshot was also written
    assert any(f.startswith("snapshot_t0.15") for f in os.listdir(out))


def test_snapshots_land_on_their_times(tmp_path):
    # dt = 0.02: a clipped step ends on each time, and the header says so
    cfg = replace(FAST_1D, snapshots=(0.1000001, 0.15))
    res = run_simulation(cfg, outdir=str(tmp_path))
    for s in cfg.snapshots:
        with open(tmp_path / f"snapshot_t{s:g}.txt") as fh:
            assert fh.readline() == f"# t = {s!r}\n"
    assert res.t == cfg.tfinal and res.nsteps == 17


def test_snapshot_format_2d(tmp_path):
    nx, ny = 3, 4
    grid = Grid2D(-1.0, 2.0, nx, -2.0, 0.4, ny)
    sp = DGSpace2D(grid, 2)
    c = np.random.default_rng(8).standard_normal(sp.zeros().shape)
    path = tmp_path / "snap.txt"
    runner.write_snapshot(path, sp, c, 0.25)
    lines = path.read_text().splitlines()
    assert lines[0] == "# t = 0.25"
    assert lines[1] == "# columns: x y u1 u2 u3 u4 rhoQ"
    arr = np.array([ln.split() for ln in lines[2:]], dtype=float)
    assert arr.shape == (nx * ny, 7)
    # x-major rows at the cell centres
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    x = grid.xmin + (ix + 0.5) * grid.dx
    y = grid.ymin + (iy + 0.5) * grid.dy
    np.testing.assert_allclose(arr[:, 0], x, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(arr[:, 1], y, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(arr[:, 2:6], sp.point_values(c, x, y).T, rtol=1e-11)
    np.testing.assert_allclose(arr[:, 6], np.sum(arr[:, 2:6] ** 2, axis=1), rtol=1e-11)


def test_probe_file(fast_run):
    cfg, res, out = fast_run
    data = np.loadtxt(os.path.join(out, "probe.csv"), delimiter=",",
                      skiprows=1)
    assert data.shape[0] == res.nsteps + 1
    assert data[0, 0] == 0.0
    assert np.all(data[:, 1] > 0)  # centre density of the standing wave


def test_config_artifact_loads_back(fast_run):
    cfg, _, out = fast_run
    assert load_config(os.path.join(out, "config.cfg")) == cfg


# --------------------------------------------------------------------------
# convergence study

def test_converge_study_refines():
    cfg = RunConfig(
        label="conv", dim=1, scheme="rkdg", q=2, xmin=-30.0, xmax=30.0,
        nx=0, tfinal=0.5, waves=(WaveSpec(omega=0.8),),
    )
    study = converge_study(cfg, [30, 60])
    assert study["cells"] == [30, 60]
    assert study["l2"][1] < study["l2"][0]
    assert len(study["orders"]) == 1
    assert study["orders"][0] > 2.0


def test_converge_study_needs_exact():
    cfg = RunConfig(dim=1, waves=(WaveSpec(0.8), WaveSpec(0.6)), nx=20)
    with pytest.raises(ConfigError):
        converge_study(cfg, [20, 40])


def test_converge_study_checks_levels_before_running(monkeypatch):
    def no_run(cfg):
        raise AssertionError("a level ran")

    monkeypatch.setattr(runner, "_errors_of", no_run)
    cfg = replace(FAST_1D, nx=0)
    for cells, words in (([40], "two or more"), ([], "two or more"),
                         ([40, 40], "distinct"), ([20, 40, 20], "distinct"),
                         ([0, 20], ">= 1"), ([20, 40.5], "grid.nx"),
                         ([20, "abc"], "grid.nx")):
        with pytest.raises(ConfigError, match=words):
            converge_study(cfg, cells)


def test_converge_study_orders_follow_the_ladder(monkeypatch):
    # errors C n^-3 have order 3 on any ladder, rising or falling
    monkeypatch.setattr(runner, "_errors_of", lambda cfg: (cfg.nx**-3.0, 0.0))
    for cells in ([30, 90], [60, 30], ["20", 50.0, 80]):
        study = converge_study(replace(FAST_1D, nx=0), cells)
        assert study["cells"] == [int(n) for n in cells]
        np.testing.assert_allclose(study["orders"], 3.0, rtol=1e-12)


# --------------------------------------------------------------------------
# command line

def test_cli_cost(capsys, tmp_path):
    out = tmp_path / "table.txt"
    assert main(["cost", "--q", "2", "--cells", "1000", "--out",
                 str(out)]) == 0
    text = capsys.readouterr().out
    assert "768220" in text
    assert "cheapest per step at this size: tsdg" in text
    assert "768220" in out.read_text()


@pytest.mark.parametrize(
    "argv", [["--cells", "-5"], ["--cells", "0"], ["--steps", "-2"], ["--steps", "0"]]
)
def test_cli_cost_rejects_empty_counts(capsys, argv):
    assert main(["cost"] + argv) == 2
    err = capsys.readouterr()
    assert "J >= 1" in err.err and "cheapest" not in err.out


def test_cli_wave(capsys, tmp_path):
    for kappa in ("1", "1.5", "0.5"):  # the 1D closed form takes any kappa > 0
        out = tmp_path / f"profile_{kappa}.txt"
        code = main(["wave", "--omega", "0.8", "--dim", "1", "--kappa", kappa,
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "charge" in text and "decay rate" in text
        assert out.exists()


def test_cli_wave_bad_frequency(capsys):
    assert main(["wave", "--omega", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,words",
    [
        (["--N", "-3"], "N >= 2"),
        (["--N", "0"], "N >= 2"),
        (["--N", "1"], "N >= 2"),
        (["--R", "-5"], "R must be > 0"),
        (["--R", "0"], "R must be > 0"),
        (["--R", "inf"], "finite"),
        (["--dim", "2", "--spin", "-1"], "S must be >= 0"),
        (["--lam", "nan"], "parameter lam must be finite"),
        (["--dim", "2", "--kappa", "inf"], "parameter kappa must be finite"),
        (["--kappa", "nan"], "parameter kappa must be finite"),
        (["--mass", "inf"], "parameter m must be finite"),
        (["--lam", "0"], "a localised 1D wave needs lam > 0, got lam = 0.0"),
        (["--lam", "-1"], "a localised 1D wave needs lam > 0, got lam = -1.0"),
        (["--kappa", "0"], "a localised 1D wave needs kappa > 0, got kappa = 0.0"),
        (["--kappa", "-1"], "a localised 1D wave needs kappa > 0, got kappa = -1.0"),
        (["--kappa", "1e-4"], "kappa = 0.0001 has phi(0) = 0.0, not a positive finite"),
        (["--omega", "0.1", "--kappa", "1e-4"], "kappa = 0.0001 has phi(0) = inf"),
        (["--dim", "2", "--kappa", "1.5"],
         "the 2D wave solve needs an integer kappa, got kappa = 1.5"),
        (["--dim", "2", "--kappa", "0.5"], "needs an integer kappa, got kappa = 0.5"),
    ],
    ids=["negative-nodes", "no-nodes", "one-node", "negative-radius", "zero-radius",
         "infinite-radius", "negative-spin", "nan-lam", "infinite-kappa", "nan-kappa",
         "infinite-mass", "1d-zero-lam", "1d-negative-lam", "1d-zero-kappa",
         "1d-negative-kappa", "1d-underflow", "1d-overflow", "2d-kappa-1.5",
         "2d-kappa-0.5"],
)
def test_cli_wave_rejects_bad_input(capsys, monkeypatch, argv, words):
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert main(["wave", "--omega", "0.8"] + argv) == 2
    assert words in capsys.readouterr().err
    assert not solves  # refused before the first Newton solve


@pytest.mark.parametrize("nodes", [2, 16, 32])
def test_cli_wave_rejects_unresolved_profile(capsys, nodes):
    # the collocated residual vanishes at every N; the Chebyshev tail does not
    assert main(["wave", "--omega", "0.8", "--N", str(nodes)]) == 2
    err = capsys.readouterr().err
    assert f"N = {nodes} nodes do not resolve" in err and "tail" in err


@pytest.mark.parametrize("flag", [["--lam", "0"], ["--kappa", "-1"]])
def test_cli_wave_names_collapse_onto_zero(capsys, flag):
    # the 2D Newton solve converges here, but onto phi = 0
    assert main(["wave", "--omega", "0.8", "--dim", "2"] + flag) == 3
    err = capsys.readouterr().err
    assert "collapsed onto the trivial solution" in err
    assert "no convergence" not in err


def test_cli_wave_stops_an_attempt_at_a_non_finite_iterate(capsys, monkeypatch):
    # R = 1e300 overflows the first 2D iterate; a bound written as max|p| > 1e6
    # is False for NaN, which let every attempt run all 200 iterations
    attempts, solves = [], []
    newton, solve = waves._newton_profile, np.linalg.solve
    monkeypatch.setattr(waves, "_newton_profile",
                        lambda *a: attempts.append(None) or newton(*a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(None) or solve(*a))
    with np.errstate(all="ignore"):
        assert main(["wave", "--omega", "0.8", "--dim", "2", "--R", "1e300"]) == 3
    err = capsys.readouterr().err
    assert "no convergence after 1 iterations (residual nan)" in err
    assert attempts and len(solves) <= len(attempts)


def test_cli_wave_overflow_is_one_error_line():
    # a fresh interpreter, so that numpy's RuntimeWarnings would reach stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for dim, code, err in (
        ("2", 3, "numerical failure: no convergence after 1 iterations (residual nan)\n"),
        ("1", 2, "error: N = 256 nodes do not resolve the profile on [0, R = 1e+300]: "
                 "Chebyshev tail 1.0e+00 > 1e-05\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "diracdg.cli", "wave", "--omega", "0.8", "--dim", dim,
             "--R", "1e300"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert proc.stderr == err


@pytest.mark.parametrize("message", [
    "Unable to allocate 74.5 GiB for an array with shape (100001, 100001) "
    "and data type float64", ""])
def test_cli_out_of_memory_is_one_error_line(capsys, monkeypatch, message):
    def too_big(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve_standing_wave", too_big)
    assert main(["wave", "--omega", "0.8", "--N", "100000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
    assert (message or "allocation failed") in err


def test_cli_run_needs_source(capsys):
    assert main(["run"]) == 2


def test_cli_unknown_preset(capsys):
    assert main(["run", "--preset", "ex99-bogus"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_cli_run_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "fast.cfg"
    save_config(cfgfile, FAST_1D)
    outdir = tmp_path / "results"
    code = main(["run", "--config", str(cfgfile), "--out", str(outdir)])
    assert code == 0
    text = capsys.readouterr().out
    assert "L2 error" in text and "Q_h" in text
    assert (outdir / "history.csv").exists()
    assert (outdir / "snapshot_final.txt").exists()
    assert (outdir / "config.cfg").exists()


def test_cli_run_preset_with_overrides(capsys):
    code = main([
        "run", "--preset", "ex41-accuracy", "--tfinal", "0.5",
        "--cells", "100", "--scheme", "rkdg",
    ])
    assert code == 0
    assert "rkdg P2, 100 cells" in capsys.readouterr().out


def test_cli_omega_override_changes_first_wave(capsys, tmp_path):
    cfgfile = tmp_path / "fast.cfg"
    save_config(cfgfile, FAST_1D)
    code = main(["run", "--config", str(cfgfile), "--omega", "0.6",
                 "--tfinal", "0.1"])
    assert code == 0


def test_cli_converge(capsys, tmp_path):
    cfg = RunConfig(
        label="c", dim=1, scheme="rkdg", q=2, xmin=-12.0, xmax=12.0,
        nx=0, tfinal=0.4, waves=(WaveSpec(omega=0.8),),
    )
    cfgfile = tmp_path / "c.cfg"
    save_config(cfgfile, cfg)
    out = tmp_path / "study"
    code = main(["converge", "--config", str(cfgfile), "--cells", "30,60",
                 "--out", str(out)])
    assert code == 0
    assert "order" in capsys.readouterr().out
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "cells,l2,linf,order"
    assert len(lines) == 3


@pytest.mark.parametrize("command", [["run"], ["converge", "--cells", "20,40"]],
                         ids=["run", "converge"])
def test_cli_blowup_exit_code(capsys, tmp_path, command):
    wild = RunConfig(
        label="wild", dim=1, scheme="rkdg", q=2, xmin=-10.0, xmax=10.0,
        nx=40, tfinal=20.0, mu=9.0, waves=(WaveSpec(omega=0.8),),
    )
    cfgfile = tmp_path / "wild.cfg"
    save_config(cfgfile, wild)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command[0], "--config", str(cfgfile), *command[1:]]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_run_refuses_a_step_that_cannot_reach_tfinal(capsys, tmp_path):
    argv = ["run", "--preset", "ex41-accuracy", "--mu", "1e-300", "--tfinal", "1",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "does not advance t = 1.0" in capsys.readouterr().err


def test_cli_run_refuses_a_march_of_too_many_steps(capsys, tmp_path):
    argv = ["run", "--preset", "ex41-accuracy", "--mu", "1e-12", "--tfinal", "1",
            "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 10.0
    assert "plans 8.33e+12 steps" in capsys.readouterr().err


_FAST_MMS = RunConfig(
    label="mms", dim=2, scheme="rkdg", q=1, xmin=-2.0, xmax=2.0, nx=6,
    ymin=-2.0, ymax=2.0, ny=6, tfinal=0.05, ic="mms", source="mms",
)


@pytest.mark.parametrize(
    "cfg,words",
    [
        (replace(FAST_1D, xmin=10.0, xmax=-10.0), "grid.xmin"),
        (replace(FAST_1D, xmin=3.0, xmax=3.0), "grid.xmin"),
        (replace(_FAST_MMS, ny=0), "grid.ny"),
        (replace(_FAST_MMS, ymin=2.0, ymax=-2.0), "grid.ymin"),
        (replace(FAST_1D, history_every=0), "history_every"),
        (replace(FAST_1D, nx=0), "grid.nx"),
        (replace(FAST_1D, waves=()), "ic.wave1"),
        (replace(FAST_1D, source="mms"), "two-dimensional"),
        (replace(FAST_1D, wave_N=-1), "ic.wave_N"),
        (replace(FAST_1D, wave_R=-1.0), "ic.wave_R"),
        (replace(_FAST_MMS, ic="waves", source="none", waves=(WaveSpec(S=-1),)),
         "ic.waveN.S"),
        (replace(_FAST_MMS, kappa=1.5), "model.kappa"),
        (replace(_FAST_MMS, ic="waves", waves=(WaveSpec(omega=0.8),), kappa=2.5),
         "model.kappa"),
        (replace(_FAST_MMS, kappa=-1.0), "model.kappa"),
        (replace(_FAST_MMS, source="none"), "ic.source"),
        (replace(_FAST_MMS, ic="waves", waves=(WaveSpec(omega=0.8),)), "ic.source"),
        (replace(FAST_1D, ny=50), "grid.ny = 50"),
        (replace(FAST_1D, ymin=-3.0, ymax=7.0), "grid.ymin = -3.0, grid.ymax = 7.0"),
        (replace(FAST_1D, waves=(WaveSpec(omega=0.8), WaveSpec(y0=4.0))),
         "ic.wave2.y0 = 4.0"),
        (replace(_FAST_MMS, wave_R=5.0), "ic.wave_R = 5.0"),
        (replace(_FAST_MMS, wave_N=17), "ic.wave_N = 17"),
        (replace(_FAST_MMS, ic="waves", source="none", waves=(WaveSpec(omega=0.8),),
                 kappa=1.5), "needs an integer kappa, got kappa = 1.5"),
        (replace(FAST_1D, kappa=1.5), "model.kappa): the projected wave has rho < 0"),
        (replace(FAST_1D, lam=-0.5), "needs lam > 0, got lam = -0.5"),
    ],
    ids=["x-reversed", "x-empty", "2d-no-ny", "y-reversed", "history-every-0",
         "no-cells", "no-waves", "1d-mms-source", "negative-nodes",
         "negative-radius", "negative-spin", "mms-fractional-kappa",
         "mms-source-fractional-kappa", "mms-negative-kappa", "mms-unforced",
         "waves-forced", "1d-ny", "1d-y-range", "1d-wave-y0", "mms-wave-radius",
         "mms-wave-nodes", "2d-wave-fractional-kappa", "1d-wave-fractional-kappa",
         "1d-wave-negative-lam"],
)
def test_cli_rejects_degenerate_config(capsys, tmp_path, cfg, words):
    cfgfile = tmp_path / "bad.cfg"
    save_config(cfgfile, cfg)
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [FAST_1D, _FAST_MMS], ids=["one-wave-1d", "mms-2d"])
def test_initial_state_projects_the_exact_field_at_zero(cfg):
    space = build_space(cfg)
    want = space.project(runner.exact_state_fn(cfg, 0.0))
    assert initial_state(cfg, space).tobytes() == want.tobytes()


def test_field_of_a_config_without_one_wave():
    two = replace(FAST_1D, waves=(WaveSpec(x0=-3.0), WaveSpec(x0=3.0)))
    assert runner.exact_state_fn(two, 0.0) is None
    with pytest.raises(ConfigError, match="ic.type = waves needs a wave: no "
                                          "ic.wave1.omega given"):
        initial_state(replace(FAST_1D, waves=()), build_space(FAST_1D))


@pytest.mark.parametrize(
    "line,words",
    [
        ("run.q = 2.5", "run.q"),
        ("grid.nxx = 200", "grid.nxx"),
        ("run.tfinal = abc", "run.tfinal"),
        ("ic.wave1.omega = fast", "ic.wave1.omega"),
        ("run.snapshots = a,b", "run.snapshots"),
        ("probe.x = 1000.0", "probe.x"),
        ("run.exact = foo", "run.exact"),
        ("run.mu = -3", "run.mu"),
        ("run.mu = nan", "run.mu"),
        ("run.tfinal = -1.0", "run.tfinal"),
        ("run.snapshots = 5.0", "run.snapshots"),
        ("run.snapshots = 0.1000001,0.1000002",
         "[0.1000001, 0.1000002] would share"),
        ("run.theta = 0.5", "run.theta"),
        ("run.rk = tvd3", "run.rk"),
    ],
    ids=["float-degree", "typo-key", "word-in-float", "word-in-wave",
         "word-in-snapshots", "probe-outside", "unknown-exact", "negative-mu",
         "nan-mu", "negative-tfinal", "snapshot-after-tfinal",
         "snapshots-share-a-file", "theta", "rk"],
)
def test_cli_rejects_config_text(capsys, tmp_path, line, words):
    cfgfile = tmp_path / "bad.cfg"
    save_config(cfgfile, FAST_1D)
    with open(cfgfile, "a") as fh:
        fh.write(line + "\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert words in capsys.readouterr().err


def test_cli_rejects_the_keys_of_an_older_config(capsys, tmp_path):
    # config.cfg files saved before the two-stage weights were fixed, the
    # exact field was derived from the problem and rkdg was always RK4 carry
    # these three lines
    cfgfile = tmp_path / "old.cfg"
    save_config(cfgfile, FAST_1D)
    with open(cfgfile, "a") as fh:
        fh.write("run.exact = auto\nrun.theta = 0.3333333333333333\nrun.rk = rk4\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert ("unknown or unused config keys: run.exact, run.rk, run.theta"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv,words",
    [
        (["run", "--config", "{cfg}", "--cells", "abc"], "grid.nx"),
        (["run", "--config", "{cfg}", "--cells", "100,200"], "grid.nx"),
        (["converge", "--config", "{cfg}", "--cells", "10,abc"], "grid.nx"),
        (["converge", "--config", "{cfg}", "--cells", "40"], "two or more"),
        (["converge", "--config", "{cfg}", "--cells", "40,40"], "distinct"),
        (["run", "--config", "{cfg}", "--mu", "-3"], "run.mu"),
        (["run", "--config", "{cfg}", "--mu", "inf"], "run.mu"),
        (["run", "--config", "{cfg}", "--full-scale"], "--full-scale"),
        (["run", "--preset", "ex43-mms", "--omega", "0.7"], "ic.wave1"),
        (["run", "--preset", "ex43-mms", "--v", "0.1"], "ic.wave1.v"),
    ],
    ids=["word-cells", "cells-list", "converge-word-cells", "converge-one-level",
         "converge-repeated-level", "negative-mu", "infinite-mu",
         "full-scale-no-preset", "mms-omega", "mms-v"],
)
def test_cli_rejects_flags(capsys, tmp_path, argv, words):
    cfgfile = tmp_path / "fast.cfg"
    save_config(cfgfile, FAST_1D)
    assert main([a.format(cfg=cfgfile) for a in argv]) == 2
    assert words in capsys.readouterr().err


def test_cli_flags_reach_the_config(tmp_path):
    cfgfile = tmp_path / "fast.cfg"
    save_config(cfgfile, FAST_1D)
    args = build_parser().parse_args([
        "run", "--config", str(cfgfile), "--mu", "0.2", "--tfinal", "0.1",
        "--scheme", "tsdg", "--q", "3", "--cells", "30", "--omega", "0.6",
        "--v", "0.1",
    ])
    assert cli._resolve_config(args) == replace(
        FAST_1D, mu=0.2, tfinal=0.1, scheme="tsdg", q=3, nx=30,
        waves=(WaveSpec(omega=0.6, v=0.1),),
    )
    args = build_parser().parse_args(["run", "--preset", "ex47-travelling",
                                      "--cells", "12"])
    cfg = cli._resolve_config(args)
    assert (cfg.nx, cfg.ny) == (12, 12)


def test_parse_config_text_types_by_field():
    flat = parse_config_text(
        "run.label = 42\nrun.q = 2.0\ngrid.xmin = -3\nic.wave2.S = 1\n"
        "probe.x = 1\nrun.snapshots = 0.5,1\n"
    )
    assert flat == {"run.label": "42", "run.q": 2, "grid.xmin": -3.0,
                    "ic.wave2.S": 1, "probe.x": 1.0, "run.snapshots": [0.5, 1.0]}
    assert [type(v) for v in flat.values()] == [str, int, float, int, float, list]
    for line in ("grid.xmin = abc", "model.kappa = inf", "model.m = true"):
        with pytest.raises(ConfigError, match=line.split(" ")[0]):
            parse_config_text(line)


def test_config_from_flat_takes_integral_floats_only():
    assert config_from_flat({"run.q": 2.0, "grid.nx": 12.0}).q == 2
    assert type(config_from_flat({"run.q": 2.0}).q) is int
    for flat in (
        {"run.q": 2.5},
        {"run.q": True},
        {"grid.nx": "many"},
        {"ic.wave1.omega": 0.8, "ic.wave1.S": 0.5},
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            config_from_flat(flat)


def test_config_from_flat_rejects_unused_keys():
    for flat in (
        {"grid.nxx": 200},
        {"probe.y": 1.0},
        {"ic.wave2.omega": 0.8},  # no wave 1
        {"ic.wave1.v": 0.1},  # a wave without its frequency
    ):
        with pytest.raises(ConfigError, match="unknown or unused"):
            config_from_flat(flat)


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--deterministic"], id="--deterministic"),
    pytest.param(["run", "--jobs", "7"], id="--jobs"),
    pytest.param(["converge", "--cells", "20,40", "--jobs", "3"], id="converge-jobs"),
])
def test_cli_run_rejects_removed_flags(capsys, tmp_path, argv):
    cfgfile = tmp_path / "fast.cfg"
    save_config(cfgfile, FAST_1D)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(cfgfile), *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_a_config_error(capsys, tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(b"run.label = caf\xe9\n")
    with pytest.raises(ConfigError, match="bad.cfg is not UTF-8 text"):
        load_config(cfgfile)
    assert main(["run", "--preset", "ex41-accuracy", "--config", str(cfgfile)]) == 2
    assert (f"error: config file {cfgfile} is not UTF-8 text"
            in capsys.readouterr().err)
    # the history and profile readers decode through the same reader
    for read, what, text in (
        (read_history, "history file", b"t,Q_h,E_h,Q_rela,E_rela\n0,1,1,0,\xe9\n"),
        (load_profile, "profile file", b"# caf\xe9\n1 2 3\n"),
    ):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=re.escape(f"{what} {path} is not UTF-8")):
            read(path)


def test_cli_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/path.cfg"]) == 4

"""The numeric artifacts, pinned to the byte.

`write_all` writes every numeric text file the package produces from fixed
inputs holding -0.0, nan, 1e-300, 1e300 and integral floats: `history.csv`,
`probe.csv`, a 1D and a 2D snapshot, `converge.csv` (through `cli.main`,
with the study replaced by fixed numbers) and a wave-profile file.  Each
must equal, byte for byte, the file of the same name in
`tests/data/artifact_text/`; any difference is a change of file format.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from diracdg import cli
from diracdg.model import NLDModel
from diracdg.runner import read_history, write_history, write_probe, write_snapshot
from diracdg.waves import WaveProfile, load_profile, save_profile

DATA = os.path.join(os.path.dirname(__file__), "data", "artifact_text")
NAN = float("nan")

HISTORY = np.array([
    [0.0, 1.5, -2.25, 0.0, -0.0],
    [0.1, NAN, 1e300, 1e-300, NAN],
    [1e300, -0.0, 3.0, 1e300, 2.0],
    [12.0, 1e-300, -7.0, -1.5, 1e-300],
])
PROBE = np.array([[0.0, -0.0], [0.25, 1e-300], [1e300, NAN], [3.0, 4.0]])
# a standing-wave profile with S = 1
PROFILE = dict(dim=2, S=1, omega=0.8, model=NLDModel(m=1.0, lam=0.5, kappa=2.0),
               R=4.0, N=4, r=np.array([4.0, 2.0, 1.0, 0.5, 0.0]),
               p=np.array([-0.0, 1e-300, 3.0, NAN, 1.25]),
               w=np.array([1e300, -2.0, 0.0, 7.0, -0.5]), residual=1e-13)
STUDY = {"cells": [50, 100, 200], "l2": [1e-300, NAN, -0.0],
         "linf": [1e300, 2.0, 3.0], "orders": [3.99995, -0.0]}
FILES = ("history.csv", "probe.csv", "snapshot_1d.txt", "snapshot_2d.txt",
         "converge.csv", "profile.txt")


def _stub_space(names, centres):
    """Just what `write_snapshot` reads of a space; the coefficients passed
    with it are the point values themselves."""
    return SimpleNamespace(names=names, centres=centres,
                           point_values=lambda coeffs, *pts: coeffs)


def write_all(outdir, monkeypatch):
    write_history(os.path.join(outdir, "history.csv"), HISTORY)
    write_probe(os.path.join(outdir, "probe.csv"), PROBE)
    u1 = np.array([[-0.0, 1e-300, 3.0], [NAN, 2.0, -1.0],
                   [0.5, -0.0, 1e100], [1.0, 1e-300, -4.0]])
    write_snapshot(os.path.join(outdir, "snapshot_1d.txt"),
                   _stub_space("x", (np.array([-0.0, 1e300, 2.0]),)), u1, 0.1)
    xy = (np.array([-1e300, 0.5]), np.array([-0.0, 1e-300, 6.0]))
    u2 = np.arange(24.0).reshape(4, 6) - 12.0
    u2[0, 1], u2[2, 3] = NAN, -0.0
    write_snapshot(os.path.join(outdir, "snapshot_2d.txt"),
                   _stub_space("xy", xy), u2, 2.0)
    monkeypatch.setattr(cli, "converge_study", lambda *a, **k: STUDY)
    argv = ["converge", "--preset", "ex41-accuracy", "--cells", "50,100,200",
            "--out", str(outdir)]
    assert cli.main(argv) == 0
    save_profile(os.path.join(outdir, "profile.txt"), WaveProfile(**PROFILE))


def test_artifact_text_is_pinned(tmp_path, monkeypatch):
    write_all(tmp_path, monkeypatch)
    for name in FILES:
        with open(os.path.join(DATA, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
    # the readers give back exactly the numbers that were written
    assert np.array_equal(read_history(tmp_path / "history.csv"), HISTORY,
                          equal_nan=True)
    back = load_profile(tmp_path / "profile.txt")
    for key in ("r", "p", "w"):
        assert np.array_equal(getattr(back, key), PROFILE[key], equal_nan=True)
    assert (back.dim, back.S, back.omega, back.model, back.R, back.N,
            back.residual) == tuple(PROFILE[k] for k in (
                "dim", "S", "omega", "model", "R", "N", "residual"))

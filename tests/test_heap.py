"""The glibc heap policy that `run_simulation` applies once per process."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import diracdg
from diracdg import heap


def test_policy_is_applied_once(monkeypatch):
    calls = []

    def mallopt(option, value):
        calls.append((option, value))
        return 1

    monkeypatch.setattr(heap, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(heap, "openblas_threads",
                        lambda: [(lambda n: calls.append(("blas threads", n)), None)])
    monkeypatch.setattr(heap, "_applied", None)
    assert heap.keep_freed_heap_mapped() is True
    assert heap.keep_freed_heap_mapped() is True
    assert calls == [
        (heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD),
        (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD),
        (heap.M_ARENA_MAX, heap.ARENA_MAX),
        ("blas threads", 1),
    ]


@pytest.mark.parametrize("libc", [None, object()], ids=["no-glibc", "no-mallopt"])
def test_policy_without_mallopt_does_nothing(monkeypatch, libc):
    monkeypatch.setattr(heap, "_libc", lambda: libc)
    monkeypatch.setattr(heap, "openblas_threads", lambda: [])
    monkeypatch.setattr(heap, "_applied", None)
    assert heap.keep_freed_heap_mapped() is False
    assert heap.keep_freed_heap_mapped() is False


# One forced 80^2 P2 rkdg run in a fresh interpreter, with the minor page
# faults of each step counted around the stepper.
_FAULTS_PER_STEP = """
import json, resource
from dataclasses import replace
from diracdg import runner
from diracdg.integrators import cfl_dt

cfg = runner.RunConfig(dim=2, scheme="rkdg", q=2, xmin=-2.0, xmax=2.0, nx=80,
                       ymin=-2.0, ymax=2.0, ny=80, ic="mms", source="mms",
                       history_every=1000)
dt = cfl_dt(runner.build_space(cfg), cfg.effective_mu())
cfg = replace(cfg, tfinal=4.5 * dt)
faults = []
make_stepper = runner.make_stepper


def counted(*args):
    step = make_stepper(*args)

    def wrapped(u, t, tau):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        u = step(u, t, tau)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return u

    return wrapped


runner.make_stepper = counted
runner.run_simulation(cfg)
print(json.dumps(faults))
"""


@pytest.mark.skipif(heap._libc() is None, reason="the C library is not glibc")
def test_forced_2d_steps_take_no_page_faults():
    src = str(Path(diracdg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    faults = json.loads(out.stdout.splitlines()[-1])
    assert len(faults) == 5
    # 8.4k-11.9k per step when the freed heap top is handed back to the
    # system; with it kept mapped only growth to a new peak faults pages in
    assert max(faults[1:]) < 1000, faults


# The first use of the thread pool, in a fresh interpreter that never calls
# run_simulation: it must apply the policy before its threads exist.
_POOL_FIRST = """
import json
from diracdg import heap, pool

before = [get() for _, get in heap.openblas_threads()]
assert heap._applied is None
assert list(pool.map(abs, [-1, 2])) == [1, 2]
print(json.dumps({"applied": heap._applied, "before": before,
                  "after": [get() for _, get in heap.openblas_threads()]}))
"""


@pytest.mark.skipif(not heap.openblas_threads(),
                    reason="no OpenBLAS with a thread-count call is loaded")
def test_pool_applies_policy_and_leaves_one_blas_thread():
    src = str(Path(diracdg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _POOL_FIRST], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["applied"] is not None
    assert got["before"] and got["after"] == [1] * len(got["before"]), got


@pytest.mark.skipif(not heap.openblas_threads(),
                    reason="no OpenBLAS with a thread-count call is loaded")
def test_cli_wave_profile_does_not_depend_on_blas_threads(tmp_path):
    # the dense Newton solves round differently on two OpenBLAS threads; the
    # solve applies the policy first, so both files hold the run's bits
    src = str(Path(diracdg.__file__).resolve().parent.parent)
    written = []
    for threads in ("2", "1"):
        out = tmp_path / f"profile_{threads}.txt"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "diracdg.cli", "wave", "--omega", "0.8",
                        "--kappa", "2", "--out", str(out)],
                       env=env, capture_output=True, text=True, check=True, timeout=120)
        written.append(out.read_bytes())
    assert written[0] == written[1]

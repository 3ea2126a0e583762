"""One `run_simulation` call with an output directory, in a fresh process.

    python3 perfbench/worker.py '<json job>'

A fresh interpreter per run is what a user pays on `diracdg run`: the
in-process profile cache starts empty and BLAS starts cold.  The job gives
the RunConfig fields, the output directory and whether to trace.  The
worker writes the final coefficients (and the wave profile it solved, if
any) next to the run's own artifacts and prints one JSON line of timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import diracdg  # noqa: E402
from diracdg import runner  # noqa: E402

import spans  # noqa: E402


def main():
    job = json.loads(sys.argv[1])
    fields = dict(job["cfg"])
    fields["waves"] = tuple(runner.WaveSpec(**w) for w in fields["waves"])
    fields["probe"] = tuple(fields["probe"])
    cfg = runner.RunConfig(**fields)
    outdir = Path(job["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    if job["trace"]:
        tracer, steps = spans.install_tracer(diracdg, cfg.dim, cfg.q)
        setup = None
    else:
        setup, steps = spans.install_timers(runner)

    t0 = time.perf_counter()
    res = runner.run_simulation(cfg, outdir=str(outdir))
    wall = time.perf_counter() - t0

    np.save(outdir / "coeffs.npy", res.coeffs)
    profiles = list(runner._PROFILE_CACHE.values())
    if profiles:
        p = profiles[0]
        np.savez(outdir / "profile.npz", r=p.r, p=p.p, w=p.w, R=p.R,
                 omega=p.omega, kappa=p.model.kappa, S=p.S)
    out = {
        "wall": wall,
        "step_seconds": sum(steps.times),
        "steps": len(steps.times),
        "nsteps_reported": res.nsteps,
        "t": res.t,
        "cells": int(np.prod(res.coeffs.shape[1:-1])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup is not None:
        out["setup"] = setup[0]
    else:
        spans.check_calls(tracer, len(steps.times), cfg.scheme, cfg.dim)
        out["trace"] = tracer.rows()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Guard on the per-step call counts that the benchmark's traced run pins.

`perfbench/worker.py` with "trace": 1 wraps the package's layers from
outside and exits non-zero when a step makes another number of `table_dot`
or `time_jet` calls than `perfbench/spans.py:expected_calls` allows (for
example, 1D edge values read through two contractions instead of one).
This runs that worker, traced, for every scheme on a tiny 1D wave mesh, a
tiny forced 2D mesh and the smallest forced 2D P2 mesh whose volume calls
go through the thread pool (there the pool's threads call the traced
`NLDModel.g_jet`), so such a change fails in the test suite and not first
in a benchmark run.  It reads `perfbench/` and writes only under the test's
temporary directory.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracdg import pool

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
# cells per axis from which a P2 volume operand, 4 x nx^2 x 9 elements,
# reaches the pool's size rule
POOL_NX = math.isqrt((pool.MIN_ELEMENTS - 1) // 36) + 1

MESHES = {
    # 4 steps of a boosted quintic wave at P3
    "1d": dict(label="pins-1d", dim=1, q=3, kappa=2.0, xmin=-20.0, xmax=20.0,
               nx=16, tfinal=0.3, waves=[dict(omega=0.8, v=0.1)], wave_N=64,
               probe=[0.0]),
    # 3 steps of the forced Gaussian at P2
    "2d": dict(label="pins-2d", dim=2, q=2, xmin=-2.0, xmax=2.0, nx=4,
               ymin=-2.0, ymax=2.0, ny=4, tfinal=0.15, ic="mms", source="mms",
               waves=[], probe=[]),
    # 3 steps of the same problem at P2 on the pool
    "2d-pool": dict(label="pins-2d-pool", dim=2, q=2, xmin=-2.0, xmax=2.0,
                    nx=POOL_NX, ymin=-2.0, ymax=2.0, ny=POOL_NX,
                    tfinal=0.6 / POOL_NX, ic="mms", source="mms", waves=[],
                    probe=[]),
}


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("scheme", ["rkdg", "lwdg", "tsdg"])
def test_traced_worker_counts_hold(tmp_path, scheme, mesh):
    job = {"cfg": dict(MESHES[mesh], scheme=scheme), "outdir": str(tmp_path),
           "trace": 1}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-1:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["steps"] >= 3 and out["trace"]

"""Benchmark of the three DG time discretisations, end to end and per layer.

    python3 perfbench/run.py --workload soliton-1d --seed 1 --seconds 25 --trace 0

Each operation is one `run_simulation` call with an output directory (the
path `diracdg run` takes), made in a fresh worker process.  A round runs
every scheme on every mesh of the workload; a run repeats whole rounds
until `--seconds` have passed and reports medians over its rounds.  Every
round is checked against references computed in `reference.py`, apart
from the package.  With `--trace 1` each untraced round is followed by a
traced one, which reports the per-layer split and the tracing overhead;
the end-to-end metrics always come from untraced rounds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads,
the metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402

SCHEMES = ("rkdg", "lwdg", "tsdg")
RUN_BUDGET = 170.0  # seconds; a run must end within 180 s
TRAVELLING_TOL = 3e-4  # L2, against the certified wave and between schemes


# ---------------------------------------------------------------------------
# workloads: the seed places and boosts the waves; the package draws nothing

def soliton_1d(rng):
    """Quintic (kappa = 2) boosted soliton on the ex41 domain at P3."""
    v, x0 = rng.uniform(-0.205, -0.195), rng.uniform(-2.0, 2.0)
    cfg = dict(label="soliton-1d", dim=1, q=3, kappa=2.0, xmin=-60.0, xmax=60.0,
               tfinal=10.0, history_every=10, probe=[x0],
               waves=[dict(omega=0.8, v=v, x0=x0)])

    def error(res, coeffs):
        return ref.l2_error_1d(coeffs, -60.0, 60.0, 3,
                               lambda x: ref.soliton_1d(0.8, 2.0, v, x0, res["t"], x))

    return dict(cfg=cfg, meshes=(200, 400), error=error, min_order=3.5,
                max_order=np.inf, unforced=True)


def travelling_2d(rng):
    """The ex47 cubic boosted wave on its full-scale 200^2 mesh at P2."""
    v = rng.uniform(-0.11, -0.09)
    x0, y0 = rng.uniform(-1.0, 1.0, 2)
    box = (-20.0, 20.0, -20.0, 20.0)
    cfg = dict(label="travelling-2d", dim=2, q=2, xmin=-20.0, xmax=20.0,
               ymin=-20.0, ymax=20.0, tfinal=0.08, history_every=1, probe=[],
               waves=[dict(omega=0.8, v=v, x0=x0, y0=y0)])
    sampled = {}

    def error(res, coeffs):
        prof = np.load(Path(res["dir"]) / "profile.npz")
        wave = ref.Profile2D(prof["r"], prof["p"], prof["w"], float(prof["omega"]),
                             float(prof["kappa"]), float(prof["R"]))
        residual = wave.residual()
        if residual > 1e-10:
            raise CheckFailed(f"profile residual {residual:.2e} > 1e-10")
        if res["t"] not in sampled:
            sampled[res["t"]] = ref.sample_2d(
                box, 200, 200, 2, lambda x, y: wave.field(v, x0, y0, res["t"], x, y))
        err = ref.l2_error_2d(coeffs, box, 2, sampled[res["t"]])
        if err > TRAVELLING_TOL:
            raise CheckFailed(f"{res['scheme']} L2 error {err:.3e} > {TRAVELLING_TOL}")
        return err

    def agree(fields):
        worst = max(ref.l2_distance_2d(fields[a], fields[b], box, 2)
                    for a in SCHEMES for b in SCHEMES if a < b)
        if worst > TRAVELLING_TOL:
            raise CheckFailed(f"schemes differ by {worst:.3e} > {TRAVELLING_TOL}")
        return worst

    return dict(cfg=cfg, meshes=(200,), error=error, agree=agree, unforced=True)


def mms_2d(rng):
    """The forced Gaussian of ex43 at P2, the mesh shifted under it."""
    ax, ay = rng.uniform(-0.05, 0.05, 2)
    box = (-2.0 + ax, 2.0 + ax, -2.0 + ay, 2.0 + ay)
    cfg = dict(label="mms-2d", dim=2, q=2, xmin=box[0], xmax=box[1], ymin=box[2],
               ymax=box[3], tfinal=0.05, history_every=10, probe=[], waves=[],
               ic="mms", source="mms")

    def error(res, coeffs):
        n = coeffs.shape[1]
        exact = ref.sample_2d(box, n, n, 2, lambda x, y: ref.mms_field(x, y, res["t"]))
        return ref.l2_error_2d(coeffs, box, 2, exact)

    return dict(cfg=cfg, meshes=(40, 80), error=error, min_order=3.0 - 0.35,
                max_order=3.0 + 0.35, unforced=False)


WORKLOADS = {"soliton-1d": soliton_1d, "travelling-2d": travelling_2d, "mms-2d": mms_2d}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# running

def run_job(job, deadline):
    """One worker process; returns its result dict or raises."""
    # One BLAS thread: on a 2-vCPU host, 2-thread BLAS slowed the 2D runs
    # 3-5x whenever anything else competed for the cores (see README).
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                           else f"worker exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(name, plan, trace, deadline, tally):
    """Every scheme on every mesh; returns the successful results."""
    results = []
    for scheme in SCHEMES:
        for n in plan["meshes"]:
            mesh = {"nx": n} if plan["cfg"]["dim"] == 1 else {"nx": n, "ny": n}
            outdir = OUT / name / f"{scheme}-{n}"
            job = {"cfg": dict(plan["cfg"], scheme=scheme, **mesh),
                   "outdir": str(outdir), "trace": trace}
            tally["attempted"] += 1
            try:
                res = run_job(job, deadline)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                tally["failed"] += 1
                print(f"FAILED {scheme} n={n}: {exc}", file=sys.stderr)
                continue
            res.update(scheme=scheme, n=n, dir=str(outdir))
            results.append(res)
    return results


def check_round(plan, results):
    """Grade a round against the references; returns per-scheme errors on
    the finest mesh.  Raises CheckFailed on any violation."""
    tfinal = plan["cfg"]["tfinal"]
    errors = defaultdict(dict)
    fields = {}
    for res in results:
        if abs(res["t"] - tfinal) > 1e-12 * max(1.0, tfinal):
            raise CheckFailed(f"{res['scheme']} stopped at t={res['t']!r}")
        coeffs = np.load(Path(res["dir"]) / "coeffs.npy")
        errors[res["scheme"]][res["n"]] = plan["error"](res, coeffs)
        if res["n"] == plan["meshes"][-1]:
            fields[res["scheme"]] = coeffs
        if plan["unforced"]:
            q_h = np.loadtxt(Path(res["dir"]) / "history.csv", delimiter=",",
                             skiprows=1, ndmin=2)[:, 1]
            if np.any(np.diff(q_h) > 1e-12 * q_h[0]):
                raise CheckFailed(f"{res['scheme']} n={res['n']}: discrete charge grew")
    for scheme, errs in errors.items():
        if len(plan["meshes"]) == 2 and len(errs) == 2:
            lo, hi = plan["meshes"]
            order = float(np.log2(errs[lo] / errs[hi]) / np.log2(hi / lo))
            print(f"{scheme} L2 order {order:.3f}")
            if not plan["min_order"] <= order <= plan["max_order"]:
                raise CheckFailed(f"{scheme} L2 order {order:.3f} outside "
                                  f"[{plan['min_order']}, {plan['max_order']}]")
    if "agree" in plan and len(fields) == len(SCHEMES):
        plan["agree"](fields)
    return {s: e[plan["meshes"][-1]] for s, e in errors.items()
            if plan["meshes"][-1] in e}


def end_to_end(results, errors, finest):
    """Untraced round -> wall, fine-mesh set-ups, ns/cell-step, errors, RSS."""
    out = {"wall_s": sum(r["wall"] for r in results),
           "setups": [r["setup"] for r in results if r["n"] == finest],
           "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    for s in SCHEMES:
        mine = [r for r in results if r["scheme"] == s]
        cell_steps = sum(r["cells"] * r["steps"] for r in mine)
        out[f"{s}_ns_per_cell_step"] = 1e9 * sum(r["step_seconds"] for r in mine) / cell_steps
        out[f"{s}_l2_error"] = errors[s]
    return out


# ---------------------------------------------------------------------------
# per-layer split of a traced round

_STEP_SPANS = {"rkdg": ("rkdg.rk4_step", "rkdg.rkdg_residual"),
               "lwdg": ("lwdg.lwdg_step",), "tsdg": ("tsdg.tsdg_step",)}


def layer_metrics(results):
    stat = defaultdict(lambda: np.zeros(4))  # calls, incl, self, extra
    group = defaultdict(float)
    steps = defaultdict(int)
    for r in results:
        s = r["scheme"]
        steps[s] += r["steps"]
        for in_step, name, *rec in r["trace"]["stats"]:
            stat[(s, in_step, name)] += rec
        for in_step, g, t in r["trace"]["groups"]:
            group[(s, in_step, g)] += t

    def total(name, col):
        return float(sum(v[col] for k, v in stat.items() if k[2] == name))

    def group_total(g):
        return float(sum(v for k, v in group.items() if k[2] == g))

    m = {}
    for s in SCHEMES:
        n = steps[s]
        ms = 1e3 / n
        m[f"mesh.table_dot.calls_per_step.{s}"] = stat[(s, True, "mesh.table_dot")][0] / n
        m[f"mesh.table_dot.ms_per_step.{s}"] = group[(s, True, "mesh.table_dot")] * ms
        m[f"mesh.table_dot.bytes_per_step.{s}"] = stat[(s, True, "mesh.table_dot")][3] / n
        m[f"mesh.jets.ms_per_step.{s}"] = group[(s, True, "mesh.jets")] * ms
        m[f"model.g_jet.ms_per_step.{s}"] = group[(s, True, "model.g_jet")] * ms
        m[f"semidiscrete.flux.ms_per_step.{s}"] = group[(s, True, "semidiscrete.flux")] * ms
        m[f"semidiscrete.edge_term.ms_per_step.{s}"] = (
            group[(s, True, "semidiscrete.edge_term")] * ms)
        self_s = stat[(s, True, "step")][2] + sum(
            stat[(s, True, name)][2] for name in _STEP_SPANS[s])
        m[f"{s}.step.self_ms_per_step"] = self_s * ms
        m[f"waves.mms_jet.ms_per_step.{s}"] = group[(s, True, "waves.mms_jet")] * ms
        m[f"waves.mms_jet.calls_per_step.{s}"] = stat[(s, True, "waves.mms_jet")][0] / n
    for s in ("lwdg", "tsdg"):
        vol = stat[(s, True, "cascade.time_jet.volume")]
        edge = stat[(s, True, "cascade.time_jet.edge")]
        m[f"cascade.time_jet.volume.ms_per_step.{s}"] = vol[1] * 1e3 / steps[s]
        m[f"cascade.time_jet.edge.ms_per_step.{s}"] = edge[1] * 1e3 / steps[s]
        m[f"cascade.time_jet.calls_per_step.{s}"] = (vol[0] + edge[0]) / steps[s]
    m["mesh.project.s"] = total("mesh.project", 1)
    m["waves.solve_standing_wave.s"] = total("waves.solve_standing_wave", 1)
    m["waves.newton_solves"] = total("numpy.linalg.solve", 0)
    m["waves.superposed_real.s"] = total("waves.superposed_real", 1)
    m["waves.superposed_real.points"] = total("waves.superposed_real", 3)
    m["diagnostics.s"] = group_total("diagnostics")
    m["diagnostics.calls"] = sum(total(f"diagnostics.{f}", 0) for f in
                                 ("total_charge", "total_energy", "probe_charge_density"))
    m["runner.io.s"] = group_total("runner.io")
    m["runner.io.bytes"] = sum(total(f"runner.{f}", 3) for f in
                               ("save_config", "write_history", "write_probe", "write_snapshot"))
    return m


LAYER_UNITS = {
    "calls_per_step": "calls", "ms_per_step": "ms", "bytes_per_step": "bytes_computed",
    "self_ms_per_step": "ms", "newton_solves": "count", "points": "count",
    "calls": "count", "bytes": "bytes", "model_ops_per_cell_step": "ops",
    "ns_per_model_op": "ns", "overhead_s": "s", "s": "s",
}


def layer_unit(name):
    for part in reversed(name.split(".")):
        if part in LAYER_UNITS:
            return LAYER_UNITS[part]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# cost model beside measurement

def cost_model(finest, q):
    """Model operations per cell-step on the 1D finest mesh (cost.py)."""
    sys.path.insert(0, str(ROOT / "src"))
    from diracdg.cost import compare_schemes

    return {s: c["total"] / finest for s, c in compare_schemes(q, finest).items()}


def rank(values):
    return " < ".join(sorted(values, key=values.get))


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diracdg" / "runner.py").is_file():
        sys.exit(f"no package source under {ROOT / 'src'}; run from a full checkout")

    start = time.monotonic()
    deadline = start + RUN_BUDGET
    plan = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    finest = plan["meshes"][-1]
    tally = {"attempted": 0, "failed": 0}
    correct = True
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        for trace in (False, True) if args.trace else (False,):
            results = run_round(args.workload, plan, trace, deadline, tally)
            try:
                errors = check_round(plan, results)
            except CheckFailed as exc:
                correct = False
                print(f"CHECK FAILED: {exc}", file=sys.stderr)
                continue
            if len(results) < len(SCHEMES) * len(plan["meshes"]):
                continue
            if trace:
                traced.append((sum(r["wall"] for r in results), layer_metrics(results)))
            else:
                plain.append(end_to_end(results, errors, finest))
                print("round", json.dumps({k: v for k, v in plain[-1].items()
                                           if "error" not in k}))
                for r in results:
                    if r["steps"] != r["nsteps_reported"]:
                        print(f"note: {r['scheme']} n={r['n']} took {r['steps']} steps, "
                              f"RunResult.nsteps = {r['nsteps_reported']}")
        now = time.monotonic()
        # whole rounds only: stop at --seconds, or before a round that
        # would not finish within the run's time limit
        if now - start >= args.seconds or now + (now - round_start) > deadline:
            break

    if not plain or (args.trace and not traced):
        # nothing to measure, but the tally of operations still stands
        report(args, {"correct": False, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": {}})
        sys.exit("no complete round; see the messages above")

    e2e = {k: statistics.median(r[k] for r in plain) for k in plain[0] if k != "setups"}
    e2e["setup_s"] = statistics.median(s for r in plain for s in r["setups"])
    e2e["peak_rss_mb"] = max(r["peak_rss_mb"] for r in plain)
    ns = {s: e2e[f"{s}_ns_per_cell_step"] for s in SCHEMES}
    print(f"{args.workload}: {len(plain)} untraced round(s), measured ns/cell-step "
          f"ranking {rank(ns)}")
    if plan["cfg"]["dim"] == 1:
        model = cost_model(finest, plan["cfg"]["q"])
        verdict = "agrees" if rank(model) == rank(ns) else "DISAGREES"
        print(f"cost model (cost.compare_schemes) ranking {rank(model)}: measurement {verdict}")

    if args.trace:
        layers = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
        for s in SCHEMES:
            ops = model[s] if plan["cfg"]["dim"] == 1 else 0.0
            layers[f"cost.model_ops_per_cell_step.{s}"] = ops
            layers[f"cost.ns_per_model_op.{s}"] = ns[s] / ops if ops else 0.0
        layers["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - e2e["wall_s"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [m for _, m in traced]}, fh, indent=1)
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units.get(k, "ns" if "ns_per" in k else "1")}
                   for k, v in e2e.items()}
    report(args, {"correct": correct, "attempted": tally["attempted"],
                  "failed": tally["failed"], "metrics": metrics})


def report(args, result):
    """Write the result object to perfbench/out/ and print it as the last line."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

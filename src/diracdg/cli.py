"""Command-line front end.

Subcommands::

    diracdg run       --preset ex42-error-history --out results/
    diracdg converge  --preset ex41-accuracy --cells 100,200,400 --jobs 3
    diracdg cost      --q 3 --cells 1000 --steps 100
    diracdg wave      --omega 0.8 --dim 2 --out profile.txt

Exit codes: 0 success, 2 usage or configuration error (also a problem too
large for the memory: the message names the allocation that failed), 3
numerical failure (blow-up, nonlinear solver stall or collapse), 4 file I/O
error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .cost import SCHEMES, compare_schemes, cost_table
from .diagnostics import order_table
from .errors import (
    BlowupError,
    ConfigError,
    DomainError,
    NoConvergence,
    Unsupported,
)
from .model import NLDModel
from .runner import (
    RunConfig,
    config_from_flat,
    config_to_flat,
    converge_study,
    parse_config_text,
    preset_config,
    run_simulation,
)
from .waves import decay_rate, profile_charge, save_profile, solve_standing_wave


def _add_common(p):
    p.add_argument("--preset", help="named experiment configuration")
    p.add_argument("--config", help="config file (overrides preset values)")
    p.add_argument("--full-scale", action="store_true",
                   help="use the full-size variant of the preset")
    p.add_argument("--out", help="output directory (or file, for `wave`)")
    p.add_argument("--mu", type=float, help="CFL number override")
    p.add_argument("--tfinal", type=float, help="final time override")
    p.add_argument("--cells", help="cells per direction (or comma list)")
    p.add_argument("--scheme", choices=("rkdg", "lwdg", "tsdg"))
    p.add_argument("--q", type=int, help="polynomial degree")
    p.add_argument("--omega", type=float, help="frequency of the first wave")
    p.add_argument("--v", type=float, help="velocity of the first wave")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diracdg",
        description="discontinuous Galerkin solvers for the nonlinear Dirac equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="mesh refinement study")
    _add_common(p_conv)
    p_conv.add_argument("--jobs", type=int, default=1,
                        help="parallel workers, one level each")
    p_conv.set_defaults(func=cmd_converge)

    p_cost = sub.add_parser("cost", help="per-step operation-count model")
    p_cost.add_argument("--q", type=int, default=2, choices=(2, 3))
    p_cost.add_argument("--cells", type=int, default=100)
    p_cost.add_argument("--steps", type=int, default=1)
    p_cost.add_argument("--out", help="write the table to this file")
    p_cost.set_defaults(func=cmd_cost)

    p_wave = sub.add_parser("wave", help="solve a solitary-wave profile")
    p_wave.add_argument("--omega", type=float, required=True)
    p_wave.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p_wave.add_argument("--spin", type=int, default=0, dest="S")
    p_wave.add_argument("--kappa", type=float, default=1.0)
    p_wave.add_argument("--lam", type=float, default=0.5)
    p_wave.add_argument("--mass", type=float, default=1.0)
    p_wave.add_argument("--R", type=float, help="truncation radius")
    p_wave.add_argument("--N", type=int, default=256, help="collocation nodes")
    p_wave.add_argument("--out", help="write the profile to this file")
    p_wave.set_defaults(func=cmd_wave)

    return parser


def _resolve_config(args) -> RunConfig:
    """Preset, config file and flags merged, in that order, into one flat
    config, each flag under its own key, and read by `config_from_flat`."""
    if not (args.preset or args.config):
        raise ConfigError("provide --preset and/or --config")
    if args.full_scale and not args.preset:
        raise ConfigError("--full-scale needs --preset")
    base = preset_config(args.preset, args.full_scale) if args.preset else RunConfig()
    flat = config_to_flat(base)
    if args.config:
        with open(args.config) as fh:
            flat.update(parse_config_text(fh.read()))
    cells = args.cells if args.command == "run" else None
    flags = {
        "run.mu": args.mu, "run.tfinal": args.tfinal, "run.scheme": args.scheme,
        "run.q": args.q, "grid.nx": cells,
        "grid.ny": cells if flat["grid.dim"] == 2 else None,
        "ic.wave1.omega": args.omega, "ic.wave1.v": args.v,
    }
    flat.update((key, val) for key, val in flags.items() if val is not None)
    return config_from_flat(flat)


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    res = run_simulation(cfg, outdir=args.out)
    last = res.history[-1]
    print(f"{cfg.label}: {cfg.scheme} P{cfg.q}, {cfg.nx}"
          + (f"x{cfg.ny}" if cfg.dim == 2 else "")
          + f" cells, dt = {res.dt:.4e}, t = {res.t:g}")
    print(f"  Q_h = {last[1]:.10e}  (relative drift {last[3]:.3e})")
    print(f"  E_h = {last[2]:.10e}  (relative drift {last[4]:.3e})")
    if res.err_l2 is not None:
        print(f"  L2 error   = {res.err_l2:.6e}")
        print(f"  Linf error = {res.err_linf:.6e}")
    if args.out:
        print(f"  wrote history.csv / snapshot_final.txt under {args.out}")
    return 0


def cmd_converge(args) -> int:
    cfg = _resolve_config(args)
    if args.cells:
        cells = args.cells.split(",")
    else:
        cells = [20, 40, 80] if cfg.dim == 2 else [100, 200, 400]
    study = converge_study(cfg, cells, jobs=args.jobs)
    table = order_table(study["cells"], study["l2"], label=f"{cfg.label} L2")
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "converge.csv")
        rows = np.column_stack([study["cells"], study["l2"], study["linf"],
                                [np.nan] + study["orders"]])
        np.savetxt(path, rows, fmt=["%d", "%.10e", "%.10e", "%.4f"],
                   delimiter=",", header="cells,l2,linf,order", comments="")
        print(f"wrote {path}")
    return 0


def cmd_cost(args) -> int:
    table = cost_table(args.q, args.cells, args.steps)
    print(table)
    totals = compare_schemes(args.q, args.cells, args.steps)
    best = min(SCHEMES, key=lambda s: totals[s]["total"])
    print(f"cheapest per step at this size: {best}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    return 0


def cmd_wave(args) -> int:
    model = NLDModel(m=args.mass, lam=args.lam, kappa=args.kappa)
    prof = solve_standing_wave(
        args.omega, dim=args.dim, S=args.S, model=model, R=args.R, N=args.N
    )
    print(f"profile: dim={args.dim} S={args.S} omega={args.omega}")
    print(f"  residual      = {prof.residual:.3e}")
    print(f"  charge        = {profile_charge(prof):.10f}")
    print(f"  decay rate    = {decay_rate(prof):.6f} "
          f"(sqrt(m^2-omega^2) = {prof.decay_exponent:.6f})")
    if args.out:
        save_profile(args.out, prof)
        print(f"  wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, Unsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlowupError, NoConvergence, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

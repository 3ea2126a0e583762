"""Operation-count model of the three solvers on 1D meshes.

Per time step on J cells with Gp-point Gauss quadrature, each scheme
performs ((a Gp + b) J + c) operations of each arithmetic kind; the
coefficients below are exact counts of the straight-line P2/P3 kernels
(additions include subtractions; assignments count stores of computed
values).  Gp = q + 1 in actual runs.  The one-step Taylor scheme trades
its single sweep for the densest per-cell work; the two-stage scheme is
the cheapest per step of the three.
"""

from __future__ import annotations

from .errors import ConfigError, Unsupported

# (scheme, q) -> kind -> (a, b, c) with count = ((a*Gp + b)*J + c) * nsteps
_TABLE = {
    ("lwdg", 2): {
        "adds": (166, 270, 220), "muls": (207, 284, 256), "assigns": (95, 192, 152),
    },
    ("lwdg", 3): {
        "adds": (186, 294, 220), "muls": (231, 308, 257), "assigns": (99, 212, 152),
    },
    ("tsdg", 2): {
        "adds": (122, 228, 72), "muls": (136, 156, 60), "assigns": (104, 208, 69),
    },
    ("tsdg", 3): {
        "adds": (154, 276, 72), "muls": (168, 204, 62), "assigns": (116, 240, 79),
    },
    ("rkdg", 2): {
        "adds": (128, 260, 50), "muls": (148, 152, 23), "assigns": (116, 208, 57),
    },
    ("rkdg", 3): {
        "adds": (176, 320, 50), "muls": (196, 208, 25), "assigns": (132, 240, 59),
    },
}

KINDS = ("adds", "muls", "assigns")
SCHEMES = ("lwdg", "tsdg", "rkdg")


def op_count(scheme: str, q: int, kind: str, j: int, nsteps: int = 1,
             gp: int | None = None) -> int:
    """Exact predicted number of `kind` operations for nsteps steps."""
    key = (scheme, q)
    if key not in _TABLE:
        raise Unsupported(f"no operation counts for scheme={scheme}, q={q}")
    if kind not in KINDS:
        raise Unsupported(f"unknown operation kind {kind!r}")
    if j < 1 or nsteps < 1:
        raise ConfigError(f"need J >= 1 cells and >= 1 steps, got {j} and {nsteps}")
    a, b, c = _TABLE[key][kind]
    gp = q + 1 if gp is None else gp
    return ((a * gp + b) * j + c) * nsteps


def predicted_ops(scheme: str, q: int, j: int, nsteps: int = 1,
                  gp: int | None = None) -> dict:
    out = {kind: op_count(scheme, q, kind, j, nsteps, gp) for kind in KINDS}
    out["total"] = sum(out.values())
    return out


def compare_schemes(q: int, j: int, nsteps: int = 1) -> dict:
    """Per-scheme counts at the scheme's natural Gp = q + 1."""
    return {s: predicted_ops(s, q, j, nsteps) for s in SCHEMES}


def cost_table(q: int, j: int, nsteps: int = 1) -> str:
    rows = compare_schemes(q, j, nsteps)
    lines = [
        f"predicted operation counts  (P{q}, J={j}, steps={nsteps}, Gp={q+1})",
        f"{'scheme':>8}  {'adds':>14}  {'muls':>14}  {'assigns':>14}  {'total':>15}",
    ]
    for s in SCHEMES:
        r = rows[s]
        lines.append(
            f"{s:>8}  {r['adds']:>14}  {r['muls']:>14}  {r['assigns']:>14}"
            f"  {r['total']:>15}"
        )
    return "\n".join(lines)

"""The eight presets pinned against stored configs and the README.

The fixture `data/preset_configs.json` holds `config_to_flat` of every
preset at desk scale and at full scale.  A change to a preset's domain,
mesh, scheme, final time or waves shows here as a changed flat value;
the stored values keep their types, so an integer that turns into a float
shows too.  The README's preset table must list the same names with the
same descriptions.

Regenerate (only when a change of the presets is intended) with

    PYTHONPATH=src python tests/test_presets.py
"""

import json
import os
import re
from types import SimpleNamespace

import pytest

from diracdg.integrators import _MAX_STEPS, cfl_dt
from diracdg.mesh import Grid1D, Grid2D
from diracdg.runner import PRESETS, config_to_flat, preset_config

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "preset_configs.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SCALES = {"desk": False, "full": True}


def _flat_presets():
    return {name: {scale: config_to_flat(preset_config(name, full))
                   for scale, full in SCALES.items()}
            for name in sorted(PRESETS)}


def write_fixture(path=FIXTURE):
    with open(path, "w") as fh:
        json.dump(_flat_presets(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def stored():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_preset(stored):
    assert sorted(stored) == sorted(PRESETS)


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_stored_config(stored, name, scale):
    want = stored[name][scale]
    got = config_to_flat(preset_config(name, SCALES[scale]))
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


def test_readme_lists_every_preset():
    # the README's preset table: one "| `name` | description |" row each
    with open(README) as fh:
        rows = re.findall(r"^\| `(ex[^`]+)` \| (.+?) \|$", fh.read(), re.MULTILINE)
    assert dict(rows) == {name: desc for name, (desc, _, _) in PRESETS.items()}
    assert len(rows) == len(PRESETS)


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_plans_fewer_steps_than_the_bound(name, scale):
    """Every preset's march stays under `evolve`'s planned-step bound (the
    grid alone sets dt, so no space is built)."""
    cfg = preset_config(name, SCALES[scale])
    grid = (Grid1D(cfg.xmin, cfg.xmax, cfg.nx) if cfg.dim == 1 else
            Grid2D(cfg.xmin, cfg.xmax, cfg.nx, cfg.ymin, cfg.ymax, cfg.ny))
    space = SimpleNamespace(grid=grid, dim=cfg.dim, q=cfg.q)
    assert cfg.tfinal / cfl_dt(space, cfg.effective_mu()) < _MAX_STEPS


if __name__ == "__main__":
    write_fixture()
    print(f"wrote {FIXTURE}")

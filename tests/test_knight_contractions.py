"""Knight's probe cells from per-axis contractions, against n**dim weights.

``knight_locality_test`` takes every probe cell's energy from one
contraction of the map with a matrix of per-axis overlaps
(``energy._probe_cells``).  Each cell's energy must agree, to 1e-13
relative, with ``detector_energy`` (the n**dim weight product) and with a
weight product kept here, built from the definition of a cell's weights;
the report must name the first cell of largest energy among those disjoint
from the source.  A probe's bits must not depend on the BLAS threads.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonloc
from photonloc import (DetectorVolume, EnergyDensityMap, Grid, ProbeCellError,
                       detector_energy, energy, energy_density, knight_locality_test,
                       make_lp_compact, volume_weights)

from test_golden import _state_3d  # noqa: E402

RTOL = 1e-13


def _kept_weights(grid: Grid, cell: DetectorVolume) -> np.ndarray:
    """The n**dim weights of an interval or box: per axis, the length of the
    overlap of each sample's dx-wide cell with the span, over dx."""
    dx, x = grid.spacing, grid.axis
    factors = [np.maximum(0.0, np.minimum(hi, x + 0.5 * dx) - np.maximum(lo, x - 0.5 * dx)) / dx
               for lo, hi in zip(cell.lo, cell.hi)]
    return functools.reduce(np.multiply.outer, factors)


def _random_map(grid: Grid) -> EnergyDensityMap:
    values = np.random.default_rng(grid.n).random(grid.spatial_shape) + 1e-3
    return EnergyDensityMap(grid, values, 0.0)


MAPS = {
    "1d-lp-compact": lambda: energy_density(make_lp_compact(Grid(1, 16.0, 256), 1.0)),
    "1d-random": lambda: _random_map(Grid(1, 16.0, 250)),
    "16-cubed-lp": lambda: energy_density(_state_3d("lp")),
    "16-cubed-bb": lambda: energy_density(_state_3d("bb")),
    "32-cubed-lp": lambda: energy_density(_state_3d("lp", 32)),
    "32-cubed-random": lambda: _random_map(Grid(3, 16.0, 32)),
}

SOURCES = {
    1: [DetectorVolume.interval(-1.0, 1.0), DetectorVolume.interval(-7.3, -2.9)],
    3: [DetectorVolume.box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
        DetectorVolume.ball((0.5, -1.0, 0.25), 3.0)],
}


@pytest.fixture(scope="module", params=list(MAPS))
def emap(request):
    return MAPS[request.param]()


# 8 cells: two per axis in 3d, a face on a sample; 27: three per axis in 3d
# and 27 in 1d, faces between samples; 64: four per axis in 3d.
@pytest.mark.parametrize("probe_cells", [8, 27, 64])
def test_every_cell_energy_matches_the_weight_product(emap, probe_cells):
    g = emap.grid
    cells, energies = energy._probe_cells(emap, probe_cells)
    per_axis = round(len(cells) ** (1.0 / g.dim))
    assert per_axis ** g.dim == len(cells) >= probe_cells > (per_axis - 1) ** g.dim
    for cell, contracted in zip(cells, energies):
        kept = g.cell_volume * np.sum(_kept_weights(g, cell) * emap.values)
        assert abs(contracted - kept) <= RTOL * kept, cell
        assert abs(detector_energy(emap, cell) - kept) <= RTOL * kept, cell

    for source in SOURCES[g.dim]:
        disjoint = [(e, c) for c, e in zip(cells, energies) if not source.meets(c)]
        if not disjoint:            # two cells per axis: a centred source meets all
            with pytest.raises(ProbeCellError):
                knight_locality_test(emap, source, probe_cells=probe_cells)
            continue
        report = knight_locality_test(emap, source, probe_cells=probe_cells)
        assert report.n_cells == len(disjoint)
        first = next(i for i, (_, c) in enumerate(disjoint) if c == report.detector)
        assert report.detector_energy == disjoint[first][0]
        assert all(e < report.detector_energy for e, _ in disjoint[:first])
        assert all(e <= report.detector_energy for e, _ in disjoint[first:])


@pytest.mark.parametrize("volume", [
    DetectorVolume.interval(-3.3, 0.7),
    DetectorVolume.box((-4.0, -1.5, -2.2), (0.5, 4.0, 1.0)),
    DetectorVolume.box((-8.0, 0.25, 3.0), (8.0, 0.25, 8.0)),
], ids=["interval", "box", "flat-box-on-faces"])
def test_volume_weights_are_the_outer_product_of_the_axis_overlaps(volume):
    g = Grid(len(volume.lo), 16.0, 16 if len(volume.lo) == 3 else 256)
    rows = [energy._overlaps(g.axis, lo, hi, g.spacing) for lo, hi in zip(volume.lo, volume.hi)]
    assert volume_weights(volume, g).tobytes() == functools.reduce(np.multiply.outer, rows).tobytes()


# --- bits across BLAS threads -------------------------------------------------

def _probe_digest() -> str:
    """sha256 of the probe-cell energies of a 32**3 state's map and a 64**3
    random map, 64 cells each."""
    maps = [energy_density(_state_3d("lp", 32)),
            EnergyDensityMap(Grid(3, 16.0, 64), np.random.default_rng(7).random((64,) * 3), 0.0)]
    digest = hashlib.sha256()
    for emap in maps:
        digest.update(np.array(energy._probe_cells(emap, 64)[1]).tobytes())
    return digest.hexdigest()


def test_probe_cell_bits_do_not_depend_on_the_blas_threads():
    # OpenBLAS reads its thread count when numpy is imported, so each
    # setting runs in a child of its own.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    src = str(Path(photonloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, str(tests), env.get("PYTHONPATH"))))
    script = "from test_knight_contractions import _probe_digest; print(_probe_digest())"
    digests = set()
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", script], env=env, timeout=300,
                             check=True, capture_output=True, text=True)
        digests.add(run.stdout.strip())
    assert digests == {_probe_digest()}

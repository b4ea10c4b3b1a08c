"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, readies op
``i``'s input in ``prepare`` (untimed), runs one operation per ``op`` call
(the only timed code) and verifies that operation's output in ``check``,
which returns a list of problems (empty when the output is correct).  Library calls go through the ``photonloc``
package namespace, so the tracer's wrappers and the self-test's planted
defects reach them.

Why these workloads:

* ``verify`` -- ``run_all_checks`` at the committed defaults (1d n=4096,
  3d 64^3 on a box of 16, 50 fields): what every user runs, and the hot
  path.  A 64^3 vector field (12.6 MB) fits in the last-level cache.
* ``field3d`` -- the 3d ``locality`` analysis through the library on
  position-domain 128^3 states (100 MB per field, about one L3), built
  alternately as LP and BB states.  It exposes bytes moved, temporaries and
  peak RSS, which ``verify`` does not.  Only the current op's input is
  alive, so that peak RSS is that of a process holding one state.  ``knight_locality_test`` is called
  with ``probe_cells=64``: the default 27-cell 3d tiling has no cell
  disjoint from a support wider than +-L/6 (+-2.67 on a box of 16), and
  these supports reach about +-3.4, so the default raises "source volume
  leaves no disjoint probe cell" (as the CLI ``locality`` does on such
  states).  Four cells per axis leave the eight corner cells free while
  the support stays inside +-L/4.
* ``figure1d`` -- the CLI in-process: ``demo-fig2``, ``energy`` on the
  three saved states, ``locality`` on the built-in state and on
  ``state_c``.  Small 1d arrays where per-call overhead dominates, plus the
  file writes (serialization, svgplot, cli) that ``verify`` never does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

import numpy as np

import photonloc as pl
from photonloc import cli

BOX = 16.0
SUITES = ("operator-algebra", "isomorphism", "two-path-energy", "parseval-energy",
          "figure-truth-table", "nonlocality-floor", "tail-quantification",
          "vector-potential-locality", "lemma-witnesses", "determinism-evolution")


class Verify:
    name = "verify"
    batch = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.field_bytes = 3 * 64 ** 3 * 16

    def setup(self):
        pass

    def prepare(self, i):
        pass

    def op(self, i):
        return pl.run_all_checks(seed=self.seed + i)

    def check(self, i, suites):
        problems = [f"suite {s.name} failed: "
                    + ", ".join(f"{c.name}={c.value:.3g} {c.comparator} {c.bound:.3g}"
                                for c in s.failures())
                    for s in suites if not s.passed]
        if tuple(s.name for s in suites) != SUITES:
            problems.append(f"suites {[s.name for s in suites]}, expected {list(SUITES)}")
        return problems


def gaussian_potential(rng):
    """Seeded width, centre and amplitude of a Gaussian vector potential."""
    return rng.uniform(0.45, 0.55), rng.uniform(-0.25, 0.25, 3), rng.standard_normal(3)


def curl_of_gaussian(x: np.ndarray, sigma: float, x0: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Curl of the Gaussian vector potential a*exp(-|x-x0|^2/(2 sigma^2)),
    sampled analytically: divergence-free, and below 1e-8 of its peak
    beyond about 6 sigma of its centre (effectively compact)."""
    dx = (x - x0[0])[:, None, None]
    dy = (x - x0[1])[None, :, None]
    dz = (x - x0[2])[None, None, :]
    g = np.exp(-(dx ** 2 + dy ** 2 + dz ** 2) / (2.0 * sigma ** 2)) / sigma ** 2
    out = np.empty((3,) + g.shape, dtype=np.complex128)
    out[0] = (dz * a[1] - dy * a[2]) * g
    out[1] = (dx * a[2] - dz * a[0]) * g
    out[2] = (dy * a[0] - dx * a[1]) * g
    return out


def spectral_energy(data: np.ndarray, kind: str, length: float) -> float:
    """Oracle for the total energy, hbar <psi, W psi> with hbar = c = 1,
    straight from numpy's FFT.  For a BB field F the LP image is
    psi = W^(-1/2) F / i, so the same quantity is the L2 norm of F off the
    zero mode."""
    n = data.shape[-1]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    kmag = np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)
    power = np.sum(np.abs(np.fft.fftn(data, axes=(1, 2, 3))) ** 2, axis=0)
    weight = kmag if kind == "lp" else (kmag > 0.0).astype(float)
    return float((length / n) ** 3 / n ** 3 * np.sum(weight * power))


class Field3d:
    name = "field3d"
    batch = 2  # one LP op and one BB op
    kinds = ("lp", "bb")

    def __init__(self, seed: int, n: int = 128):
        self.seed = seed
        self.n = n
        self.field_bytes = 3 * n ** 3 * 16
        self.oracle = {}
        self.input, self.input_kind = None, None

    def setup(self):
        self.grid = pl.Grid(3, BOX, self.n)
        rng = np.random.default_rng(self.seed)
        self.potentials = [gaussian_potential(rng) for _ in self.kinds]
        self.prepare(0)

    def prepare(self, i):
        """Builds the field of op i's kind, after dropping the other one."""
        if self.input_kind != i % 2:
            self.input = None
            self.input = curl_of_gaussian(self.grid.axis, *self.potentials[i % 2])
            self.input_kind = i % 2

    def op(self, i):
        kind = self.kinds[i % 2]
        field = pl.SpectralField(self.grid, self.input)
        state = pl.LPState(field) if kind == "lp" else pl.BBState(field)
        emap = pl.energy_density(state)
        support = pl.support_estimate(field, pl.locality.PHYSICAL_FLOOR)
        source = pl.DetectorVolume.box(tuple(r[0] for r in support.region),
                                       tuple(r[1] for r in support.region))
        knight = pl.knight_locality_test(emap, source, probe_cells=64)
        fit = pl.tail_exponent_fit(emap, (2.0, 6.0))
        zero_mean = pl.strip_zero_mode(field)
        peak = pl.peak_magnitude(field)
        window = max(BOX / 50.0, 5.0 * self.grid.spacing)
        scans = [pl.helicity_vanishing_scan(pl.helicity_project(zero_mean, sign), window,
                                            reference_peak=peak)
                 for sign in (1, -1)]
        return {"kind": kind, "total": pl.total_energy(emap),
                "discrepancy": emap.two_path_discrepancy,
                "min_density": float(np.min(emap.values)),
                "verdict": knight.verdict, "fit": fit.model, "scans": scans}

    def check(self, i, out):
        if i % 2 not in self.oracle:
            self.oracle[i % 2] = spectral_energy(self.input, out["kind"], BOX)
        oracle = self.oracle[i % 2]
        problems = []
        if not out["discrepancy"] < 1e-10:
            problems.append(f"two-path discrepancy {out['discrepancy']:.3e}")
        if not out["min_density"] > 0.0:
            problems.append(f"minimum energy density {out['min_density']:.3e}")
        if not abs(out["total"] - oracle) <= 1e-8 * abs(oracle):
            problems.append(f"total energy {out['total']!r} against oracle {oracle!r}")
        if out["verdict"] != "distinguishable":
            problems.append(f"Knight verdict {out['verdict']}")
        return problems


ARTEFACTS_PER_OP = 23
PULSE_LENGTHS = 1000  # distinct pulse lengths drawn per seed


class Figure1d:
    name = "figure1d"
    batch = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.field_bytes = 4096 * 16

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.pulse_lengths = rng.uniform(0.75, 1.0, size=PULSE_LENGTHS)

    def prepare(self, i):
        pass

    def argv_sequence(self, pulse: str):
        return [
            ["demo-fig2", "--pulse-length", pulse, "--output-dir", "."],
            *[["energy", f"states/state_{s}.json", "--output-dir", f"energy_{s}"]
              for s in "abc"],
            ["locality", "--pulse-length", pulse, "--output-dir", "locality_builtin"],
            ["locality", "states/state_c.json", "--pulse-length", pulse,
             "--output-dir", "locality_c"],
        ]

    def op(self, i):
        """Runs the CLI in a fresh directory, with relative paths so that the
        artefacts do not depend on where the directory is."""
        opdir = os.path.join(self.workdir, f"op{i}")
        os.makedirs(opdir)
        here = os.getcwd()
        os.chdir(opdir)
        codes = []
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                for argv in self.argv_sequence(repr(float(self.pulse_lengths[i % PULSE_LENGTHS]))):
                    codes.append(cli.main(argv))
        finally:
            os.chdir(here)
        return {"dir": opdir, "codes": codes, "log": log.getvalue()}

    def check(self, i, out):
        problems = []
        try:
            if any(code != 0 for code in out["codes"]):
                problems.append(f"exit codes {out['codes']}: {out['log'][-400:]}")
            digests = {}
            for base, _, files in os.walk(out["dir"]):
                for name in files:
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        digests[os.path.relpath(path, out["dir"])] = hashlib.sha256(fh.read()).hexdigest()
            if len(digests) != ARTEFACTS_PER_OP:
                problems.append(f"{len(digests)} artefacts, expected {ARTEFACTS_PER_OP}")
            if digests.get("energy_a/energy.csv") != digests.get("panel_a.csv"):
                problems.append("energy_a/energy.csv differs from panel_a.csv")
            combined = hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
                                      .encode()).hexdigest()
            print(f"figure1d op {i} pulse_length={float(self.pulse_lengths[i % PULSE_LENGTHS])!r} "
                  f"artefacts={len(digests)} sha256={combined}")
            if i == 0:
                for rel, digest in sorted(digests.items()):
                    print(f"  {digest}  {rel}")
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)
        return problems


def make(name: str, seed: int, workdir: str):
    if name == "verify":
        return Verify(seed)
    if name == "field3d":
        return Field3d(seed)
    if name == "figure1d":
        return Figure1d(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


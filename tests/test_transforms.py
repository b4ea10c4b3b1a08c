import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import photonloc
from photonloc import (FREQUENCY, POSITION, Grid, SpectralField, fields,
                       forward_transform, inverse_transform, l2_inner,
                       l2_norm, strip_zero_mode, to_frequency, to_position,
                       zero_mode_amplitude)
from photonloc.errors import DomainError, GridMismatchError


def test_constant_field_concentrates_in_zero_mode(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n))
    ft = forward_transform(f)
    expected = grid1_small.length / np.sqrt(2.0 * np.pi)
    assert ft.data[0] == pytest.approx(expected, rel=1e-13)
    assert np.max(np.abs(ft.data[1:])) < 1e-12 * expected


def test_single_mode_purity(grid1_small):
    k5 = 5 * grid1_small.k_spacing
    f = SpectralField(grid1_small, np.exp(1j * k5 * grid1_small.axis))
    ft = forward_transform(f)
    mags = np.abs(ft.data)
    assert np.argmax(mags) == 5
    others = np.delete(mags, 5)
    assert np.max(others) < 1e-12 * mags[5]


def test_single_mode_inverse(grid1_small):
    g = grid1_small
    data = np.zeros(g.n, dtype=np.complex128)
    amp = 2.5 - 0.5j
    data[5] = amp
    back = inverse_transform(SpectralField(g, data, FREQUENCY))
    expected = (amp * g.k_cell_volume / np.sqrt(2.0 * np.pi)
                * np.exp(1j * 5 * g.k_spacing * g.axis))
    assert np.max(np.abs(back.data - expected)) < 1e-13 * np.abs(amp)


def test_round_trip_1d(grid1, rng):
    v = SpectralField(grid1, rng.standard_normal(grid1.n)
                      + 1j * rng.standard_normal(grid1.n))
    w = inverse_transform(forward_transform(v))
    assert np.max(np.abs(w.data - v.data)) < 1e-12 * np.max(np.abs(v.data))


def test_round_trip_3d(grid3, rng):
    shape = (3,) + grid3.spatial_shape
    v = SpectralField(grid3, rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
    w = inverse_transform(forward_transform(v))
    assert np.max(np.abs(w.data - v.data)) < 1e-12 * np.max(np.abs(v.data))


def test_zero_field_round_trip(grid1_small):
    z = SpectralField(grid1_small, np.zeros(grid1_small.n))
    assert np.all(forward_transform(z).data == 0.0)


def test_parseval(grid1, grid3, rng):
    for g in (grid1, grid3):
        shape = g.spatial_shape if g.dim == 1 else (3,) + g.spatial_shape
        v = SpectralField(g, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
        ft = forward_transform(v)
        a = g.cell_volume * np.sum(np.abs(v.data) ** 2)
        b = g.k_cell_volume * np.sum(np.abs(ft.data) ** 2)
        assert a == pytest.approx(b, rel=1e-12)
        assert l2_norm(v) == pytest.approx(l2_norm(ft), rel=1e-12)


def test_inner_product_conjugate_linear(grid1_small, rng):
    g = grid1_small
    a = SpectralField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    b = SpectralField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    ip = l2_inner(a, b)
    assert l2_inner(b, a) == pytest.approx(np.conj(ip), rel=1e-12)
    assert l2_inner(2j * a, b) == pytest.approx(-2j * ip, rel=1e-12)
    assert l2_inner(a, a).real >= 0.0


def test_domain_guards(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n))
    with pytest.raises(DomainError):
        inverse_transform(f)
    ft = forward_transform(f)
    with pytest.raises(DomainError):
        forward_transform(ft)
    assert to_frequency(ft) is ft
    assert to_position(f) is f
    with pytest.raises(DomainError):
        zero_mode_amplitude(f)


def test_strip_zero_mode(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n) + 0.3)
    stripped = strip_zero_mode(f)
    assert zero_mode_amplitude(stripped) == 0.0
    pos = to_position(stripped)
    assert np.max(np.abs(pos.data)) < 1e-12


def test_grid_mismatch_arithmetic():
    a = SpectralField(Grid(1, 16.0, 64), np.ones(64))
    b = SpectralField(Grid(1, 16.0, 128), np.ones(128))
    with pytest.raises(GridMismatchError):
        _ = a + b
    c = forward_transform(SpectralField(Grid(1, 16.0, 64), np.ones(64)))
    with pytest.raises(DomainError):
        _ = a + c


def test_shape_validation():
    g = Grid(1, 16.0, 64)
    with pytest.raises(ValueError):
        SpectralField(g, np.ones((3, 64)))
    g3 = Grid(3, 8.0, 8)
    with pytest.raises(ValueError):
        SpectralField(g3, np.ones((8, 8, 8, 3)))


# --- transform contract: one fresh array, the input untouched ---------------

# Grid(3, 4.0, 2) is the smallest lattice; Grid(3, 5.0, 6) splits its 6
# planes and its 6 columns into halves of odd size.
CONTRACT_GRIDS = [Grid(1, 16.0, 256), Grid(1, 3.7, 64), Grid(3, 8.0, 16),
                  Grid(3, 2.5, 8), Grid(3, 4.0, 2), Grid(3, 5.0, 6)]


def _random_field_data(g, rng):
    shape = g.field_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _reference_forward(g, data):
    """The transform written out of place: every factor a fresh array."""
    scale = g.cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim)
    axes = tuple(range(-g.dim, 0))
    return scale * g.alternating_phase * np.fft.fftn(data, axes=axes)


def _reference_inverse(g, data):
    scale = g.k_cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim) * float(g.n) ** g.dim
    axes = tuple(range(-g.dim, 0))
    return scale * np.fft.ifftn(g.alternating_phase * data, axes=axes)


def _assert_same_bytes(a, b):
    """Equal values and equal bytes: a flipped signed zero fails too."""
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def _with_signed_zeros(data):
    """Random data with exact zeros of both signs: in 3d the last component
    is all zeros, so its transform is all zeros whose signs come from the
    arithmetic alone."""
    data = data.copy()
    data[-1] = complex(-0.0, 0.0)
    data[..., 0] = complex(0.0, -0.0)
    return data


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transforms_match_the_out_of_place_expressions_bitwise(g, rng):
    for data in (_random_field_data(g, rng), _with_signed_zeros(_random_field_data(g, rng))):
        ft = forward_transform(SpectralField(g, data))
        _assert_same_bytes(ft.data, _reference_forward(g, data))
        back = inverse_transform(SpectralField(g, data, FREQUENCY))
        _assert_same_bytes(back.data, _reference_inverse(g, data))


def _split_every_pass(monkeypatch, cpus=2):
    """Two usable CPUs split every pass, however short; one runs it whole."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fields, "_SPLIT_MIN_N", 1)


@pytest.mark.parametrize("g", [g for g in CONTRACT_GRIDS if g.dim == 3], ids=repr)
def test_one_cpu_and_two_thread_paths_give_the_same_bytes(g, rng, monkeypatch):
    data = _with_signed_zeros(_random_field_data(g, rng))
    expected = (_reference_forward(g, data).tobytes(), _reference_inverse(g, data).tobytes())
    for cpus in (2, 1):                  # two threads, then the caller alone
        _split_every_pass(monkeypatch, cpus)
        got = (forward_transform(SpectralField(g, data)).data.tobytes(),
               inverse_transform(SpectralField(g, data, FREQUENCY)).data.tobytes())
        assert got == expected


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transforms_leave_their_input_unchanged(g, rng):
    data = _random_field_data(g, rng)
    before = data.tobytes()
    for writeable in (True, False):     # a read-only input works as well
        data.setflags(write=writeable)
        f = SpectralField(g, data)
        assert f.data is data
        forward_transform(f)
        inverse_transform(SpectralField(g, data, FREQUENCY))
        assert data.tobytes() == before


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transform_output_is_a_fresh_writable_array(g, rng):
    data = _random_field_data(g, rng)
    for out, domain in ((forward_transform(SpectralField(g, data)), FREQUENCY),
                        (inverse_transform(SpectralField(g, data, FREQUENCY)), POSITION)):
        assert out.domain == domain
        assert out.data.flags.writeable
        assert out.data.dtype == np.complex128
        assert out.data.shape == g.field_shape
        assert not np.shares_memory(out.data, data)
        assert not np.shares_memory(out.data, g.alternating_phase)


# --- the helper thread: one per pass, gone when the transform returns -------

def test_1d_transforms_start_no_thread_and_3d_ones_leave_none():
    # The 3d transforms split every pass, whatever the host's CPU count, and
    # the script counts the threads they start.
    script = (
        "import sys, threading, numpy as np\n"
        "from photonloc import FREQUENCY, Grid, SpectralField, fields\n"
        "from photonloc import forward_transform, inverse_transform\n"
        "fields._usable_cpus, fields._SPLIT_MIN_N = (lambda: 2), 1\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda t: (started.append(t), start(t))\n"
        "for g in (Grid(1, 16.0, 256), Grid(3, 8.0, 8)):\n"
        "    f = SpectralField(g, np.ones(g.field_shape))\n"
        "    inverse_transform(forward_transform(f))\n"
        "    inverse_transform(SpectralField(g, np.ones(g.field_shape), FREQUENCY))\n"
        "    print(len(started), threading.active_count(), 'concurrent.futures' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(photonloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split("\n")
    assert out[:2] == ["0 1 False", "6 1 False"]   # after 1d, then after 3d transforms


def test_short_passes_run_whole_on_the_caller(monkeypatch):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    n = fields._SPLIT_MIN_N
    for count, halves in ((n - 1, [(0, n - 1)]), (n, [(0, n // 2), (n // 2, n)])):
        ran = []
        fields._on_both_cores(lambda lo, hi: ran.append((lo, hi, threading.get_ident())), count)
        assert sorted(r[:2] for r in ran) == halves
        assert len({r[2] for r in ran}) == len(halves)     # one thread per half


def test_a_failure_in_the_helpers_half_reaches_the_caller(monkeypatch):
    _split_every_pass(monkeypatch)
    ran = []

    def half(lo, hi):
        if lo == 0:
            raise ArithmeticError("first half")
        ran.append((lo, hi))

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="first half"):
        fields._on_both_cores(half, 6)
    assert ran == [(3, 6)]
    assert threading.active_count() == before


def test_concurrent_callers_get_the_bytes_of_one_thread(rng, monkeypatch):
    # More callers than cores, each splitting its passes, and a short switch
    # interval: every output keeps its bytes.
    _split_every_pass(monkeypatch)
    g = Grid(3, 8.0, 16)
    data = _with_signed_zeros(_random_field_data(g, rng))
    expected = (_reference_forward(g, data).tobytes(), _reference_inverse(g, data).tobytes())
    results = []

    def caller():
        for _ in range(20):
            results.append((forward_transform(SpectralField(g, data)).data.tobytes(),
                            inverse_transform(SpectralField(g, data, FREQUENCY)).data.tobytes()))

    threads = [threading.Thread(target=caller) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80
    assert all(r == expected for r in results)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_transforms_bit_for_bit(rng, monkeypatch):
    g = Grid(3, 5.0, 6)
    data = _random_field_data(g, rng)
    expected = _reference_forward(g, data).tobytes()
    _split_every_pass(monkeypatch)
    forward_transform(SpectralField(g, data))     # the parent has run helpers
    with warnings.catch_warnings():    # fork warns while any other thread runs
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = forward_transform(SpectralField(g, data)).data.tobytes() == expected
            code = 0 if same else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's transform did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# --- direct O(n^2) DFT oracle ------------------------------------------------

def _direct_sums(g):
    """The trapezoidal sums of the continuum pair written out term by term.

    Returns (positions, wavevectors), each of shape (n**dim, dim), with the
    positions x_j = -L/2 + j*dx and the wavevectors k_m = 2*pi*m/L in FFT
    order, both flattened in the C order of the field's spatial axes.  They
    are built here from L and n alone, not from the grid's own tables.
    """
    dx = g.length / g.n
    x = -0.5 * g.length + dx * np.arange(g.n)
    m = np.concatenate([np.arange(0, g.n // 2), np.arange(-g.n // 2, 0)])
    k = 2.0 * np.pi / g.length * m
    xs = np.stack(np.meshgrid(*([x] * g.dim), indexing="ij"), axis=-1)
    ks = np.stack(np.meshgrid(*([k] * g.dim), indexing="ij"), axis=-1)
    return xs.reshape(-1, g.dim), ks.reshape(-1, g.dim)


def _direct_transform(g, data, sign):
    """sign = -1: v~(k_m) = (2 pi)^(-d/2) dx^d sum_j v(x_j) exp(-i k_m.x_j);
    sign = +1: v(x_j) = (2 pi)^(-d/2) dk^d sum_m v~(k_m) exp(+i k_m.x_j)."""
    xs, ks = _direct_sums(g)
    if sign < 0:
        kernel = np.exp(-1j * (ks @ xs.T))           # rows k_m, columns x_j
        weight = (g.length / g.n) ** g.dim
    else:
        kernel = np.exp(1j * (xs @ ks.T))            # rows x_j, columns k_m
        weight = (2.0 * np.pi / g.length) ** g.dim
    weight *= (2.0 * np.pi) ** (-0.5 * g.dim)
    flat = data.reshape(-1, g.n ** g.dim)            # one row per component
    out = weight * (flat @ kernel.T)
    return out.reshape(data.shape)


ORACLE_GRIDS = [Grid(dim, length, n)
                for dim, n in ((1, 8), (1, 64), (3, 8))
                for length in (16.0, 2.0 * np.pi / 3.0)]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=repr)
def test_forward_transform_matches_the_direct_sum(g, rng):
    data = _random_field_data(g, rng)
    ft = forward_transform(SpectralField(g, data))
    assert _rel_err(ft.data, _direct_transform(g, data, -1)) < 1e-12


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=repr)
def test_inverse_transform_matches_the_direct_sum(g, rng):
    data = _random_field_data(g, rng)
    back = inverse_transform(SpectralField(g, data, FREQUENCY))
    assert _rel_err(back.data, _direct_transform(g, data, +1)) < 1e-12

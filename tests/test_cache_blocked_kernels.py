"""The 3d kernels swept in blocks of planes: the bytes of whole-array
formulas, and no field-sized temporary.

Every field-sized 3d chain with temporaries walks each x-plane half in
blocks of at most ``fields._BLOCK_SAMPLES`` samples (``fields._blocks``),
through block buffers the caller allocates.  With the split forced as
``test_transforms._split_every_pass`` forces it, a budget of one x-plane,
and one of three planes at n = 34 (whose halves of 17 planes end in a
block of two), must give the bytes of the whole-array formulas kept here,
on inputs with signed zeros, NaN, +-inf and a subnormal.  Tracemalloc then
bounds each blocked kernel's peak over its output at 64**3, so that a
field-sized temporary that slips back fails here.
"""

import numpy as np
import pytest

from photonloc import (FREQUENCY, POSITION, BBState, DetectorVolume, Grid, LPState,
                       SpectralField, apply_frequency_power, curl, detector_energy,
                       energy_density, fields, helicity_apply,
                       helicity_parts, helicity_project, magnitude, operators,
                       strip_zero_mode, to_frequency, transversality_residual,
                       transverse_project, volume_weights)
from photonloc.fields import _consumable, _trusted, forward_transform, inverse_transform
from photonloc.units import UnitsConfig

from test_energy import _mean_carrying_bb_3d, _traced_peak, _whole_field_formula  # noqa: E402
from test_golden import _state_3d  # noqa: E402
from test_transforms import (_random_field_data, _split_every_pass,  # noqa: E402
                             _with_signed_zeros)

# (n, planes per block): single planes, and blocks of three whose halves
# end in a shorter block.
BLOCKINGS = [(16, 1), (34, 3), (34, 1)]
UNITS = UnitsConfig(hbar=0.7, c=1.3, eps0=1.1)


def _blocked(monkeypatch, n, planes):
    _split_every_pass(monkeypatch)
    monkeypatch.setattr(fields, "_BLOCK_SAMPLES", planes * n * n)


def _special_data(g, rng):
    """Random components with exact zeros of both signs, NaN, +-inf and a
    subnormal, none of them at the zero mode."""
    data = _with_signed_zeros(_random_field_data(g, rng))
    n = g.n
    data[0, 3, 4, 5] = complex(np.nan, 1.0)
    data[1, n - 1, 2, 1] = complex(-np.inf, 0.5)
    data[0, n // 2, 1, 7] = complex(0.25, np.inf)
    data[1, n // 2 - 1, n - 1, 3] = complex(5e-324, -5e-324)
    data[0, 1, 1, 1] = complex(-0.0, -0.0)
    return data


# --- whole-array formulas -----------------------------------------------------

def _forward(g, v):
    # The operand order of the kernels: with NaN about, it sets the bits.
    scale = g.cell_volume * (2.0 * np.pi) ** -1.5
    return np.fft.fftn(v, axes=(-3, -2, -1)) * (scale * g.alternating_phase)


def _inverse(g, v):
    scale = g.k_cell_volume * (2.0 * np.pi) ** -1.5 * float(g.n) ** 3
    return np.fft.ifftn(g.alternating_phase * v, axes=(-3, -2, -1)) * scale


def _unit_k(g):
    safe = np.where(g.k_magnitude > 0.0, g.k_magnitude, 1.0)
    return tuple(k / safe for k in g.k_vectors)


def _cross(a, v):
    (ax, ay, az), (vx, vy, vz) = a, v
    return np.stack([1j * (ay * vz - az * vy), 1j * (az * vx - ax * vz),
                     1j * (ax * vy - ay * vx)])


def _dot(a, v):
    return (a[0] * v[0] + a[1] * v[1]) + a[2] * v[2]


def _magnitude(v):
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=0))


def _helicity(g, v):
    out = _cross(_unit_k(g), v)
    out[g.zero_mode_index()] = 0.0
    return out


def _omega_power(g, s, units):
    w = units.c * g.k_magnitude
    mult = np.zeros_like(w)
    nonzero = w > 0.0
    mult[nonzero] = w[nonzero] ** s
    return mult


def _transverse(g, v):
    u = _unit_k(g)
    out = np.stack([vi - ui * _dot(u, v) for ui, vi in zip(u, v)])
    out[g.zero_mode_index()] = v[g.zero_mode_index()]
    return out


def _residual(g, v):
    scale = float(np.max(g.k_magnitude * _magnitude(v)))
    return 0.0 if scale == 0.0 else float(np.max(np.abs(_dot(g.k_vectors, v)))) / scale


def _cases(g, v):
    """(name, kernel call, whole-array formula) for each blocked kernel on
    frequency data v, which the calls must leave unchanged."""
    field = SpectralField(g, v, FREQUENCY)
    claimed = _trusted(g, v, FREQUENCY, True)        # transverse, unmeasured
    pos = SpectralField(g, v, POSITION)
    lv = _helicity(g, v)
    stripped = v.copy()
    stripped[g.zero_mode_index()] = 0.0
    yield "magnitude", lambda: magnitude(field), lambda: _magnitude(v)
    yield "curl", lambda: curl(field).data, lambda: _cross(g.k_vectors, v)
    yield "helicity_apply", lambda: helicity_apply(claimed).data, lambda: lv
    yield ("helicity_parts", lambda: np.stack([p.data for p in helicity_parts(claimed)]),
           lambda: np.stack([(v + lv) * 0.5, (v - lv) * 0.5]))
    yield "helicity_project-", lambda: helicity_project(claimed, -1).data, lambda: (v - lv) * 0.5
    yield "transverse_project", lambda: transverse_project(field).data, lambda: _transverse(g, v)
    yield ("transversality_residual", lambda: np.float64(transversality_residual(field)),
           lambda: np.float64(_residual(g, v)))
    for s in (0.5, -0.5, 1.0):
        yield (f"apply_frequency_power({s})",
               lambda s=s: apply_frequency_power(field, s, UNITS, zero_mode="drop").data,
               lambda s=s: v * _omega_power(g, s, UNITS))
        yield (f"omega_power({s})", lambda s=s: operators.omega_power(g, s, UNITS),
               lambda s=s: _omega_power(g, s, UNITS))
    yield "forward_transform", lambda: forward_transform(pos).data, lambda: _forward(g, v)
    yield "inverse_transform", lambda: inverse_transform(field).data, lambda: _inverse(g, v)
    yield ("strip_zero_mode(frequency)", lambda: strip_zero_mode(field).data, lambda: stripped)
    yield ("strip_zero_mode(position)", lambda: strip_zero_mode(pos).data,
           lambda: _position_stripped(g, v))


def _position_stripped(g, v):
    out = _forward(g, v)
    out[g.zero_mode_index()] = 0.0
    return out


# The special values overflow on purpose, on both threads.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, planes", BLOCKINGS)
def test_blocked_kernels_give_the_bytes_of_the_whole_array_formulas(monkeypatch, n, planes):
    g = Grid(3, 8.0, n)
    v = _special_data(g, np.random.default_rng(n + planes))
    before = v.tobytes()
    expected = {name: formula().tobytes() for name, _, formula in _cases(g, v)}
    _blocked(monkeypatch, n, planes)
    got = {name: call().tobytes() for name, call, _ in _cases(g, v)}
    assert [name for name in expected if got[name] != expected[name]] == []
    assert v.tobytes() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, planes", BLOCKINGS)
def test_consumed_kernels_give_the_bytes_of_the_fresh_ones(monkeypatch, n, planes):
    # A consumable field's buffer takes the result; the bytes do not move.
    g = Grid(3, 8.0, n)
    v = _special_data(g, np.random.default_rng(2 * n + planes))
    _blocked(monkeypatch, n, planes)
    calls = {
        "apply_frequency_power": lambda f: [apply_frequency_power(f, -0.5, UNITS,
                                                                  zero_mode="drop")],
        "helicity_parts": lambda f: list(helicity_parts(f)),
        "strip_zero_mode": lambda f: [strip_zero_mode(f)],
        "transform": lambda f: [fields.to_position(f) if f.is_frequency
                                else fields.to_frequency(f)],
    }
    for domain in (FREQUENCY, POSITION):
        for name, call in calls.items():
            fresh = [p.data.tobytes() for p in call(_trusted(g, v.copy(), domain, True))]
            own = _consumable(_trusted(g, v.copy(), domain, True))
            consumed = [p.data for p in call(own)]
            assert [p.tobytes() for p in consumed] == fresh, (name, domain)
            assert any(p is own.data for p in consumed), (name, domain)


def _energy_states():
    for state in (_state_3d("lp"), _state_3d("bb"), _mean_carrying_bb_3d()):
        yield state
        yield type(state)(to_frequency(state.field), state.units)


@pytest.mark.parametrize("planes", [1, 3])
def test_blocked_energy_density_gives_the_bytes_of_the_whole_field_formula(monkeypatch, planes):
    # 16**3 states: below the split threshold the formula runs whole.
    states = list(_energy_states())
    expected = [_whole_field_formula(state) for state in states]
    grid = states[0].grid
    detectors = [DetectorVolume.box((-4.0, -1.5, -2.0), (0.5, 4.0, 1.0)),
                 DetectorVolume.ball((0.3, -0.2, 0.1), 2.5)]
    weights = [volume_weights(d, grid) for d in detectors]
    _blocked(monkeypatch, 16, planes)
    for state, (values, disc) in zip(states, expected):
        before = state.field.data.tobytes()
        emap = energy_density(state)
        assert emap.values.tobytes() == values.tobytes()
        assert emap.two_path_discrepancy == disc
        assert state.field.data.tobytes() == before
        for detector, w in zip(detectors, weights):
            assert detector_energy(emap, detector) == float(
                grid.cell_volume * np.sum(w * values))


@pytest.mark.parametrize("plane", [33, 16, 0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_in_any_block_fails_the_state(monkeypatch, plane, bad):
    # x = 33 lies in the last block of the caller's half, x = 16 in the
    # last block of the helper's.
    g = Grid(3, 8.0, 34)
    data = _random_field_data(g, np.random.default_rng(7))
    data[2, plane, 5, 9] = complex(0.0, bad)
    _blocked(monkeypatch, 34, 3)
    for kind in (LPState, BBState):
        with pytest.raises(ValueError, match="state norm must be finite"):
            kind(_trusted(g, data, FREQUENCY, True))
    data[2, plane, 5, 9] = 0.0
    LPState(_trusted(g, data, FREQUENCY, True))


# --- allocation guard ---------------------------------------------------------

GRID64 = Grid(3, 16.0, 64)


@pytest.fixture(scope="module")
def field64():
    return transverse_project(SpectralField(
        GRID64, _random_field_data(GRID64, np.random.default_rng(64)), FREQUENCY))


def _peak_over_output(call) -> tuple:
    """(tracemalloc peak, bytes of the result) of call(), after one warm call
    that fills the grid's k-space caches."""
    call()
    out = []
    peak = _traced_peak(lambda: out.append(call()))
    result = out[0]
    data = result if isinstance(result, np.ndarray) else getattr(result, "data", None)
    return peak, 0 if data is None else data.nbytes


# (kernel, call, bound on the peak beyond the output, in fields)
GUARDS = [
    ("helicity_apply", lambda f: helicity_apply(f), 0.25),
    ("curl", lambda f: curl(f), 0.1),
    ("transverse_project", lambda f: transverse_project(f), 0.25),
    # Two complex block buffers per half (0.083 field), and numpy's casting
    # buffers on both threads: 0.095 to 0.105, as the threads interleave.
    ("transversality_residual", lambda f: transversality_residual(f), 0.15),
    ("apply_frequency_power", lambda f: apply_frequency_power(f, -0.5, zero_mode="drop"), 0.25),
    ("inverse_transform", lambda f: inverse_transform(f), 0.1),
    ("forward_transform", lambda f: forward_transform(f), 0.1),
    ("strip_zero_mode(position)", lambda f: strip_zero_mode(f), 0.1),
]


@pytest.mark.parametrize("name, call, bound", GUARDS, ids=[g[0] for g in GUARDS])
def test_blocked_kernels_at_64_cubed_allocate_no_field_sized_temporary(
        monkeypatch, field64, name, call, bound):
    _split_every_pass(monkeypatch)          # both halves' block buffers
    f = field64
    if name in ("forward_transform", "strip_zero_mode(position)"):
        f = inverse_transform(field64)
    peak, out = _peak_over_output(lambda: call(f))
    assert peak - out <= bound * field64.data.nbytes


def test_magnitude_at_64_cubed_allocates_a_fraction_of_its_output(monkeypatch, field64):
    _split_every_pass(monkeypatch)
    peak, out = _peak_over_output(lambda: magnitude(field64))
    assert peak - out <= 0.3 * out


def test_a_state_at_64_cubed_is_checked_without_a_field_sized_bool(monkeypatch, field64):
    _split_every_pass(monkeypatch)
    flagged = _trusted(GRID64, field64.data, FREQUENCY, True)
    peak, _ = _peak_over_output(lambda: LPState(flagged))
    assert peak <= 0.05 * field64.data.nbytes


@pytest.mark.parametrize("representation", ["lp", "bb"])
def test_energy_density_at_64_cubed_peaks_below_3_6_fields(monkeypatch, representation):
    # 3.19 fields for LP and 3.52 for BB when this bound was set.
    _split_every_pass(monkeypatch)
    state = _state_3d(representation, n=64)
    peak, _ = _peak_over_output(lambda: energy_density(state))
    assert peak <= 3.6 * state.field.data.nbytes

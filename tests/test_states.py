import numpy as np
import pytest

from photonloc import (FREQUENCY, BBState, EMFields, Grid, LPState,
                       PhotonState, SpectralField, bb_from_em, bb_from_lp,
                       bb_inner, evolve, helicity_parts, l2_norm,
                       load_state, lp_from_bb, lp_from_potentials, lp_inner,
                       magnitude, normalize, omega, plane_wave, save_state,
                       riemann_silberstein_vector, strip_zero_mode, to_frequency, to_position,
                       transverse_project)
from photonloc.errors import (GridMismatchError, TransversalityError,
                              ZeroModeError, ZeroStateError)
from photonloc.checks import random_band_limited
from photonloc.units import NATURAL, UnitsConfig


def _rel(a, b):
    pa = to_position(a) if isinstance(a, SpectralField) else a
    pb = to_position(b) if isinstance(b, SpectralField) else b
    da = pa.data if isinstance(pa, SpectralField) else pa
    db = pb.data if isinstance(pb, SpectralField) else pb
    return np.max(np.abs(da - db)) / np.max(np.abs(db))


def _nyquist_free_mask(grid):
    """1 on modes whose lattice negation is exact, 0 on Nyquist planes."""
    mask = np.ones(grid.spatial_shape)
    for ax in range(grid.dim):
        idx = [slice(None)] * grid.dim
        idx[ax] = grid.n // 2
        mask[tuple(idx)] = 0.0
    return mask


def _real_zero_mean(grid, rng):
    """A smooth real zero-mean field (transverse in three dimensions)."""
    if grid.dim == 1:
        f = SpectralField(grid, rng.standard_normal(grid.n).astype(complex))
    else:
        shape = (3,) + grid.spatial_shape
        f = SpectralField(grid, rng.standard_normal(shape).astype(complex))
    env = _nyquist_free_mask(grid) * np.exp(
        -(grid.k_magnitude / (0.25 * np.max(grid.k_magnitude))) ** 2)
    f = strip_zero_mode(f)
    f = SpectralField(grid, f.data * env, FREQUENCY)
    if grid.dim == 3:
        f = transverse_project(f)
    pos = to_position(f)
    return SpectralField(grid, pos.data.real.astype(complex), transverse=f.transverse)


def _random_em(grid, rng):
    return EMFields(_real_zero_mean(grid, rng), _real_zero_mean(grid, rng))


# --------------------------------------------------------------- structure

def test_zero_fields_give_zero_state(grid1_small):
    zero = SpectralField(grid1_small, np.zeros(grid1_small.n, dtype=complex))
    state = lp_from_potentials(EMFields(zero, zero))
    assert state.norm == 0.0
    assert np.max(magnitude(to_position(state.field))) == 0.0


def test_emfields_validation(grid1_small, grid1):
    n = grid1_small.n
    real = SpectralField(grid1_small, np.cos(grid1_small.axis).astype(complex))
    cplx = SpectralField(grid1_small, 1j * np.cos(grid1_small.axis) + 0.5)
    with pytest.raises(ValueError):
        EMFields(cplx, real)
    with pytest.raises(ValueError):
        EMFields(real, cplx)
    other = SpectralField(grid1, np.zeros(grid1.n, dtype=complex))
    with pytest.raises(GridMismatchError):
        EMFields(real, other)
    with pytest.raises(GridMismatchError):
        EMFields(real, real, other)
    # a complex magnetic partner is legitimate in the 1d model
    EMFields(real, real, cplx)
    assert n == grid1_small.n


def test_from_potentials_1d_magnetic_partner(grid1, rng):
    a = _real_zero_mean(grid1, rng)
    em = EMFields.from_potentials(_real_zero_mean(grid1, rng), a)
    bt = to_frequency(em.b)
    expected = grid1.k_axis * to_frequency(a).data
    assert np.max(np.abs(bt.data - expected)) < 1e-12 * np.max(np.abs(expected))


def test_nontransverse_3d_state_rejected(grid3, rng):
    shape = (3,) + grid3.spatial_shape
    messy = SpectralField(grid3, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
    with pytest.raises(TransversalityError):
        LPState(messy)
    with pytest.raises(TransversalityError):
        BBState(messy)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_fails_the_transversality_guard(bad):
    grid = Grid(3, 8.0, 8)
    data = plane_wave(grid, (1, 0, 0), 1).data.copy()
    data[0, 1, 2, 3] = bad
    field = SpectralField(grid, data)
    with pytest.raises(TransversalityError):
        LPState(field)
    with pytest.raises(TransversalityError):
        BBState(field)
    with pytest.raises(TransversalityError):
        SpectralField(grid, data, transverse=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cls", [LPState, BBState])
def test_non_finite_norm_rejected(grid1_small, cls, bad):
    data = np.exp(-grid1_small.axis ** 2).astype(complex)
    data[7] = bad
    with pytest.raises(ValueError, match="finite"):
        cls(SpectralField(grid1_small, data))
    # an operator output is flagged transverse and never measured
    with pytest.raises(ValueError, match="finite"):
        cls(bad * plane_wave(Grid(3, 8.0, 8), (1, 0, 0), 1))


@pytest.mark.parametrize("cls", [LPState, BBState])
def test_units_must_be_a_units_config(grid1_small, rng, cls):
    field = SpectralField(grid1_small, np.exp(-grid1_small.axis ** 2))
    with pytest.raises(TypeError, match="UnitsConfig"):
        cls(field, rng)


# ------------------------------------------------------------- isomorphism

@pytest.mark.parametrize("dim", [1, 3])
def test_representation_round_trip(dim, rng):
    grid = Grid(1, 16.0, 2048) if dim == 1 else Grid(3, 8.0, 16)
    lp = lp_from_potentials(_random_em(grid, rng))
    back = lp_from_bb(bb_from_lp(lp))
    assert _rel(back.psi, lp.psi) < 1e-11
    assert back.norm == pytest.approx(lp.norm, rel=1e-12)


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0])
def test_inner_product_correspondence(hbar, grid1, rng):
    units = UnitsConfig(hbar=hbar)
    a = lp_from_potentials(_random_em(grid1, rng), units)
    b = lp_from_potentials(_random_em(grid1, rng), units)
    fa, fb = bb_from_lp(a), bb_from_lp(b)
    lhs = bb_inner(fa, fb)
    rhs = hbar * lp_inner(a, b)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)
    assert fa.norm == pytest.approx(np.sqrt(hbar) * a.norm, rel=1e-12)


def test_cross_path_agreement(grid1, rng):
    em = EMFields.from_potentials(_real_zero_mean(grid1, rng),
                                  _real_zero_mean(grid1, rng))
    via_lp = bb_from_lp(lp_from_potentials(em))
    direct = bb_from_em(em)
    assert _rel(via_lp.f, direct.f) < 1e-10


def test_cross_path_agreement_3d(grid3, rng):
    em = EMFields.from_potentials(_real_zero_mean(grid3, rng),
                                  _real_zero_mean(grid3, rng))
    via_lp = bb_from_lp(lp_from_potentials(em))
    direct = bb_from_em(em)
    assert _rel(via_lp.f, direct.f) < 1e-10


def test_rs_vector_without_magnetic_field(grid3, rng):
    e = _real_zero_mean(grid3, rng)
    zero = SpectralField(grid3, np.zeros_like(e.data), transverse=True)
    f = riemann_silberstein_vector(e, zero)
    expected = np.sqrt(0.5) * to_position(e).data
    assert np.max(np.abs(f.data - expected)) < 1e-12 * np.max(np.abs(expected))


def test_rs_split_plane_wave(grid3):
    phi = plane_wave(grid3, (0, 2, 1), +1)
    plus, minus = helicity_parts(BBState(phi).f)
    assert np.max(np.abs(minus.data)) < 1e-12 * np.max(np.abs(phi.data))
    assert _rel(plus, phi) < 1e-12
    recombined = to_position(plus) + to_position(minus)
    assert _rel(recombined, phi) < 1e-12


def test_rs_split_resolves_norm(grid1, rng):
    state = BBState(_real_zero_mean(grid1, rng))
    plus, minus = helicity_parts(state.f)
    total = (l2_norm(plus) ** 2 + l2_norm(minus) ** 2)
    assert total == pytest.approx(l2_norm(state.f) ** 2, rel=1e-10)


# ------------------------------------------------------- norms & evolution

def _reference_norm(cls, field, units):
    """The norm as each state class computed it before the shared base."""
    if cls is LPState:
        return l2_norm(field)
    ff = to_frequency(field)
    w = omega(ff.grid, units)
    weight = np.zeros_like(w)
    nz = w > 0.0
    weight[nz] = 1.0 / w[nz]
    return float(np.sqrt(max(
        ff.grid.k_cell_volume * np.sum(np.abs(ff.data) ** 2 * weight), 0.0)))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("cls, rep, alias", [(LPState, "lp", "psi"),
                                             (BBState, "bb", "f")])
def test_shared_state_interface(cls, rep, alias, dim, grid1_small, grid3,
                                rng, tmp_path):
    units = UnitsConfig(hbar=0.5, c=2.0, eps0=3.0)
    field = to_position(random_band_limited(grid1_small if dim == 1 else grid3,
                                            rng, transverse=True))
    state = cls(field, units)
    assert isinstance(state, PhotonState)
    assert state.representation == rep
    assert state.field is field
    assert getattr(state, alias) is state.field
    with pytest.raises(AttributeError):
        setattr(state, alias, field)
    assert state.grid == field.grid
    assert state.norm == _reference_norm(cls, field, units)

    unit = normalize(state)
    assert type(unit) is cls and unit.units == units
    assert unit.norm == pytest.approx(1.0, rel=1e-12)
    moved = evolve(state, 0.7)
    assert type(moved) is cls and moved.units == units

    path = tmp_path / "state.json"
    save_state(state, path)
    back = load_state(path)
    assert type(back) is cls
    assert back.representation == rep
    assert back.norm == state.norm


def test_normalize_scaling(grid1, rng):
    lp = lp_from_potentials(_random_em(grid1, rng))
    scaled = LPState(7.0 * lp.psi)
    assert scaled.norm == pytest.approx(7.0 * lp.norm, rel=1e-12)
    unit = normalize(scaled)
    assert unit.norm == pytest.approx(1.0, rel=1e-12)
    bb = normalize(bb_from_lp(lp))
    assert bb.norm == pytest.approx(1.0, rel=1e-12)


def test_normalize_zero_state(grid1_small):
    zero = SpectralField(grid1_small, np.zeros(grid1_small.n, dtype=complex))
    with pytest.raises(ZeroStateError):
        normalize(LPState(zero))
    with pytest.raises(ZeroStateError):
        normalize(BBState(zero))


def test_evolve_identity_and_unitarity(grid1, rng):
    lp = lp_from_potentials(_random_em(grid1, rng))
    freq_state = LPState(to_frequency(lp.psi))
    assert np.array_equal(evolve(freq_state, 0.0).psi.data, freq_state.psi.data)
    moved = evolve(lp, 1.3)
    assert moved.psi.is_position
    assert moved.norm == pytest.approx(lp.norm, rel=1e-12)
    back = evolve(moved, -1.3)
    assert _rel(back.psi, lp.psi) < 1e-11


def test_evolve_plane_wave_phase(grid_2pi):
    f = SpectralField(grid_2pi, np.exp(3j * grid_2pi.axis))
    state = BBState(f)
    t = 0.7
    moved = evolve(state, t)
    expected = np.exp(-3j * t) * f.data
    assert np.max(np.abs(moved.f.data - expected)) < 1e-12


def test_evolve_respects_units(grid_2pi):
    f = SpectralField(grid_2pi, np.exp(3j * grid_2pi.axis))
    state = BBState(f, UnitsConfig(c=2.0))
    moved = evolve(state, 0.5)
    expected = np.exp(-1j * 2.0 * 3.0 * 0.5) * f.data
    assert np.max(np.abs(moved.f.data - expected)) < 1e-12


# ---------------------------------------------------------- guards & modes

def test_lp_from_potentials_zero_mode(grid1):
    bump = SpectralField(grid1, np.exp(-grid1.axis ** 2).astype(complex))
    with pytest.raises(ZeroModeError):
        lp_from_potentials(EMFields(bump, bump))
    dropped = lp_from_potentials(EMFields(bump, bump), zero_mode="drop")
    assert np.isfinite(dropped.norm)
    assert dropped.norm > 0.0


def test_bb_inner_zero_mode(grid1, rng):
    bump = BBState(SpectralField(grid1, np.exp(-grid1.axis ** 2).astype(complex)))
    clean = BBState(_real_zero_mean(grid1, rng))
    with pytest.raises(ZeroModeError):
        bb_inner(bump, bump)
    with pytest.raises(ZeroModeError):
        bb_inner(clean, bump)
    val = bb_inner(bump, bump, zero_mode="drop")
    assert np.isfinite(val.real) and val.real > 0.0
    with pytest.raises(ValueError):
        bb_inner(clean, clean, zero_mode="ignore")
    with pytest.raises(ZeroModeError):
        lp_from_bb(bump)
    assert np.isfinite(lp_from_bb(bump, zero_mode="drop").norm)


def test_inner_product_grid_and_units_guards(grid1, grid1_small, rng):
    a = lp_from_potentials(_random_em(grid1, rng))
    small = lp_from_potentials(_random_em(grid1_small, rng))
    with pytest.raises(GridMismatchError):
        lp_inner(a, small)
    fa = bb_from_lp(a)
    with pytest.raises(GridMismatchError):
        bb_inner(fa, bb_from_lp(small))
    other_units = BBState(fa.f, UnitsConfig(hbar=0.5))
    with pytest.raises(ValueError):
        bb_inner(fa, other_units)


def test_lp_inner_sesquilinearity(grid1, rng):
    a = lp_from_potentials(_random_em(grid1, rng))
    b = lp_from_potentials(_random_em(grid1, rng))
    ip = lp_inner(a, b)
    assert lp_inner(LPState(2j * a.psi), b) == pytest.approx(-2j * ip, rel=1e-12)
    assert lp_inner(a, LPState(2j * b.psi)) == pytest.approx(2j * ip, rel=1e-12)
    assert lp_inner(a, a).real == pytest.approx(a.norm ** 2, rel=1e-12)
    assert abs(lp_inner(a, a).imag) < 1e-12 * a.norm ** 2

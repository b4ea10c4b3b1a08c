import json
import tracemalloc
import warnings

import numpy as np
import pytest

from photonloc import (BBState, Grid, LPState, SpectralField, load_state,
                       lp_from_potentials, make_bb_compact, make_lp_compact,
                       read_csv, save_state, to_position, write_csv,
                       write_json)
from photonloc import serialization
from photonloc.errors import SchemaError
from photonloc.fields import FREQUENCY, POSITION
from photonloc.serialization import jsonable
from photonloc.units import UnitsConfig

from test_golden import _state_3d
from test_states import _random_em


# ------------------------------------------------------------- state files

def test_lp_state_round_trip_is_bit_identical(tmp_path):
    state = make_lp_compact(Grid(1, 16.0, 1024), 1.0, UnitsConfig(hbar=0.5))
    path = tmp_path / "state.json"
    save_state(state, path)
    back = load_state(path)
    assert isinstance(back, LPState)
    assert back.grid == state.grid
    assert back.units == state.units
    assert np.array_equal(back.psi.data, to_position(state.psi).data)
    # a second save produces identical bytes
    path2 = tmp_path / "state2.json"
    save_state(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bb_state_round_trip(tmp_path):
    state = make_bb_compact(Grid(1, 16.0, 1024), 1.0)
    path = tmp_path / "bb.json"
    save_state(state, path)
    back = load_state(path)
    assert isinstance(back, BBState)
    assert np.array_equal(back.f.data, to_position(state.f).data)
    assert back.norm == pytest.approx(state.norm, rel=1e-12)


def test_3d_state_round_trip(tmp_path, grid3, rng):
    state = lp_from_potentials(_random_em(grid3, rng))
    path = tmp_path / "state3d.json"
    save_state(state, path)
    back = load_state(path)
    assert back.grid == grid3
    assert np.array_equal(back.psi.data, to_position(state.psi).data)


def test_grid_and_units_json_hold_exactly_the_keys_load_state_reads():
    assert jsonable(Grid(3, 16.0, 16)) == {"dim": 3, "length": 16.0, "n": 16}
    assert jsonable(UnitsConfig(0.5, 2.0, 3.0)) == {"hbar": 0.5, "c": 2.0, "eps0": 3.0}


def _hand_written_state_file(state, path):
    """A state file with its grid and units blocks spelled out by hand: the
    reference for save_state's bytes."""
    field = to_position(state.field)
    g = field.grid
    data = [field.data] if g.dim == 1 else list(field.data)
    payload = {
        "schema": "photonloc-state-v1",
        "representation": state.representation,
        "units": {"hbar": state.units.hbar, "c": state.units.c,
                  "eps0": state.units.eps0},
        "grid": {"dim": g.dim, "length": g.length, "n": g.n},
        "components": [{"re": c.ravel().real.tolist(), "im": c.ravel().imag.tolist()}
                       for c in data],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _white_1d(n):
    """A 1d LP state of n seeded complex samples in position space."""
    rng = np.random.default_rng(n)
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return LPState(SpectralField(Grid(1, 16.0, n), data, POSITION))


def _special_samples():
    """A 1d LP state whose samples hold -0.0, the smallest subnormal and
    +-1e308 in both parts."""
    values = np.array([-0.0, 5e-324, 1e308, -1e308, 0.0, -5e-324, 1.0, 0.1])
    data = np.empty(2 * values.size, dtype=complex)
    data.real = np.concatenate([values, values[::-1]])
    data.imag = np.concatenate([values[::-1], values])
    return LPState(SpectralField(Grid(1, 16.0, data.size), data, POSITION))


# Each case: the state and the chunk save_state encodes at a time (None:
# its own, 4096 samples, which a 16^3 component fills exactly).
@pytest.mark.parametrize("make, chunk", [
    (lambda: make_lp_compact(Grid(1, 16.0, 1024), 1.0, UnitsConfig(hbar=0.5)), None),
    (lambda: _state_3d("lp"), None),
    (lambda: _state_3d("bb"), None),
    (lambda: make_bb_compact(Grid(1, 16, 256), 1.0), None),
    (lambda: _state_3d("lp", 32), None),
    (lambda: _state_3d("bb", 32), None),
    (lambda: _white_1d(16), 17),
    (lambda: _white_1d(16), 16),
    (lambda: _white_1d(16), 15),
    (lambda: _white_1d(16), 5),
    (lambda: _white_1d(4096 * 3 + 2), None),
    (_special_samples, None),
    (_special_samples, 3),
], ids=["1d-lp", "3d-lp", "3d-bb", "1d-bb-integer-length", "3d-lp-32", "3d-bb-32",
        "count-one-below-chunk", "count-at-chunk", "count-one-above-chunk",
        "four-small-chunks", "four-chunks", "special-samples",
        "special-samples-across-chunks"])
def test_save_state_writes_the_bytes_of_the_hand_written_schema(tmp_path, monkeypatch,
                                                                 make, chunk):
    if chunk is not None:
        monkeypatch.setattr(serialization, "_CHUNK", chunk)
    state = make()
    save_state(state, tmp_path / "state.json")
    _hand_written_state_file(state, tmp_path / "reference.json")
    written = (tmp_path / "state.json").read_bytes()
    assert written == (tmp_path / "reference.json").read_bytes()
    assert f'"length": {state.grid.length!r}, '.encode() in written


def test_save_state_refuses_samples_that_are_not_finite(tmp_path):
    """A finite frequency-domain state whose position samples overflow: the
    file would hold NaN/Infinity, which load_state rejects."""
    data = np.full(64, 1e308, dtype=complex)
    data[0] = 0.0
    state = LPState(SpectralField(Grid(1, 16.0, 64), data, FREQUENCY))
    path = tmp_path / "state.json"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="component 0 has non-finite samples"):
            save_state(state, path)
    assert not path.exists()


# A bound on the tracemalloc peak of save_state on a position-domain state,
# whatever its grid: one chunk's floats and a few copies of its text read
# 0.6 MB from 16^3 to 64^3.  Holding every sample of a 32^3 state as Python
# floats, as one json.dump of the whole payload does, reads 6.3 MB.
SAVE_STATE_PEAK_BYTES = 1_500_000


def test_save_state_memory_does_not_grow_with_the_grid(tmp_path):
    state = LPState(to_position(_state_3d("lp", 32).field))
    path = tmp_path / "state.json"
    tracemalloc.start()
    try:
        save_state(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3 * SAVE_STATE_PEAK_BYTES
    assert peak < SAVE_STATE_PEAK_BYTES


def test_save_state_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        save_state(np.zeros(4), tmp_path / "x.json")


def _payload(path):
    return json.loads(path.read_text())


def _dump(tmp_path, payload, name="bad.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_load_state_schema_errors(tmp_path):
    state = make_lp_compact(Grid(1, 16.0, 1024), 1.0)
    good_path = tmp_path / "good.json"
    save_state(state, good_path)
    good = _payload(good_path)

    not_json = tmp_path / "not.json"
    not_json.write_text("{ this is not json")
    with pytest.raises(SchemaError):
        load_state(not_json)

    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, [1, 2, 3]))

    bad = dict(good)
    bad["schema"] = "something-else"
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    del bad["schema"]
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    bad["representation"] = "momentum"
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    bad["grid"] = {"dim": 1, "length": "wide", "n": 1024}
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    bad["components"] = good["components"] + good["components"]
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    comp = dict(good["components"][0])
    comp["re"] = comp["re"][:-1]
    bad["components"] = [comp]
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))

    bad = dict(good)
    bad["components"] = [{"re": good["components"][0]["re"]}]
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["sample", "length", "n", "unit"])
def test_load_state_rejects_non_finite(tmp_path, where, value):
    save_state(make_lp_compact(Grid(1, 16.0, 1024), 1.0), tmp_path / "good.json")
    bad = _payload(tmp_path / "good.json")
    if where == "sample":
        bad["components"][0]["im"][17] = value
    elif where in ("length", "n"):
        bad["grid"][where] = value
    else:
        bad["units"]["c"] = value
    with pytest.raises(SchemaError):
        load_state(_dump(tmp_path, bad))


# --------------------------------------------------------------------- csv

def test_csv_round_trip_full_precision(tmp_path, rng):
    x = rng.standard_normal(64)
    y = np.exp(rng.standard_normal(64) * 30.0)
    path = tmp_path / "table.csv"
    write_csv(path, [("x", x), ("y", y)])
    table = read_csv(path)
    assert sorted(table) == ["x", "y"]
    assert np.array_equal(table["x"], x)
    assert np.array_equal(table["y"], y)


@pytest.mark.parametrize("columns", [
    [("x", np.empty(0)), ("y", np.empty(0))],
    [("only", np.array([0.0, -0.0, 1e-300, -1e17, 2.5]))],
], ids=["empty", "single-column"])
def test_csv_edge_tables_round_trip(tmp_path, columns):
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    rows = zip(*(values for _, values in columns))
    expected = [",".join(name for name, _ in columns)]
    expected += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    table = read_csv(path)
    assert list(table) == [name for name, _ in columns]
    for name, values in columns:
        assert table[name].tobytes() == values.tobytes()


@pytest.mark.parametrize("text", ["x,y\n", "x,y", "x,y\n\n  \n"],
                         ids=["header-line", "no-newline", "blank-lines"])
def test_read_csv_of_a_header_without_rows_is_empty_and_silent(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_csv(path)
    assert list(table) == ["x", "y"]
    for values in table.values():
        assert values.shape == (0,) and values.dtype == np.float64


_SAVETXT_RNG = np.random.default_rng(2024)


@pytest.mark.parametrize("columns", [
    [("x", np.empty(0)), ("y", np.empty(0))],
    [("only", np.linspace(-1.0, 1.0, 7))],
    [("i", np.arange(-3, 4)), ("flag", np.arange(7) % 2 == 0)],
    [("flag", np.array([True, False, True]))],
    [("u", np.arange(3, dtype=np.uint8)), ("f", np.array([0.5, -1.5, 2.0]))],
    [("special", np.array([-0.0, 5e-324, np.nan, np.inf, -np.inf, 1e308])),
     ("plain", np.array([0.0, 1.0, -1.0, 0.1, 1e-17, 123456789.0]))],
    [(name, _SAVETXT_RNG.standard_normal(4096) * 10.0 ** _SAVETXT_RNG.integers(-30, 30))
     for name in ("a", "b", "c", "d")],
], ids=["zero-rows", "one-column", "int-and-bool", "bool", "uint-and-float",
        "special-values", "random-4096x4"])
def test_csv_bytes_match_savetxt(tmp_path, columns):
    path, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    write_csv(path, columns)
    np.savetxt(reference, np.column_stack([values for _, values in columns]),
               fmt="%.17g", delimiter=",", comments="", encoding="utf-8",
               header=",".join(name for name, _ in columns))
    assert path.read_bytes() == reference.read_bytes()


def test_csv_bytes_match_savetxt_across_row_blocks(tmp_path, monkeypatch, rng):
    monkeypatch.setattr("photonloc.serialization.CSV_BLOCK_ROWS", 3)
    columns = [("x", rng.standard_normal(10)), ("y", rng.standard_normal(10))]
    path, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    write_csv(path, columns)
    np.savetxt(reference, np.column_stack([values for _, values in columns]),
               fmt="%.17g", delimiter=",", comments="", header="x,y")
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("values", [np.array([1 + 2j, 3.0]), np.array(["a", "b"])],
                         ids=["complex", "text"])
def test_write_csv_rejects_columns_that_are_not_real_numbers(tmp_path, values):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="real numbers"):
        write_csv(path, [("x", np.zeros(2)), ("bad", values)])
    assert not path.exists()


def test_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [("a", np.zeros(3)), ("b", np.zeros(4))])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        read_csv(empty)
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("a,b\n1.0,2.0\n3.0,not-a-number\n")
    with pytest.raises(SchemaError):
        read_csv(malformed)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,c\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        read_csv(ragged)


def test_write_json_deterministic(tmp_path):
    payload = {"b": np.float64(2.5), "a": 1 + 2j, "c": [np.int64(3), None]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["a"] == {"im": 2.0, "re": 1.0}
    assert loaded["b"] == 2.5
    assert loaded["c"] == [3, None]


def test_jsonable_converts_numpy_scalars_and_rejects_other_types():
    assert jsonable(np.bool_(True)) is True
    assert jsonable(np.float32(0.5)) == 0.5
    for bad in ({1, 2}, object()):
        with pytest.raises(TypeError):
            jsonable(bad)

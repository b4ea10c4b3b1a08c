import json

import numpy as np
import pytest

from photonloc import (BBState, Grid, LPState, SpectralField, load_state,
                       lp_from_potentials, make_bb_compact, make_lp_compact,
                       read_csv, save_state, to_position, write_csv,
                       write_json)
from photonloc.errors import SchemaError
from photonloc.serialization import jsonable
from photonloc.units import UnitsConfig

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

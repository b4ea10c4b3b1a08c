"""File formats: state JSON, report JSON, and CSV tables.

States are stored as position-domain samples with full double precision
(repr round-trip), so a saved and reloaded state is bit-identical.  CSV
numbers are written with 17 significant digits for the same reason.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import SchemaError
from .fields import POSITION, SpectralField, to_position
from .grid import Grid
from .states import BBState, LPState, PhotonState
from .units import UnitsConfig

STATE_SCHEMA = "photonloc-state-v1"


def jsonable(obj):
    """Recursively convert dataclasses, numpy types and complex numbers to
    plain JSON-serializable structures; any other type raises TypeError."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot convert {type(obj).__name__} to JSON")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, columns):
    """Write named columns, 17 significant digits per value.

    ``columns`` is a sequence of (name, 1-d array) pairs of equal length.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr).ravel() for _, arr in columns]
    if any(a.size != arrays[0].size for a in arrays):
        raise ValueError("all columns must have the same length")
    np.savetxt(path, np.column_stack(arrays), fmt="%.17g", delimiter=",",
               header=",".join(names), comments="", encoding="utf-8")


def read_csv(path):
    """Read a CSV written by write_csv back into {name: array}."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaError(f"{path}: empty CSV")
        names = header.split(",")
        rows = [line for line in fh if line.strip()]
    if not rows:
        return {name: np.empty(0) for name in names}
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: malformed CSV ({exc})") from exc
    if data.shape[1] != len(names):
        raise SchemaError(f"{path}: {data.shape[1]} columns, header names {len(names)}")
    return {name: data[:, i].copy() for i, name in enumerate(names)}


def _component_payload(data: np.ndarray) -> dict:
    flat = data.ravel()
    return {"re": flat.real.tolist(), "im": flat.imag.tolist()}


def save_state(state, path):
    """Serialize an LP or BB state to JSON (position-domain samples)."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"expected LPState or BBState, got {type(state).__name__}")
    field = to_position(state.field)
    g = field.grid
    components = ([_component_payload(field.data)] if g.dim == 1
                  else [_component_payload(c) for c in field.data])
    payload = {
        "schema": STATE_SCHEMA,
        "representation": state.representation,
        "units": {"hbar": state.units.hbar, "c": state.units.c,
                  "eps0": state.units.eps0},
        "grid": {"dim": g.dim, "length": g.length, "n": g.n},
        "components": components,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _require(payload: dict, key: str, path):
    if key not in payload:
        raise SchemaError(f"{path}: missing key {key!r}")
    return payload[key]


def load_state(path):
    """Inverse of save_state; raises SchemaError on malformed input,
    non-finite samples, grid length or units included."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if _require(payload, "schema", path) != STATE_SCHEMA:
        raise SchemaError(f"{path}: unknown schema {payload['schema']!r}")
    rep = _require(payload, "representation", path)
    if rep not in ("lp", "bb"):
        raise SchemaError(f"{path}: representation must be 'lp' or 'bb'")
    gd = _require(payload, "grid", path)
    ud = _require(payload, "units", path)
    comps = _require(payload, "components", path)
    try:
        grid = Grid(int(gd["dim"]), float(gd["length"]), int(gd["n"]))
        units = UnitsConfig(float(ud["hbar"]), float(ud["c"]), float(ud["eps0"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad grid or units block ({exc})") from exc
    expected = 1 if grid.dim == 1 else 3
    if not isinstance(comps, list) or len(comps) != expected:
        raise SchemaError(f"{path}: expected {expected} components")
    size = grid.n ** grid.dim
    arrays = []
    for i, comp in enumerate(comps):
        try:
            re = np.asarray(comp["re"], dtype=np.float64)
            im = np.asarray(comp["im"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: component {i} malformed ({exc})") from exc
        if re.size != size or im.size != size:
            raise SchemaError(f"{path}: component {i} has wrong length")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise SchemaError(f"{path}: component {i} has non-finite samples")
        arrays.append((re + 1j * im).reshape(grid.spatial_shape))
    data = arrays[0] if grid.dim == 1 else np.stack(arrays)
    field = SpectralField(grid, data, POSITION)
    return LPState(field, units) if rep == "lp" else BBState(field, units)

import re

import numpy as np
import pytest

from photonloc import svgplot
from photonloc.svgplot import line_plot


def test_svg_is_deterministic_and_well_formed(tmp_path):
    x = np.linspace(-8.0, 8.0, 200)
    curves = [("|psi|", np.exp(-x ** 2)), ("energy", 0.5 * np.exp(-0.5 * x ** 2))]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot(p1, x, curves, title="panel a", xlabel="x", ylabel="value")
    line_plot(p2, x, curves, title="panel a", xlabel="x", ylabel="value")
    body = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    assert body.startswith("<svg")
    assert body.rstrip().endswith("</svg>")
    assert "panel a" in body
    assert "|psi|" in body
    assert "NaN" not in body and "nan" not in body


def test_svg_log_scale_clips_tiny_and_nonpositive(tmp_path):
    x = np.linspace(-8.0, 8.0, 400)
    y = np.exp(-x ** 2)
    y[::7] = 0.0
    y[::11] = 1e-40
    path = tmp_path / "log.svg"
    line_plot(path, x, [("u", y)], log_y=True)
    body = path.read_text()
    assert "NaN" not in body and "nan" not in body and "inf" not in body
    assert "1e-" in body  # log ticks


def test_svg_escapes_markup(tmp_path):
    x = np.linspace(0.0, 1.0, 16)
    path = tmp_path / "esc.svg"
    line_plot(path, x, [("a<b&c>", x)], title="t<&>")
    body = path.read_text()
    assert "a<b" not in body
    assert "a&lt;b&amp;c&gt;" in body


def test_svg_constant_curve_does_not_degenerate(tmp_path):
    x = np.linspace(0.0, 1.0, 16)
    path = tmp_path / "const.svg"
    line_plot(path, x, [("c", np.full(16, 2.5))])
    body = path.read_text()
    assert "polyline" in body


def _reference_polylines(x, curves, log_y):
    """The points of each polyline as the per-point writer formatted them:
    one scalar _Frame.px/_Frame.py call and one f-string per kept point."""
    x = np.asarray(x, dtype=float)
    curves = [(label, np.asarray(y, dtype=float)) for label, y in curves]
    frame = svgplot._Frame(float(x.min()), float(x.max()),
                           *svgplot._y_range(curves, log_y), log_y)
    polylines = []
    for _, y in curves:
        yy = y.astype(float).copy()
        if log_y:
            floor = frame.ylo
            yy = np.where(np.isfinite(yy) & (yy > 0.0), np.maximum(yy, floor), floor)
        polylines.append(" ".join(f"{frame.px(xv):.2f},{frame.py(yv):.2f}"
                                  for xv, yv in zip(x, yy) if np.isfinite(yv)))
    return polylines


def _odd_values():
    x = np.linspace(-8.0, 8.0, 64)
    y = np.exp(-x ** 2) * np.cos(3.0 * x)
    y[[1, 9, 17]] = np.nan
    y[[2, 30]] = np.inf
    y[[3, 40]] = -np.inf
    y[[4, 50]] = 0.0
    y[[5, 55]] = -0.0
    y[[6, 60]] = 1e-40
    return x, [("odd", y), ("negative", -np.abs(y)), ("all-nan", np.full(64, np.nan))]


def _random_curves():
    rng = np.random.default_rng(99)
    x = np.sort(rng.uniform(-20.0, 20.0, 4096))
    return x, [("a", rng.standard_normal(4096)),
               ("b", np.exp(rng.uniform(-60.0, 5.0, 4096))),
               ("c", rng.standard_normal(4096) * 1e-300)]


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log"])
@pytest.mark.parametrize("make", [
    _odd_values,
    lambda: (np.linspace(0.0, 1.0, 16), [("c", np.full(16, 2.5))]),
    _random_curves,
], ids=["odd-values", "constant", "random-4096"])
def test_polylines_match_the_per_point_writer(tmp_path, make, log_y):
    x, curves = make()
    path = tmp_path / "plot.svg"
    line_plot(path, x, curves, log_y=log_y)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == _reference_polylines(x, curves, log_y)


def test_curve_length_must_match_x(tmp_path):
    x = np.linspace(0.0, 1.0, 16)
    path = tmp_path / "short.svg"
    with pytest.raises(ValueError, match="'short'"):
        line_plot(path, x, [("full", x), ("short", x[:-1])])
    assert not path.exists()

"""SVG chart generation: determinism and basic structure."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eternalprofile import PlotError, ProfileError
from eternalprofile.svgplot import line_chart


def test_chart_is_valid_svg(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    path = tmp_path / "chart.svg"
    line_chart([("f", x, x**2)], path, title="t", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert ">t</text>" in text


def test_chart_text_is_escaped(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "escaped.svg"
    text = "W & Z < 1 > \u03be"
    line_chart([(text, x, x)], path, title=text, xlabel=text, ylabel=text)
    root = ET.parse(path).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count(text) == 4


def test_chart_bytes_deterministic(tmp_path):
    x = np.linspace(0.0, 2.0, 50)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_chart([("f", x, np.sin(x))], a)
    line_chart([("f", x, np.sin(x))], b)
    assert a.read_bytes() == b.read_bytes()


def test_chart_has_no_timestamp(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "c.svg"
    line_chart([("f", x, x)], path)
    text = path.read_text().lower()
    assert "date" not in text and "time" not in text


def test_logy_drops_nonpositive_values(tmp_path):
    x = np.linspace(0.0, 1.0, 10)
    y = x - 0.5  # half the values are <= 0
    path = tmp_path / "log.svg"
    line_chart([("f", x, y)], path, logy=True)
    assert "<polyline" in path.read_text()


def test_multiple_series_get_distinct_colors(tmp_path):
    x = np.linspace(0.0, 1.0, 10)
    path = tmp_path / "multi.svg"
    line_chart([("a", x, x), ("b", x, 1 - x)], path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "#1f6fb4" in text and "#d45500" in text


def test_chart_without_finite_points_raises_plot_error(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "empty.svg"
    with pytest.raises(PlotError) as info:
        line_chart([("a", x[:0], x[:0]), ("b", x, -x - 1.0)], path, logy=True)
    assert isinstance(info.value, ProfileError)
    assert not path.exists()

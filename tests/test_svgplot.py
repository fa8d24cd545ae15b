import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

import loopscope
from loopscope.svgplot import _escape, emit_entropy_plot, emit_trajectory_plot
from tests.test_metrics import make_traj

NS = "{http://www.w3.org/2000/svg}"


def parse(svg):
    root = ET.fromstring(svg)
    assert root.tag == f"{NS}svg"
    assert root.get("width") and root.get("height")
    return root


def points_of(el):
    return [tuple(map(float, p.split(","))) for p in el.get("points").split()]


def test_trajectory_plot_four_polylines():
    t = make_traj("q1", "Base", 0, [0, 0, 1, 1, 1], correct=1)
    root = parse(emit_trajectory_plot(t))
    lines = [e for e in root.iter(f"{NS}polyline")
             if e.get("class") == "option"]
    assert len(lines) == 4


def test_trajectory_plot_correct_option_distinguished():
    t = make_traj("q1", "Base", 0, [0, 0, 1, 1, 1], correct=2)
    root = parse(emit_trajectory_plot(t))
    widths = [float(e.get("stroke-width")) for e in root.iter(f"{NS}polyline")
              if e.get("class") == "option"]
    assert widths[2] == max(widths)
    assert sum(w == max(widths) for w in widths) == 1
    labels = [e.text for e in root.iter(f"{NS}text")]
    assert sum("(correct)" in (l or "") for l in labels) == 1


def test_trajectory_plot_constant_is_horizontal():
    t = make_traj("q1", "Base", 0, [0, 0, 0, 0], correct=0)
    t.option_probs = np.full((4, 4), 0.25)
    root = parse(emit_trajectory_plot(t))
    for el in root.iter(f"{NS}polyline"):
        if el.get("class") != "option":
            continue
        ys = {y for _, y in points_of(el)}
        assert len(ys) == 1
        xs = [x for x, _ in points_of(el)]
        assert xs == sorted(xs) and xs[0] < xs[-1]


def test_trajectory_plot_band_from_siblings():
    base = make_traj("q1", "Base", 0, [0, 0, 1, 1, 1], correct=1)
    sibs = [make_traj("q1", "Base", i, [0, 0, 1, 1, 1], correct=1)
            for i in (1, 2)]
    for i, s in enumerate(sibs):
        s.option_probs = np.clip(base.option_probs + 0.05 * (i + 1), 0, 1)
    root = parse(emit_trajectory_plot(base, extra_trajectories=sibs))
    bands = [e for e in root.iter(f"{NS}polygon") if e.get("class") == "band"]
    assert len(bands) == 4


def test_trajectory_plot_needs_two_steps():
    t = make_traj("q1", "Base", 0, [0], correct=0)
    with pytest.raises(ValueError):
        emit_trajectory_plot(t)


def test_entropy_plot_three_variants():
    k = 10
    curve = lambda base: (np.full(k, base), np.full(k, base - 0.1),
                          np.full(k, base + 0.1))
    svg = emit_entropy_plot({"Base": curve(1.0), "Easy": curve(0.5),
                             "NoCorrect": curve(2.0)})
    root = parse(svg)
    assert len(list(root.iter(f"{NS}polyline"))) >= 3
    means = [e for e in root.iter(f"{NS}polyline") if e.get("class") == "mean"]
    bands = [e for e in root.iter(f"{NS}polygon") if e.get("class") == "band"]
    assert len(means) == 3 and len(bands) == 3
    legend = [e.text for e in root.iter(f"{NS}text")
              if e.get("class") == "legend"]
    assert legend == ["Base", "Easy", "NoCorrect"]


def test_entropy_plot_band_edges_ordered():
    k = 6
    mean = np.linspace(2.0, 0.5, k)
    svg = emit_entropy_plot({"Base": (mean, mean - 0.2, mean + 0.2)})
    root = parse(svg)
    band = next(e for e in root.iter(f"{NS}polygon")
                if e.get("class") == "band")
    pts = points_of(band)
    upper, lower = pts[:k], pts[k:][::-1]
    for (xu, yu), (xl, yl) in zip(upper, lower):
        assert xu == xl
        assert yu <= yl  # SVG y grows downward: upper CI edge sits above


def test_entropy_plot_single_variant():
    k = 4
    mean = np.ones(k)
    root = parse(emit_entropy_plot({"Base": (mean, mean, mean)}))
    legend = [e.text for e in root.iter(f"{NS}text")
              if e.get("class") == "legend"]
    assert legend == ["Base"]


def test_entropy_plot_errors():
    with pytest.raises(ValueError):
        emit_entropy_plot({})
    m4, m5 = np.ones(4), np.ones(5)
    with pytest.raises(ValueError):
        emit_entropy_plot({"Base": (m4, m4, m4), "Easy": (m5, m5, m5)})
    with pytest.raises(ValueError):
        emit_entropy_plot({"Base": (m4, m4 + 1, m4 - 1)})  # upper < lower


def test_svg_deterministic_bytes():
    t = make_traj("q1", "Base", 0, [0, 1, 1, 2, 2, 2], correct=2)
    assert emit_trajectory_plot(t) == emit_trajectory_plot(t)
    k = 5
    curves = {"Base": (np.ones(k), np.ones(k) * 0.9, np.ones(k) * 1.1)}
    assert emit_entropy_plot(curves) == emit_entropy_plot(curves)


def test_escape_matches_saxutils():
    for text in ("", "Base", "a & b", "<g>", "x > y < z", "&amp; &lt;x&gt;",
                 "&&<<>>", "it's \"quoted\"", "mixed & <'\"> &amp;"):
        assert _escape(text) == escape(text), text


def test_import_loads_neither_xml_sax_nor_urllib():
    """import loopscope stays light: xml.sax and urllib.request (which
    loads http.client and email) are not among what it imports."""
    src = os.path.dirname(os.path.dirname(loopscope.__file__))
    code = ("import sys, loopscope; print(sorted(m for m in "
            "('xml.sax', 'urllib.request') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

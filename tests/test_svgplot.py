import numpy as np

from noisegan.svgplot import line_chart, scatter_chart


def test_line_chart_basic(tmp_path):
    path = tmp_path / "c.svg"
    line_chart(path, [("alpha", [0, 1, 2], [0.0, 0.5, 0.25]),
                      ("beta", [0, 1, 2], [1.0, 1.0, 1.0])],
               title="demo", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "alpha" in text and "beta" in text and "demo" in text
    assert text.count("<polyline") == 2


def test_scatter_chart_basic(tmp_path):
    path = tmp_path / "s.svg"
    pts = np.random.default_rng(0).normal(size=(40, 2))
    scatter_chart(path, [("cloud", pts)], title="pts", xlabel="a", ylabel="b")
    text = path.read_text()
    assert text.count("<circle") == 40
    assert "cloud" in text


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [("s", [0.0, 1e-9, 2.0], [3.0, -1.0, 3.0])]
    line_chart(a, series, title="t", xlabel="x", ylabel="y")
    line_chart(b, series, title="t", xlabel="x", ylabel="y")
    assert a.read_bytes() == b.read_bytes()


def test_labels_are_escaped(tmp_path):
    path = tmp_path / "e.svg"
    line_chart(path, [("a<b&c", [0, 1], [0, 1])], title="x<y>", xlabel="<'\"",
               ylabel="&")
    text = path.read_text()
    assert "a&lt;b&amp;c" in text
    assert "x&lt;y&gt;" in text
    assert ">&lt;'\"</text>" in text    # quotes stay as they are


def test_constant_series_does_not_crash(tmp_path):
    path = tmp_path / "flat.svg"
    line_chart(path, [("flat", [0, 1], [2.0, 2.0])], title="", xlabel="x",
               ylabel="y")
    assert path.read_text().count("<polyline") == 1

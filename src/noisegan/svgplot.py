"""Tiny self-contained SVG charts (polylines and scatters).

Just enough to look at traces, divergence sweeps and point clouds
without pulling in a plotting stack.  Output is deterministic: fixed
float formatting, no timestamps.
"""

from __future__ import annotations

from html import escape

COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
          "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 16, 34, 44


def _bounds(values, pad_frac=0.04):
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(v):
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.parts = []
        self.xlim, self.ylim = xlim, ylim
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">')
        self.parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        if title:
            self.parts.append(f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
                              f'font-size="14">{escape(title, quote=False)}</text>')
        self._axes(xlabel, ylabel)

    def px(self, x):
        lo, hi = self.xlim
        return _ML + (x - lo) / (hi - lo) * (_W - _ML - _MR)

    def py(self, y):
        lo, hi = self.ylim
        return _H - _MB - (y - lo) / (hi - lo) * (_H - _MT - _MB)

    def _axes(self, xlabel, ylabel):
        x0, x1 = _ML, _W - _MR
        y0, y1 = _H - _MB, _MT
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
        for tx in _ticks(*self.xlim):
            p = self.px(tx)
            self.parts.append(f'<line x1="{_fmt(p)}" y1="{y0}" x2="{_fmt(p)}" '
                              f'y2="{y0 + 4}" stroke="black"/>')
            self.parts.append(f'<text x="{_fmt(p)}" y="{y0 + 16}" '
                              f'text-anchor="middle">{tx:.4g}</text>')
        for ty in _ticks(*self.ylim):
            p = self.py(ty)
            self.parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(p)}" x2="{x0}" '
                              f'y2="{_fmt(p)}" stroke="black"/>')
            self.parts.append(f'<text x="{x0 - 6}" y="{_fmt(p)}" text-anchor="end" '
                              f'dominant-baseline="middle">{ty:.4g}</text>')
        if xlabel:
            self.parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 8}" '
                              f'text-anchor="middle">{escape(xlabel, quote=False)}</text>')
        if ylabel:
            self.parts.append(
                f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
                f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})">'
                f'{escape(ylabel, quote=False)}</text>')

    def legend(self, labels_colors):
        y = _MT + 4
        for label, color in labels_colors:
            x = _W - _MR - 150
            self.parts.append(f'<line x1="{x}" y1="{y}" x2="{x + 22}" y2="{y}" '
                              f'stroke="{color}" stroke-width="2"/>')
            self.parts.append(f'<text x="{x + 28}" y="{y + 4}">'
                              f'{escape(label, quote=False)}</text>')
            y += 16

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n")


def line_chart(path, series, *, title="", xlabel="", ylabel=""):
    """series: iterable of (label, xs, ys); draws one polyline each."""
    series = [(str(lb), list(map(float, xs)), list(map(float, ys)))
              for lb, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("line_chart needs non-empty series of equal-length xs/ys")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    canvas = _Canvas(title, xlabel, ylabel, _bounds(all_x), _bounds(all_y))
    legend = []
    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{_fmt(canvas.px(x))},{_fmt(canvas.py(y))}"
                       for x, y in zip(xs, ys))
        canvas.parts.append(f'<polyline points="{pts}" fill="none" '
                            f'stroke="{color}" stroke-width="1.5"/>')
        legend.append((label, color))
    canvas.legend(legend)
    canvas.write(path)


def scatter_chart(path, groups, *, title="", xlabel="", ylabel="", radius=1.6):
    """groups: iterable of (label, points (n, 2) array-like)."""
    groups = [(str(lb), [(float(p[0]), float(p[1])) for p in pts])
              for lb, pts in groups]
    if not groups or all(not pts for _, pts in groups):
        raise ValueError("scatter_chart needs at least one non-empty group")
    all_x = [p[0] for _, pts in groups for p in pts]
    all_y = [p[1] for _, pts in groups for p in pts]
    canvas = _Canvas(title, xlabel, ylabel, _bounds(all_x), _bounds(all_y))
    legend = []
    for i, (label, pts) in enumerate(groups):
        color = COLORS[i % len(COLORS)]
        for x, y in pts:
            canvas.parts.append(f'<circle cx="{_fmt(canvas.px(x))}" '
                                f'cy="{_fmt(canvas.py(y))}" r="{radius}" '
                                f'fill="{color}" fill-opacity="0.6"/>')
        legend.append((label, color))
    canvas.legend(legend)
    canvas.write(path)

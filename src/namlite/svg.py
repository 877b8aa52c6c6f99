"""Deterministic SVG 1.1 chart rendering with no plotting dependencies.

Every renderer is a pure function of its export: fixed canvas, fixed
fonts, fixed number formatting, no timestamps, so the same export always
produces byte-identical output. Confidence whiskers and bands span
mean +/- 1.96 * SE.
"""

from __future__ import annotations

import numbers
from xml.sax.saxutils import escape

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "importance_bars",
    "shape_line",
    "shape_category_bars",
    "pair_heatmap",
    "calibration_plot",
]

Z = 1.96
BAR_FILL = "#4878a8"
MISS_FILL = "#c44e52"
BAND_FILL = "#a8c4dc"
AXIS = "#444444"
GRID = "#999999"
TEXT = "#222222"


# --- primitives ------------------------------------------------------------


def _f(v: float) -> str:
    s = f"{float(v):.2f}"
    return "0.00" if s == "-0.00" else s


def _tick_label(v: float) -> str:
    s = f"{float(v):.4g}"
    return "0" if s == "-0" else s


def _line(x1, y1, x2, y2, color=AXIS, width=1.0, dash=None) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{color}" stroke-width="{_f(width)}"{d}/>'
    )


def _rect(x, y, w, h, fill, opacity=None, cls=None) -> str:
    o = f' fill-opacity="{opacity}"' if opacity is not None else ""
    c = f' class="{cls}"' if cls else ""
    return (
        f'<rect{c} x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
        f'fill="{fill}"{o}/>'
    )


def _text(x, y, s, anchor="middle", size=11, rotate=None, color=TEXT) -> str:
    t = (
        f' transform="rotate({rotate} {_f(x)} {_f(y)})"' if rotate is not None else ""
    )
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" font-size="{size}" '
        f'fill="{color}"{t}>{escape(str(s))}</text>'
    )


def _circle(cx, cy, r, fill, cls=None) -> str:
    c = f' class="{cls}"' if cls else ""
    return f'<circle{c} cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>'


def _poly(points, color, width=1.5) -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{_f(width)}"/>'


def _doc(parts: list[str], width: int, height: int) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" font-family="monospace">',
        _rect(0, 0, width, height, "#ffffff"),
    ]
    return "\n".join(head + parts + ["</svg>"]) + "\n"


class _Scale:
    """Affine map from a data interval to a pixel interval."""

    def __init__(self, lo: float, hi: float, a: float, b: float):
        if hi <= lo:
            lo, hi = lo - 0.5, lo + 0.5
        self.lo, self.hi, self.a, self.b = lo, hi, a, b

    def __call__(self, v: float) -> float:
        return self.a + (v - self.lo) * (self.b - self.a) / (self.hi - self.lo)


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 0.5, lo + 0.5
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


def _value_range(arrs) -> tuple[float, float]:
    lo = min(float(np.min(a)) for a in arrs)
    hi = max(float(np.max(a)) for a in arrs)
    return _pad_range(min(lo, 0.0), max(hi, 0.0))


def _y_axis(ys: _Scale, x0: float, n: int = 5) -> list[str]:
    parts = [_line(x0, ys(ys.lo), x0, ys(ys.hi))]
    for v in np.linspace(ys.lo, ys.hi, n):
        parts.append(_line(x0 - 4, ys(v), x0, ys(v)))
        parts.append(_text(x0 - 7, ys(v) + 3.5, _tick_label(v), anchor="end", size=10))
    return parts


def _x_value_axis(xs: _Scale, y0: float, n: int = 5) -> list[str]:
    parts = [_line(xs(xs.lo), y0, xs(xs.hi), y0)]
    for v in np.linspace(xs.lo, xs.hi, n):
        parts.append(_line(xs(v), y0, xs(v), y0 + 4))
        parts.append(_text(xs(v), y0 + 16, _tick_label(v), size=10))
    return parts


def _label_step(n: int, most: int = 8) -> int:
    return max(1, int(np.ceil(n / most)))


# --- renderers ---------------------------------------------------------------


def importance_bars(report, top_n: int = 10, title: str | None = None) -> str:
    if not isinstance(top_n, numbers.Integral) or isinstance(top_n, bool) or top_n < 1:
        raise ConfigError(f"top_n must be an integer >= 1, got {top_n!r}")
    entries = report.entries[:top_n]
    if not entries:
        raise DataError("empty export: no importance entries to plot")
    W, H = 640, 420
    x0, x1, y0, y1 = 190, 616, 36, 372
    stratify = report.mode == "stratify"
    hi = 0.0
    for e in entries:
        hi = max(hi, e.mean + Z * e.se)
        if stratify and e.missing_mean is not None:
            hi = max(hi, e.missing_mean + Z * (e.missing_se or 0.0))
    xs = _Scale(0.0, _pad_range(0.0, hi)[1], x0, x1)
    row = (y1 - y0) / len(entries)
    bar_h = row * (0.3 if stratify else 0.6)
    parts = [_text((x0 + x1) / 2, 20, title or f"importance ({report.mode})", size=13)]
    for i, e in enumerate(entries):
        cy = y0 + (i + 0.5) * row
        ya = cy - bar_h * (1.0 if stratify else 0.5)
        parts.append(_text(x0 - 8, cy + 3.5, e.name, anchor="end", size=10))
        parts.append(_rect(x0, ya, xs(e.mean) - x0, bar_h, BAR_FILL, cls="bar"))
        yc = ya + bar_h / 2
        parts.append(_line(xs(max(0.0, e.mean - Z * e.se)), yc, xs(e.mean + Z * e.se), yc))
        parts.append(_line(xs(e.mean + Z * e.se), yc - 3, xs(e.mean + Z * e.se), yc + 3))
        if stratify and e.missing_mean is not None:
            yb = cy
            parts.append(
                _rect(x0, yb, xs(e.missing_mean) - x0, bar_h, MISS_FILL, cls="bar")
            )
            mc = yb + bar_h / 2
            m_hi = e.missing_mean + Z * (e.missing_se or 0.0)
            m_lo = max(0.0, e.missing_mean - Z * (e.missing_se or 0.0))
            parts.append(_line(xs(m_lo), mc, xs(m_hi), mc))
    parts.extend(_x_value_axis(xs, y1 + 6))
    parts.append(_line(x0, y0, x0, y1 + 6))
    if stratify:
        parts.append(_rect(x0, H - 14, 10, 10, BAR_FILL))
        parts.append(_text(x0 + 16, H - 5, "observed", anchor="start", size=10))
        parts.append(_rect(x0 + 90, H - 14, 10, 10, MISS_FILL))
        parts.append(_text(x0 + 106, H - 5, "missing", anchor="start", size=10))
    return _doc(parts, W, H)


def _shape_block(export, block: int):
    if not export.blocks or not export.labels:
        raise DataError("empty export: no shape bins to plot")
    b = export.blocks[block]
    title = export.feature
    if b.eval_time is not None:
        title += f" @ t={_tick_label(b.eval_time)}"
    return b, title


def shape_line(export, block: int = 0, title: str | None = None) -> str:
    """Step line over bin slots; the missing bin is a detached marker."""
    b, auto_title = _shape_block(export, block)
    W, H = 640, 420
    x0, x1, y0, y1 = 62, 616, 36, 330
    labels = export.labels
    has_missing = export.include_missing
    n_obs = len(labels) - (1 if has_missing else 0)
    if n_obs < 1:
        raise DataError("empty export: no observed bins to plot")
    start = 1.5 if has_missing else 0.0
    xs = _Scale(0.0, start + n_obs, x0, x1)
    lo, hi = _value_range([b.mean - Z * b.se, b.mean + Z * b.se])
    ys = _Scale(lo, hi, y1, y0)
    parts = [_text((x0 + x1) / 2, 20, title or auto_title, size=13)]
    parts.append(_line(x0, ys(0.0), x1, ys(0.0), color=GRID, dash="4,3"))
    off = 1 if has_missing else 0
    mean, se = b.mean[off:], b.se[off:]
    for i in range(n_obs):
        xa, xb = xs(start + i), xs(start + i + 1)
        parts.append(
            _rect(
                xa,
                ys(mean[i] + Z * se[i]),
                xb - xa,
                abs(ys(mean[i] - Z * se[i]) - ys(mean[i] + Z * se[i])),
                BAND_FILL,
                opacity=0.55,
                cls="band",
            )
        )
    for i in range(n_obs):
        xa, xb = xs(start + i), xs(start + i + 1)
        parts.append(_line(xa, ys(mean[i]), xb, ys(mean[i]), color=BAR_FILL, width=2.0))
        if i + 1 < n_obs:
            parts.append(
                _line(xb, ys(mean[i]), xb, ys(mean[i + 1]), color=BAR_FILL, width=2.0)
            )
    if has_missing:
        mx = xs(0.5)
        mv, msd = float(b.mean[0]), float(b.se[0])
        parts.append(_line(mx, ys(mv - Z * msd), mx, ys(mv + Z * msd), color=MISS_FILL))
        parts.append(_rect(mx - 4, ys(mv) - 4, 8, 8, MISS_FILL, cls="missing"))
        parts.append(_text(mx, y1 + 16, "missing", size=10, rotate=-30, anchor="end"))
    step = _label_step(n_obs)
    for i in range(0, n_obs, step):
        cx = xs(start + i + 0.5)
        parts.append(_line(cx, y1, cx, y1 + 4, color=AXIS))
        parts.append(
            _text(cx, y1 + 16, labels[i + off], size=9, rotate=-30, anchor="end")
        )
    parts.extend(_y_axis(ys, x0 - 6))
    parts.append(_line(x0 - 6, y1, x1, y1))
    return _doc(parts, W, H)


def shape_category_bars(export, block: int = 0, title: str | None = None) -> str:
    b, auto_title = _shape_block(export, block)
    W, H = 640, 420
    x0, x1, y0, y1 = 62, 616, 36, 330
    n = len(export.labels)
    xs = _Scale(0.0, float(n), x0, x1)
    lo, hi = _value_range([b.mean - Z * b.se, b.mean + Z * b.se])
    ys = _Scale(lo, hi, y1, y0)
    parts = [_text((x0 + x1) / 2, 20, title or auto_title, size=13)]
    parts.append(_line(x0, ys(0.0), x1, ys(0.0), color=GRID, dash="4,3"))
    step = _label_step(n)
    for i, label in enumerate(export.labels):
        v, s = float(b.mean[i]), float(b.se[i])
        xa, xb = xs(i + 0.15), xs(i + 0.85)
        top, bot = ys(max(v, 0.0)), ys(min(v, 0.0))
        fill = MISS_FILL if export.include_missing and i == 0 else BAR_FILL
        parts.append(_rect(xa, top, xb - xa, bot - top, fill, cls="bar"))
        cx = (xa + xb) / 2
        parts.append(_line(cx, ys(v - Z * s), cx, ys(v + Z * s)))
        if i % step == 0:
            parts.append(_text(cx, y1 + 16, label, size=9, rotate=-30, anchor="end"))
    parts.extend(_y_axis(ys, x0 - 6))
    parts.append(_line(x0 - 6, y1, x1, y1))
    return _doc(parts, W, H)


def _diverge(v: float, vmax: float) -> str:
    """White at 0, blue for negative, red for positive."""
    t = 0.0 if vmax <= 0 else max(-1.0, min(1.0, v / vmax))
    if t >= 0:
        r, g, bl = 255 + t * (180 - 255), 255 + t * (4 - 255), 255 + t * (38 - 255)
    else:
        t = -t
        r, g, bl = 255 + t * (59 - 255), 255 + t * (76 - 255), 255 + t * (192 - 255)
    return f"rgb({int(round(r))},{int(round(g))},{int(round(bl))})"


def pair_heatmap(export, title: str | None = None) -> str:
    mean = np.asarray(export.mean, dtype=np.float64)
    if mean.size == 0:
        raise DataError("empty export: no pair cells to plot")
    W, H = 640, 520
    x0, x1, y0, y1 = 150, 600, 46, 400
    na, nb = mean.shape
    vmax = float(np.max(np.abs(mean)))
    cw, ch = (x1 - x0) / nb, (y1 - y0) / na
    name = title or f"{export.feature_a} x {export.feature_b}"
    if export.eval_time is not None:
        name += f" @ t={_tick_label(export.eval_time)}"
    parts = [_text((x0 + x1) / 2, 22, name, size=13)]
    for a in range(na):
        for bcol in range(nb):
            parts.append(
                _rect(
                    x0 + bcol * cw,
                    y0 + a * ch,
                    cw,
                    ch,
                    _diverge(float(mean[a, bcol]), vmax),
                    cls="cell",
                )
            )
    astep, bstep = _label_step(na, 14), _label_step(nb, 14)
    for a in range(0, na, astep):
        parts.append(
            _text(x0 - 6, y0 + (a + 0.5) * ch + 3.5, export.labels_a[a], anchor="end", size=9)
        )
    for bcol in range(0, nb, bstep):
        parts.append(
            _text(
                x0 + (bcol + 0.5) * cw,
                y1 + 14,
                export.labels_b[bcol],
                size=9,
                rotate=-30,
                anchor="end",
            )
        )
    parts.append(_text(x0, H - 64, export.feature_a + " (rows)", anchor="start", size=10))
    parts.append(_text(x0, H - 50, export.feature_b + " (columns)", anchor="start", size=10))
    parts.append(
        _text(
            x1,
            36,
            f"range [{_tick_label(float(mean.min()))}, {_tick_label(float(mean.max()))}]",
            anchor="end",
            size=10,
        )
    )
    return _doc(parts, W, H)


def calibration_plot(export, title: str | None = None) -> str:
    bins = export.bins
    if not bins:
        raise DataError("empty export: no calibration bins to plot")
    W, H = 480, 480
    x0, x1, y0, y1 = 62, 444, 36, 410
    xs = _Scale(0.0, 1.0, x0, x1)
    ys = _Scale(0.0, 1.0, y1, y0)
    name = title or f"calibration @ t={_tick_label(export.eval_time)}"
    parts = [_text((x0 + x1) / 2, 20, name, size=13)]
    parts.append(_line(xs(0), ys(0), xs(1), ys(1), color=GRID, dash="4,3"))
    pts = [(xs(b.mean_pred), ys(b.km_cdf)) for b in bins]
    if len(pts) > 1:
        parts.append(_poly(pts, BAR_FILL))
    for px, py in pts:
        parts.append(_circle(px, py, 3.0, BAR_FILL, cls="point"))
    parts.extend(_y_axis(ys, x0 - 6))
    parts.extend(_x_value_axis(xs, y1 + 6))
    parts.append(_text((x0 + x1) / 2, H - 10, "predicted CDF", size=10))
    parts.append(_text(14, (y0 + y1) / 2, "KM CDF", size=10, rotate=-90))
    return _doc(parts, W, H)

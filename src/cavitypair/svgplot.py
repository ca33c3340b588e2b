"""Hand-rolled SVG emission: line plots and a grayscale raster.

No plotting library: the output must be byte-identical across runs, so every
coordinate goes through one fixed format and the document carries no
timestamps, random ids, or library version strings.  Every document is
WIDTH x HEIGHT = 640x400, and every line is LINE_WIDTH wide.
"""

import numpy as np

WIDTH = 640
HEIGHT = 400
MARGIN = 56
LINE_WIDTH = 1.0
PALETTE = ("#000000", "#777777", "#bbbbbb")

def _fmt(value: float) -> str:
    """Fixed two-decimal coordinate format; avoids '-0.00'."""
    text = f"{float(value):.2f}"
    return "0.00" if text == "-0.00" else text


def _rect(x, y, w, h, fill: str, stroke: str = "none") -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{fill}" stroke="{stroke}"/>'
    )


def _text(x, y, content: str, size: int = 12, *, anchor: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" font-size="{size}" '
        f'text-anchor="{anchor}">{content}</text>'
    )


def _document(parts) -> str:
    """One WIDTH x HEIGHT SVG document holding the elements ``parts`` in order."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    )
    return head + "\n".join(parts) + "\n</svg>\n"


def _axis_frame(title: str, x_label: str, y_label: str, x_range, y_range) -> list[str]:
    """Title, plot frame, axis labels and axis range ends, in document order."""
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        _text(WIDTH / 2, MARGIN / 2, title, size=14, anchor="middle"),
        _rect(x0, y1, x1 - x0, y0 - y1, fill="none", stroke="#000000"),
        _text((x0 + x1) / 2, HEIGHT - MARGIN / 3, x_label, anchor="middle"),
        _text(MARGIN / 3, (y0 + y1) / 2, y_label, anchor="middle"),
        _text(x0, y0 + 16, f"{x_range[0]:.6g}", anchor="middle"),
        _text(x1, y0 + 16, f"{x_range[1]:.6g}", anchor="middle"),
        _text(x0 - 6, y0 + 4, f"{y_range[0]:.6g}", anchor="end"),
        _text(x0 - 6, y1 + 4, f"{y_range[1]:.6g}", anchor="end"),
    ]


def _scale(values, lo, hi, pix_lo, pix_hi):
    values = np.asarray(values, dtype=float)
    if hi == lo:
        return np.full(values.shape, (pix_lo + pix_hi) / 2.0)
    return pix_lo + (values - lo) * (pix_hi - pix_lo) / (hi - lo)


def line_plot(x, series, labels, x_label: str, y_label: str, title: str) -> str:
    """Render one or more series against a shared abscissa.

    Parameters
    ----------
    x : array_like
        Shared abscissa, ascending.
    series : sequence of array_like
        One ordinate array per curve, each the length of x.
    labels : sequence of str
        Legend entries, one per curve.
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(s.min()) for s in series)
    y_hi = max(float(s.max()) for s in series)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    parts = _axis_frame(title, x_label, y_label, (x_lo, x_hi), (y_lo, y_hi))
    stroke_width = _fmt(LINE_WIDTH)
    px = _scale(x, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
    for k, curve in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        py = _scale(curve, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        points = " ".join(f"{_fmt(u)},{_fmt(v)}" for u, v in zip(px, py))
        key_x, key_y = WIDTH - MARGIN, MARGIN + 16 * (k + 1)
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="{stroke_width}"/>',
            _text(key_x - 4, key_y, labels[k], anchor="end"),
            f'<line x1="{_fmt(key_x - 60)}" y1="{_fmt(key_y - 4)}" x2="{_fmt(key_x - 48)}" '
            f'y2="{_fmt(key_y - 4)}" stroke="{color}" stroke-width="{stroke_width}"/>',
        ]
    return _document(parts)


def raster_plot(matrix, x_range, y_range, x_label: str, y_label: str, title: str) -> str:
    """Render a matrix as a grayscale cell grid, dark = large value.

    Row index maps to the y axis (first row at the bottom), column index to
    the x axis, mirroring a mesh of values over (x, y) product grids.  A
    matrix that is not finite has no shading and raises ValueError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0 or not np.all(np.isfinite(matrix)):
        raise ValueError("raster_plot expects a non-empty finite 2-d matrix")
    parts = _axis_frame(title, x_label, y_label, x_range, y_range)

    n_rows, n_cols = matrix.shape
    top = float(matrix.max())
    level = np.zeros(matrix.shape) if top == 0.0 else matrix / top
    # rint rounds half to even, as round does; int() keeps a shade beyond int64 exact
    shades = np.rint(255.0 * (1.0 - level)).tolist()
    frame_w = WIDTH - 2 * MARGIN
    frame_h = HEIGHT - 2 * MARGIN
    cell_w = frame_w / n_cols
    cell_h = frame_h / n_rows
    for i, row in enumerate(shades):
        y = HEIGHT - MARGIN - (i + 1) * cell_h
        for k, shade in enumerate(row):
            shade = int(shade)
            parts.append(_rect(MARGIN + k * cell_w, y, cell_w, cell_h, fill=f"rgb({shade},{shade},{shade})"))
    parts.append(_text(WIDTH - MARGIN, MARGIN / 2, f"max {top:.6g}", anchor="end"))
    return _document(parts)

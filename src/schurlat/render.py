"""Certificate rendering: ascii grids, binary PPM (P6) images, and SVG.

Orientation convention for d = 2: the first coordinate is the vertical axis
pointing upward, the second is the horizontal axis pointing right. Row N is
emitted first (top), row 1 last, matching figures drawn with the origin at
the bottom-left. d = 1 colorings render as a single row.
"""

from __future__ import annotations

from .errors import RenderError, shown
from .lattice import SIZE_CEILING, Coloring

# 12 visually distinguishable colors; index c-1 is the fill for color c.
PALETTE = [
    (230, 25, 75),    # red
    (0, 130, 200),    # blue
    (255, 225, 25),   # yellow
    (60, 180, 75),    # green
    (245, 130, 48),   # orange
    (145, 30, 180),   # purple
    (70, 240, 240),   # cyan
    (240, 50, 230),   # magenta
    (128, 128, 0),    # olive
    (250, 190, 212),  # pink
    (0, 128, 128),    # teal
    (154, 99, 36),    # brown
]


def _rows(coloring: Coloring) -> list[list[int]]:
    """Grid rows top-to-bottom: row y holds colors of (y, 1..N), y = N..1."""
    if coloring.d == 1:
        return [[coloring.color_of((x,)) for x in range(1, coloring.n + 1)]]
    if coloring.d == 2:
        return [
            [coloring.color_of((y, x)) for x in range(1, coloring.n + 1)]
            for y in range(coloring.n, 0, -1)
        ]
    raise RenderError(f"rendering supports d <= 2, got d={shown(coloring.d)}")


def _palette_rows(coloring: Coloring) -> list[list[int]]:
    """_rows, for a format that draws each color from PALETTE."""
    if coloring.r > len(PALETTE):
        raise RenderError(
            f"palette has {len(PALETTE)} colors, certificate uses {shown(coloring.r)}; "
            f"use ascii format instead"
        )
    return _rows(coloring)


def render_ascii(coloring: Coloring) -> str:
    """One text line per lattice row, colors as digits (space-separated past 9)."""
    rows = _rows(coloring)
    if coloring.r <= 9:
        return "\n".join("".join(str(c) for c in row) for row in rows) + "\n"
    return "\n".join(" ".join(str(c) for c in row) for row in rows) + "\n"


def render_ppm(coloring: Coloring, scale: int = 1) -> bytes:
    """Binary P6 image, one scale x scale cell per lattice point, of at most
    SIZE_CEILING pixels."""
    if scale < 1:
        raise RenderError(f"scale must be >= 1, got {shown(scale)}")
    rows = _palette_rows(coloring)
    width = len(rows[0]) * scale
    height = len(rows) * scale
    if width * height > SIZE_CEILING:
        raise RenderError(f"a {shown(width)}x{shown(height)} image has more than "
                          f"{SIZE_CEILING} pixels; use a smaller scale")
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    body = bytearray()
    for row in rows:
        line = bytearray()
        for c in row:
            line.extend(bytes(PALETTE[c - 1]) * scale)
        body.extend(line * scale)
    return header + bytes(body)


def render_svg(coloring: Coloring) -> str:
    """Unit squares on a viewBox of N x rows, same palette as PPM."""
    rows = _palette_rows(coloring)
    width, height = len(rows[0]), len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" width="{16 * width}" height="{16 * height}">'
    ]
    for yy, row in enumerate(rows):
        for xx, c in enumerate(row):
            rgb = PALETTE[c - 1]
            parts.append(
                f'<rect x="{xx}" y="{yy}" width="1" height="1" '
                f'fill="#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Rendering certificates to ascii grids, PPM images, and SVG."""

import pytest

from schurlat.errors import RenderError
from schurlat.lattice import Coloring
from schurlat.render import PALETTE, render_ascii, render_ppm, render_svg


def free_three_box() -> Coloring:
    return Coloring.from_function(3, 2, 2, lambda p: 1 if p in ((1, 1), (3, 3)) else 2)


class TestAscii:
    def test_three_box_rows_top_down(self):
        # rows are the first coordinate, printed N..1 (y-axis upward)
        assert render_ascii(free_three_box()) == "221\n222\n122\n"

    def test_single_cell(self):
        assert render_ascii(Coloring.constant(1, 2, 3, color=3)) == "3\n"

    def test_one_dimensional_row(self):
        chi = Coloring(4, 1, 2, (2, 1, 1, 2))
        assert render_ascii(chi) == "2112\n"

    def test_more_than_nine_colors_space_separated(self):
        chi = Coloring(1, 1, 11, (11,))
        assert render_ascii(chi) == "11\n"
        chi = Coloring(2, 1, 10, (1, 10))
        assert render_ascii(chi) == "1 10\n"

    def test_three_dimensional_unsupported(self):
        with pytest.raises(RenderError):
            render_ascii(Coloring.constant(2, 3, 2))


class TestPpm:
    def test_header_and_payload_size(self):
        data = render_ppm(free_three_box())
        assert data.startswith(b"P6\n3 3\n255\n")
        assert len(data) == len(b"P6\n3 3\n255\n") + 3 * 9

    def test_pixel_colors_match_palette(self):
        data = render_ppm(free_three_box())
        body = data[len(b"P6\n3 3\n255\n"):]
        # top-left pixel is point (3, 1): color 2
        assert tuple(body[0:3]) == PALETTE[1]
        # bottom-left pixel is point (1, 1): color 1
        assert tuple(body[-9:-6]) == PALETTE[0]

    def test_scale_multiplies_dimensions(self):
        data = render_ppm(free_three_box(), scale=4)
        assert data.startswith(b"P6\n12 12\n255\n")

    def test_palette_overflow(self):
        chi = Coloring.constant(1, 1, len(PALETTE) + 1, color=13)
        with pytest.raises(RenderError) as err:
            render_ppm(chi)
        assert "ascii" in str(err.value)

    def test_bad_scale(self):
        with pytest.raises(RenderError):
            render_ppm(free_three_box(), scale=0)
        # A 24576x24576 image, over the pixel ceiling: refused, not drawn.
        with pytest.raises(RenderError, match="pixels"):
            render_ppm(free_three_box(), scale=1 << 13)


class TestSvg:
    def test_structure(self):
        text = render_svg(free_three_box())
        assert text.count("<rect") == 9
        assert 'viewBox="0 0 3 3"' in text
        assert text.rstrip().endswith("</svg>")

    def test_fill_colors(self):
        text = render_svg(Coloring.constant(1, 1, 1))
        r, g, b = PALETTE[0]
        assert f'fill="#{r:02x}{g:02x}{b:02x}"' in text

    def test_palette_overflow(self):
        chi = Coloring.constant(1, 1, len(PALETTE) + 1, color=13)
        with pytest.raises(RenderError):
            render_svg(chi)

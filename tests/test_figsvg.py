"""SVG text: titles, axis labels and legend labels are escaped as XML text."""

import numpy as np

from blochrate.figsvg import PlotSeries, render_line_plot


def test_text_is_escaped():
    x = np.linspace(0.0, 1.0, 5)
    svg = render_line_plot([PlotSeries("N<10 & \"m\"", x, x)],
                           title="a & b's <plot>", xlabel="t>0", ylabel="<n>")
    for escaped in ('>a &amp; b\'s &lt;plot&gt;</text>', '>t&gt;0</text>',
                    '>&lt;n&gt;</text>', '>N&lt;10 &amp; "m"</text>'):
        assert escaped in svg
    assert "<plot>" not in svg and "<n>" not in svg

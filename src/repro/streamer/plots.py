"""Gnuplot emitters for the figure CSVs.

The harness stays dependency-free (no matplotlib), but the figures should
still be one command away from pixels: for each figure CSV this module
emits a self-contained gnuplot script reproducing the paper's visual
layout — five subplots (groups 1a–2b), bandwidth vs threads, one style
per memory type (the paper's ▲/●/× convention becomes point types).

    streamer run --figure 8 --out fig8.csv --gnuplot fig8.gp
    gnuplot fig8.gp          # -> fig8_triad.png
"""

from __future__ import annotations

from repro.errors import BenchmarkError
from repro.streamer.configs import FIGURE_KERNELS, test_groups
from repro.streamer.results import ResultSet

#: gnuplot pointtype per paper symbol: ▲ DDR4, ● DDR5, × CXL
_POINT_TYPES = {"▲": 9, "●": 7, "×": 2}
_COLORS = {"▲": "#D97706", "●": "#2563EB", "×": "#DC2626"}


def gnuplot_script(results: ResultSet, figure: int,
                   output_png: str | None = None) -> str:
    """Render one figure's gnuplot script (data inlined, no CSV needed).

    Raises:
        BenchmarkError: the results do not contain this figure's kernel.
    """
    try:
        kernel = FIGURE_KERNELS[figure]
    except KeyError:
        raise BenchmarkError(
            f"figure must be one of {sorted(FIGURE_KERNELS)}, got {figure}"
        ) from None
    if not results.filter(kernel=kernel):
        raise BenchmarkError(f"results contain no {kernel!r} records")

    png = output_png or f"fig{figure}_{kernel}.png"
    groups = test_groups()
    out = [
        f'# Figure {figure}: STREAM {kernel.upper()} — generated by repro',
        "set terminal pngcairo size 1500,900 font 'DejaVu Sans,10'",
        f"set output '{png}'",
        "set multiplot layout 2,3 "
        f"title 'Figure {figure}: {kernel.upper()} bandwidth (GB/s)'",
        "set xlabel 'threads'",
        "set ylabel 'GB/s'",
        "set key left top",
        "set grid",
    ]
    for gid in sorted(groups):
        g = groups[gid]
        out.append(f"set title 'group {gid}: {g.title}'")
        plot_parts = []
        blocks = []
        for s in g.series:
            pts = results.series_curve(s.key, kernel)
            if not pts:
                continue
            pt = _POINT_TYPES.get(s.symbol, 5)
            color = _COLORS.get(s.symbol, "#111111")
            plot_parts.append(
                f"'-' using 1:2 with linespoints pt {pt} lc rgb '{color}' "
                f"title '{s.label}'"
            )
            blocks.append("\n".join(f"{n} {v}" for n, v in pts) + "\ne")
        out.append("plot " + ", \\\n     ".join(plot_parts))
        out.extend(blocks)
    out.append("unset multiplot")
    return "\n".join(out) + "\n"


def write_all_figures(results: ResultSet, directory: str) -> list[str]:
    """Emit one script per figure that has data; returns written paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for figure, kernel in sorted(FIGURE_KERNELS.items()):
        if not results.filter(kernel=kernel):
            continue
        path = os.path.join(directory, f"fig{figure}_{kernel}.gp")
        with open(path, "w") as fh:
            fh.write(gnuplot_script(results, figure))
        written.append(path)
    return written

"""Standalone SVG rendering of figures and Gantt charts.

The environment has no plotting stack, so this module generates
self-contained SVG documents by direct templating — enough to reproduce
the *visual* form of the paper's figures:

* :func:`figure_svg` — Figs. 2-4: one horizontal bar per processor showing
  total time, with the communication window overlaid and the data amount
  as a secondary bar (the figures' second y-axis);
* :func:`gantt_svg` — Fig. 1: per-process idle/receiving/sending/computing
  lanes from a :class:`~repro.simgrid.trace.TraceRecorder`.

Output is valid XML (tests parse it back); colors follow a small built-in
palette; no external resources are referenced, so the files open anywhere.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..simgrid.trace import STATES, TraceRecorder

__all__ = ["figure_svg", "gantt_svg"]

_STATE_COLORS = {
    "idle": "#e8e8e8",
    "receiving": "#4477aa",
    "sending": "#ee6677",
    "computing": "#228833",
}

_BAR_COLOR = "#228833"
_COMM_COLOR = "#4477aa"
_DATA_COLOR = "#ccbb44"
_TEXT = "#222222"
_FONT = "font-family='Helvetica,Arial,sans-serif'"


def _escape(text: str) -> str:
    """XML-escape ``&``, ``<`` and ``>`` in character data.

    The same mapping as ``xml.sax.saxutils.escape``, which is not used
    because importing it loads ``urllib.request`` (and with it ``http``,
    ``ssl`` and ``email``) into every process that imports this package.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _header(width: int, height: int, title: str) -> List[str]:
    return [
        "<?xml version='1.0' encoding='UTF-8'?>",
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<text x='{width // 2}' y='22' text-anchor='middle' {_FONT} "
        f"font-size='15' fill='{_TEXT}'>{_escape(title)}</text>",
    ]


def figure_svg(
    names: Sequence[str],
    total_times: Sequence[float],
    comm_times: Sequence[float],
    counts: Sequence[int],
    *,
    title: str = "",
    width: int = 760,
) -> str:
    """Figs. 2-4 as an SVG bar chart (returns the SVG document string)."""
    if not (len(names) == len(total_times) == len(comm_times) == len(counts)):
        raise ValueError("all series must have the same length")
    n = len(names)
    row_h, top, left = 26, 44, 130
    plot_w = width - left - 160
    height = top + n * row_h + 46
    span = max(total_times) if total_times and max(total_times) > 0 else 1.0
    max_count = max(counts) if counts and max(counts) > 0 else 1

    out = _header(width, height, title)
    for k, (name, total, comm, cnt) in enumerate(
        zip(names, total_times, comm_times, counts)
    ):
        y = top + k * row_h
        bar_w = total / span * plot_w
        comm_w = min(comm / span * plot_w, bar_w)
        data_w = cnt / max_count * plot_w
        out.append(
            f"<text x='{left - 8}' y='{y + 13}' text-anchor='end' {_FONT} "
            f"font-size='11' fill='{_TEXT}'>{_escape(str(name))}</text>"
        )
        # Data amount (thin background bar, the figures' second series).
        out.append(
            f"<rect x='{left}' y='{y + 15}' width='{data_w:.2f}' height='4' "
            f"fill='{_DATA_COLOR}'/>"
        )
        # Total time with the communication prefix overlaid.
        out.append(
            f"<rect x='{left}' y='{y + 2}' width='{bar_w:.2f}' height='12' "
            f"fill='{_BAR_COLOR}'/>"
        )
        if comm_w > 0:
            out.append(
                f"<rect x='{left}' y='{y + 2}' width='{comm_w:.2f}' height='12' "
                f"fill='{_COMM_COLOR}'/>"
            )
        out.append(
            f"<text x='{left + plot_w + 8}' y='{y + 13}' {_FONT} font-size='11' "
            f"fill='{_TEXT}'>{total:.1f}s / {cnt}</text>"
        )
    # Axis line + legend.
    axis_y = top + n * row_h + 6
    out.append(
        f"<line x1='{left}' y1='{axis_y}' x2='{left + plot_w}' y2='{axis_y}' "
        f"stroke='{_TEXT}' stroke-width='1'/>"
    )
    out.append(
        f"<text x='{left}' y='{axis_y + 16}' {_FONT} font-size='10' "
        f"fill='{_TEXT}'>0</text>"
    )
    out.append(
        f"<text x='{left + plot_w}' y='{axis_y + 16}' text-anchor='end' {_FONT} "
        f"font-size='10' fill='{_TEXT}'>{span:.1f}s</text>"
    )
    legend = [
        (_BAR_COLOR, "total time"),
        (_COMM_COLOR, "comm. time"),
        (_DATA_COLOR, "amount of data"),
    ]
    lx = left
    for color, label in legend:
        out.append(
            f"<rect x='{lx}' y='{axis_y + 22}' width='10' height='10' "
            f"fill='{color}'/>"
        )
        out.append(
            f"<text x='{lx + 14}' y='{axis_y + 31}' {_FONT} font-size='10' "
            f"fill='{_TEXT}'>{_escape(label)}</text>"
        )
        lx += 20 + 7 * len(label)
    out.append("</svg>")
    return "\n".join(out)


def gantt_svg(
    recorder: TraceRecorder,
    names: Optional[Sequence[str]] = None,
    *,
    title: str = "",
    width: int = 760,
) -> str:
    """Fig. 1-style Gantt chart of a simulation run as SVG."""
    names = list(names) if names is not None else sorted(recorder.timelines)
    n = len(names)
    row_h, top, left = 22, 44, 130
    plot_w = width - left - 30
    height = top + n * row_h + 52
    span = recorder.makespan or 1.0

    out = _header(width, height, title)
    for k, name in enumerate(names):
        y = top + k * row_h
        out.append(
            f"<text x='{left - 8}' y='{y + 13}' text-anchor='end' {_FONT} "
            f"font-size='11' fill='{_TEXT}'>{_escape(str(name))}</text>"
        )
        out.append(
            f"<rect x='{left}' y='{y + 2}' width='{plot_w}' height='14' "
            f"fill='{_STATE_COLORS['idle']}'/>"
        )
        for iv in recorder.timeline(name).intervals:
            if iv.state == "idle" or iv.duration <= 0:
                continue
            x = left + iv.start / span * plot_w
            w = max(iv.duration / span * plot_w, 0.5)
            out.append(
                f"<rect x='{x:.2f}' y='{y + 2}' width='{w:.2f}' height='14' "
                f"fill='{_STATE_COLORS[iv.state]}'/>"
            )
    axis_y = top + n * row_h + 6
    out.append(
        f"<line x1='{left}' y1='{axis_y}' x2='{left + plot_w}' y2='{axis_y}' "
        f"stroke='{_TEXT}' stroke-width='1'/>"
    )
    out.append(
        f"<text x='{left}' y='{axis_y + 16}' {_FONT} font-size='10' "
        f"fill='{_TEXT}'>0</text>"
    )
    out.append(
        f"<text x='{left + plot_w}' y='{axis_y + 16}' text-anchor='end' {_FONT} "
        f"font-size='10' fill='{_TEXT}'>{span:.4g}s</text>"
    )
    lx = left
    for state in STATES:
        out.append(
            f"<rect x='{lx}' y='{axis_y + 22}' width='10' height='10' "
            f"fill='{_STATE_COLORS[state]}' stroke='#999' stroke-width='0.5'/>"
        )
        out.append(
            f"<text x='{lx + 14}' y='{axis_y + 31}' {_FONT} font-size='10' "
            f"fill='{_TEXT}'>{_escape(state)}</text>"
        )
        lx += 26 + 7 * len(state)
    out.append("</svg>")
    return "\n".join(out)

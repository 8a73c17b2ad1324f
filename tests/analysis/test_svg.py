"""Tests for the SVG renderers (parsed back as XML)."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis import figure_svg, gantt_svg
from repro.simgrid import TraceRecorder

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestFigureSvg:
    def make(self, **kwargs):
        return figure_svg(
            ["caseb", "leda#9", "dinadan"],
            [236.9, 500.1, 501.2],
            [0.5, 1.8, 26.8],
            [51069, 51069, 51068],
            title="Fig. 2",
            **kwargs,
        )

    def test_valid_xml(self):
        root = parse(self.make())
        assert root.tag == f"{SVG_NS}svg"

    def test_title_present(self):
        root = parse(self.make())
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "Fig. 2" in texts

    def test_processor_labels(self):
        root = parse(self.make())
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        for name in ("caseb", "leda#9", "dinadan"):
            assert name in texts

    def test_three_bars_per_processor(self):
        # data bar + total bar + comm bar for each of 3 processors,
        # plus background/legend rects.
        root = parse(self.make())
        rects = list(root.iter(f"{SVG_NS}rect"))
        assert len(rects) >= 3 * 3

    def test_bar_widths_proportional(self):
        svg = figure_svg(["a", "b"], [10.0, 5.0], [0.0, 0.0], [1, 1])
        root = parse(svg)
        bars = [
            r for r in root.iter(f"{SVG_NS}rect")
            if r.get("fill") == "#228833" and r.get("height") == "12"
        ]
        widths = sorted(float(r.get("width")) for r in bars)
        assert widths[1] == pytest.approx(2 * widths[0], rel=1e-6)

    def test_escapes_special_chars(self):
        svg = figure_svg(["a<b>&c"], [1.0], [0.0], [1], title="x & y")
        parse(svg)  # must not raise

    def test_escape_matches_xml_sax(self):
        """The local escape is byte-for-byte ``xml.sax.saxutils.escape``."""
        from xml.sax.saxutils import escape

        label = "a<b>&c &amp; <<&>>"
        svg = figure_svg([label], [1.0], [0.0], [1], title=label)
        assert svg.count(escape(label)) == 2
        assert label not in svg

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            figure_svg(["a"], [1.0, 2.0], [0.0], [1])

    def test_zero_span(self):
        parse(figure_svg(["a"], [0.0], [0.0], [0]))


class TestGanttSvg:
    def make_recorder(self):
        rec = TraceRecorder()
        rec.record("P1", "receiving", 0.0, 1.0)
        rec.record("P1", "computing", 1.0, 4.0)
        rec.record("P4", "sending", 0.0, 2.0)
        rec.record("P4", "computing", 2.0, 5.0)
        return rec

    def test_valid_xml(self):
        svg = gantt_svg(self.make_recorder(), ["P1", "P4"], title="Fig. 1")
        root = parse(svg)
        assert root.tag == f"{SVG_NS}svg"

    def test_state_colors_present(self):
        svg = gantt_svg(self.make_recorder(), ["P1", "P4"])
        assert "#4477aa" in svg  # receiving
        assert "#ee6677" in svg  # sending
        assert "#228833" in svg  # computing

    def test_interval_positions_scale(self):
        rec = self.make_recorder()
        root = parse(gantt_svg(rec, ["P1", "P4"], width=760))
        # P4's sending rect covers 2/5 of the plot width.
        sends = [
            r for r in root.iter(f"{SVG_NS}rect")
            if r.get("fill") == "#ee6677" and r.get("height") == "14"
        ]
        assert len(sends) == 1
        plot_w = 760 - 130 - 30
        assert float(sends[0].get("width")) == pytest.approx(plot_w * 2 / 5, rel=1e-3)

    def test_default_names_sorted(self):
        svg = gantt_svg(self.make_recorder())
        parse(svg)

    def test_empty_recorder(self):
        parse(gantt_svg(TraceRecorder(), ["x"]))

    def test_from_simulated_run(self):
        from repro.core import uniform_counts
        from repro.tomo import run_seismic_app
        from repro.workloads import table1_platform, table1_rank_hosts

        plat = table1_platform()
        hosts = table1_rank_hosts()
        res = run_seismic_app(plat, hosts, uniform_counts(2000, 16))
        svg = gantt_svg(res.run.recorder, res.run.trace_names, title="run")
        root = parse(svg)
        labels = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "dinadan" in labels

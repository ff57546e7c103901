"""Unit tests for ASCII figure rendering."""

from repro.harness.figures import ascii_bar_chart, ascii_stacked_bars


class TestBarChart:
    def test_bars_scale_to_peak(self):
        text = ascii_bar_chart([("a", 10.0), ("b", 5.0)], width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_labels_and_values_present(self):
        text = ascii_bar_chart([("gzip", 38.34)])
        assert "gzip" in text and "38.34" in text

    def test_empty_items(self):
        assert ascii_bar_chart([]) == "(no data)"

    def test_unit_suffix(self):
        assert "cyc" in ascii_bar_chart([("a", 1.0)], unit="cyc")

    def test_zero_values_no_crash(self):
        text = ascii_bar_chart([("a", 0.0)])
        assert "a" in text


class TestStackedBars:
    def test_totals_shown(self):
        text = ascii_stacked_bars(
            ["w1"], {"base": [1.0], "bpred": [0.5]}
        )
        assert "(1.50)" in text

    def test_legend_lists_components(self):
        text = ascii_stacked_bars(["w1"], {"base": [1.0], "other": [0.2]})
        assert "base" in text.splitlines()[-1]
        assert "legend:" in text

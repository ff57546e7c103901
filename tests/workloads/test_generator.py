"""Unit tests for suite-level trace generation."""

from repro.workloads.generator import DEFAULT_SEED, default_suite, suite_traces
from tests.trace.records import records_of


class TestSuiteTraces:
    def test_default_suite_complete(self):
        assert len(default_suite()) == 12

    def test_traces_for_selected_names(self):
        traces = suite_traces(length=500, names=["gzip", "mcf"])
        assert set(traces) == {"gzip", "mcf"}
        assert all(len(t) == 500 for t in traces.values())

    def test_deterministic_per_name(self):
        a = suite_traces(length=300, names=["gcc"])["gcc"]
        b = suite_traces(length=300, names=["gcc"])["gcc"]
        assert records_of(a) == records_of(b)

    def test_names_get_distinct_streams(self):
        traces = suite_traces(length=300, names=["gzip", "bzip2"])
        assert records_of(traces["gzip"]) != records_of(traces["bzip2"])

    def test_seed_changes_stream(self):
        a = suite_traces(length=300, seed=DEFAULT_SEED, names=["vpr"])["vpr"]
        b = suite_traces(length=300, seed=DEFAULT_SEED + 1, names=["vpr"])["vpr"]
        assert records_of(a) != records_of(b)

"""The trace query engine: ColumnarQuery and its run views.

Every query-layer operation the consumers (report, explain, scoring,
serve) rely on, checked against the plain records it was built from.
"""

import pytest

from repro.obs.columnar.query import (
    ColumnarQuery,
    as_query,
    exact_percentile,
    load_query,
)
from repro.obs.columnar.store import ColumnarTrace
from repro.obs.events import compact_json

import numpy as np

RECORDS = [
    {
        "run": 0,
        "tag": ["faults", "aging_onset", "SRAA", 0],
        "seed": 11,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {"arrivals": 3, "avg_response_time": 0.5},
    },
    {
        "ts": 10.0,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.2},
        "run": 0,
    },
    {
        "ts": 20.0,
        "type": "fault.injected",
        "source": "scenario",
        "data": {"kind": "aging"},
        "run": 0,
    },
    {
        "ts": 30.0,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.8},
        "run": 0,
    },
    {
        "ts": 40.0,
        "type": "system.rejuvenation",
        "source": "system",
        "data": {"cause": "policy"},
        "run": 0,
    },
    {
        "run": 1,
        "tag": ["faults", "traffic_surge", "SARAA", 0],
        "seed": 12,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {"arrivals": 1, "avg_response_time": 0.1},
    },
    {
        "ts": 15.0,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.4},
        "run": 1,
    },
    # A flight dump record (no "type"): survives time filters, never
    # kind filters.
    {"run": 1, "reason": "slo_breach", "ts": 25.0, "events": []},
]


@pytest.fixture(params=["records", "columnar"])
def query(request, tmp_path):
    """The one engine, entered from a record list or from a file."""
    if request.param == "records":
        return as_query(RECORDS)
    from repro.obs.columnar.io import write_columnar

    path = str(tmp_path / "t.rcol")
    write_columnar(ColumnarTrace.from_records(RECORDS), path)
    return load_query(path)


def _kept(record, since=None, until=None, kinds=None):
    """The filter semantics, spelled out over one plain record."""
    if record.get("type") == "run.meta":
        return True
    if since is not None and record["ts"] < since:
        return False
    if until is not None and record["ts"] > until:
        return False
    if kinds is not None:
        etype = record.get("type")
        return etype is not None and any(
            etype == kind or etype.startswith(kind + ".") for kind in kinds
        )
    return True


class TestBasics:
    def test_n_records(self, query):
        assert query.n_records == len(RECORDS)

    def test_records_round_trip(self, query):
        assert query.records() == RECORDS

    def test_counts(self, query):
        counts = query.counts()
        assert counts["request.complete"] == 3
        assert counts["run.meta"] == 2
        assert counts["system.rejuvenation"] == 1

    def test_response_times(self, query):
        assert list(query.response_times()) == [0.2, 0.8, 0.4]


class TestOffEnvelopeRecords:
    """Records the encoder stores as opaque rows keep their payload."""

    def complete(self, **overrides):
        record = {
            "ts": 7.0,
            "type": "request.complete",
            "source": "system",
            "data": {"response_time": 0.3},
            "run": 0,
        }
        record.update(overrides)
        return record

    def test_integer_ts_keeps_its_response_time(self):
        query = as_query([self.complete(ts=7)])
        assert list(query.response_times()) == [0.3]
        times, values = query.run_views()[0].completions()
        assert list(times) == [7.0] and list(values) == [0.3]

    def test_other_key_order_keeps_its_response_time(self):
        record = self.complete()
        reordered = {key: record[key] for key in reversed(list(record))}
        query = as_query([record, reordered])
        assert list(query.response_times()) == [0.3, 0.3]

    def test_non_numeric_values_are_skipped(self):
        query = as_query(
            [
                self.complete(ts=1, data={"response_time": True}),
                self.complete(ts=2, data={"response_time": "slow"}),
                self.complete(ts=3, data={}),
                self.complete(ts=4, data={"response_time": 2}),
            ]
        )
        times, values = query.run_views()[0].completions()
        assert list(times) == [4.0] and list(values) == [2.0]


class TestRunViews:
    def test_views_split_by_run(self, query):
        views = query.run_views()
        assert [v.run_id for v in views] == [0, 1]
        assert views[0].n_records == 5
        assert views[1].n_records == 3

    def test_meta_and_counts(self, query):
        view = query.run_views()[0]
        assert view.meta["seed"] == 11
        assert tuple(view.meta["tag"]) == ("faults", "aging_onset", "SRAA", 0)
        assert view.counts()["request.complete"] == 2

    def test_ts_of(self, query):
        view = query.run_views()[0]
        assert view.ts_of("system.rejuvenation") == [40.0]
        assert view.ts_of("request.complete") == [10.0, 30.0]

    def test_completions(self, query):
        times, values = query.run_views()[0].completions()
        assert list(times) == [10.0, 30.0]
        assert list(values) == [0.2, 0.8]

    def test_flight_dumps(self, query):
        views = query.run_views()
        assert views[0].flight_dumps() == []
        dumps = views[1].flight_dumps()
        assert len(dumps) == 1 and dumps[0]["reason"] == "slo_breach"

    def test_max_ts(self, query):
        assert query.run_views()[0].max_ts() == 40.0

    def test_records_filtered_by_type(self, query):
        view = query.run_views()[0]
        picked = view.records(types=("fault.injected", "system.rejuvenation"))
        assert [r["type"] for r in picked] == [
            "fault.injected",
            "system.rejuvenation",
        ]


class TestFiltered:
    def test_time_window(self, query):
        sub = query.filtered(since=15.0, until=35.0)
        # run.meta records are always kept; the typeless dump at 25.0
        # survives a pure time filter.
        kept = sub.records()
        types = [r.get("type") for r in kept]
        assert types.count("run.meta") == 2
        assert "fault.injected" in types
        assert None in types  # the flight dump
        assert all(
            r.get("type") == "run.meta" or 15.0 <= r["ts"] <= 35.0
            for r in kept
        )

    def test_kind_exact_and_prefix(self, query):
        exact = query.filtered(kinds=["request.complete"])
        assert exact.counts() == {"run.meta": 2, "request.complete": 3}
        prefix = query.filtered(kinds=["request"])
        assert prefix.counts() == {"run.meta": 2, "request.complete": 3}
        # "req" is not a dotted prefix -- matches nothing.
        none = query.filtered(kinds=["req"])
        assert none.counts() == {"run.meta": 2}

    def test_kind_filter_drops_typeless(self, query):
        sub = query.filtered(kinds=["fault"])
        assert all("type" in r for r in sub.records())

    def test_combined(self, query):
        sub = query.filtered(since=5.0, until=25.0, kinds=["request.complete"])
        times = [r["ts"] for r in sub.records() if r.get("type") != "run.meta"]
        assert times == [10.0, 15.0]


class TestParity:
    def test_filters_match_the_plain_records(self):
        query = as_query(RECORDS)
        for filters in (
            {},
            {"since": 12.0},
            {"until": 28.0},
            {"kinds": ["system", "fault.injected"]},
            {"since": 5.0, "until": 45.0, "kinds": ["request"]},
        ):
            expected = [r for r in RECORDS if _kept(r, **filters)]
            assert query.filtered(**filters).records() == expected, filters

    def test_binned_percentiles_agree(self):
        for view in as_query(RECORDS).run_views():
            width = 60.0 / 6
            bins = {}
            for r in RECORDS:
                if r.get("run") == view.run_id and r.get("type") == (
                    "request.complete"
                ):
                    index = min(5, int(r["ts"] / width))
                    bins.setdefault(index, []).append(
                        r["data"]["response_time"]
                    )
            expected = [
                (
                    (index + 0.5) * width,
                    exact_percentile(sorted(values), 0.50),
                    exact_percentile(sorted(values), 0.95),
                )
                for index, values in sorted(bins.items())
            ]
            assert view.binned_percentiles(60.0, bins=6) == expected


class TestHelpers:
    def test_as_query_wraps_records(self):
        query = as_query(RECORDS)
        assert isinstance(query, ColumnarQuery)
        assert query.records() == RECORDS

    def test_as_query_passes_queries_through(self):
        query = as_query(RECORDS)
        assert as_query(query) is query

    def test_as_query_wraps_columnar_trace(self):
        trace = ColumnarTrace.from_records(RECORDS)
        assert isinstance(as_query(trace), ColumnarQuery)

    def test_load_query_sniffs_both_formats(self, tmp_path):
        from repro.obs.columnar.io import write_columnar

        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text(
            "".join(compact_json(r) + "\n" for r in RECORDS),
            encoding="utf-8",
        )
        rcol = tmp_path / "t.rcol"
        write_columnar(ColumnarTrace.from_records(RECORDS), str(rcol))
        for path in (jsonl, rcol):
            loaded = load_query(str(path))
            assert isinstance(loaded, ColumnarQuery)
            assert loaded.records() == RECORDS

    def test_exact_percentile_matches_sorted_rank(self):
        values = np.asarray([5.0, 1.0, 3.0, 2.0, 4.0])
        ordered = np.sort(values)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
            assert exact_percentile(ordered, q) == ordered[rank]

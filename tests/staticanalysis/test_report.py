"""StaticReport on demand, result extras, and the cross_check contract."""

import json

import pytest

from repro.api import AnalysisSession
from repro.core import AnalysisConfig
from repro.fpcore import parse_fpcore
from repro.staticanalysis import StaticReport, cross_check, static_report

DSQ = (
    "(FPCore (x y) :name \"dsq\" "
    ":pre (and (<= 1e6 x 1e8) (<= 1e6 y 1e8)) "
    "(- (* x x) (* y y)))"
)


def _session():
    return AnalysisSession(
        config=AnalysisConfig(shadow_precision=128), num_points=4, seed=0
    )


class TestAttach:
    def test_dynamic_run_computes_no_report_but_cross_checks(self):
        core = parse_fpcore(DSQ)
        result = _session().analyze(core)
        assert "static" not in result.extra
        report = static_report(core=core)
        cross_check(report, result.raw.candidate_records())
        assert isinstance(report, StaticReport)
        assert report.program == "dsq"
        assert report.converged
        assert report.agreement is not None

    def test_strip_preserves_other_extra_keys(self):
        result = _session().analyze(parse_fpcore(DSQ))
        result.extra["note"] = "kept"
        assert result.to_dict()["extra"].get("note") == "kept"
        assert "static" not in result.to_dict()["extra"]


class TestRankedLocs:
    def test_threshold_filters_sites(self):
        report = static_report(core=parse_fpcore(DSQ))
        everything = set(report.ranked_locs(threshold=-1.0))
        ranked = set(report.ranked_locs())
        assert ranked <= everything
        assert "dsq.c:3" in ranked  # the cancelling subtraction


class TestCrossCheck:
    def _record(self, loc, bits):
        return type("Rec", (), {"loc": loc, "max_local_error": bits})()

    def test_matched_and_missed(self):
        report = static_report(core=parse_fpcore(DSQ))
        records = [
            self._record("dsq.c:3", 45.0),       # statically ranked
            self._record("nowhere.c:9", 12.0),   # unknown to static
        ]
        agreement = cross_check(report, records)
        assert agreement["matched"] == ["dsq.c:3"]
        assert [m["loc"] for m in agreement["missed"]] == ["nowhere.c:9"]
        assert agreement["fraction"] == pytest.approx(0.5)
        assert report.agreement is agreement

    def test_empty_records_are_vacuously_full_agreement(self):
        report = static_report(core=parse_fpcore(DSQ))
        agreement = cross_check(report, [])
        assert agreement["dynamic_sites"] == 0
        assert agreement["fraction"] == 1.0

    def test_accepts_serialized_record_shape(self):
        report = static_report(core=parse_fpcore(DSQ))
        stats = type("Stats", (), {"max_bits": 30.0})()
        record = type("Rec", (), {"loc": "dsq.c:3", "local_error": stats})()
        agreement = cross_check(report, [record])
        assert agreement["matched"] == ["dsq.c:3"]

    def test_report_round_trips_through_json(self):
        report = static_report(core=parse_fpcore(DSQ))
        cross_check(report, [])
        payload = json.dumps(report.to_dict(), sort_keys=True)
        decoded = json.loads(payload)
        assert decoded["program"] == "dsq"
        assert decoded["agreement"]["fraction"] == 1.0

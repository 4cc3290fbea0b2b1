"""Each program is parsed, printed and compiled once per process.

A core caches its canonical text; ``repro.api.requests.PARSED_CORES``
maps source text to the parsed core; and the worker path
(``session._execute``) compiles through a per-process table keyed by
canonical text.  None of the three may change a digest or a byte, a
source that fails to parse or compile is never cached, and every table
stays within its module-constant bound.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.api.requests as requests_module
import repro.api.session as session_module
from repro.api import AnalysisSession, request_digest
from repro.api.requests import PARSED_CORE_LIMIT, PARSED_CORES, \
    AnalysisRequest, coerce_core
from repro.api.session import WORKER_PROGRAM_LIMIT, _execute
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus, parse_fpcore
from repro.fpcore.parser import FPCoreSyntaxError
from repro.fpcore.printer import format_fpcore
from repro.machine import UnboundVariableError

FAST = AnalysisConfig(shadow_precision=96)
SOURCE = '(FPCore (x) :name "interned" :pre (<= 1 x 2) (- (+ x 1) x))'


@pytest.fixture
def parses(monkeypatch):
    """Counts the calls that reach the FPCore parser."""
    calls = []
    real = requests_module.parse_fpcore

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(requests_module, "parse_fpcore", counting)
    return calls


@pytest.fixture
def compiles(monkeypatch):
    """Counts worker-path compilations, starting from an empty table."""
    calls = []
    real = session_module.compile_fpcore

    def counting(core, *args, **kwargs):
        calls.append(core)
        return real(core, *args, **kwargs)

    monkeypatch.setattr(session_module, "compile_fpcore", counting)
    monkeypatch.setattr(session_module, "_WORKER_PROGRAMS", {})
    return calls


class TestCanonicalText:
    def test_corpus_text_and_digest_match_a_fresh_parse(self):
        for core in load_corpus():
            text = core.canonical_text
            assert text == format_fpcore(core), core.name
            assert str(core) == text
            fresh = parse_fpcore(format_fpcore(core))
            assert "canonical_text" not in fresh.__dict__
            assert request_digest(AnalysisRequest(core=core, seed=3)) == \
                request_digest(AnalysisRequest(core=fresh, seed=3)), \
                core.name

    def test_cache_is_invisible_to_eq_hash_and_repr(self):
        core = parse_fpcore(SOURCE)
        twin = parse_fpcore(SOURCE)
        before = (hash(core), repr(core))
        core.canonical_text  # noqa: B018 — fill the cache
        assert "canonical_text" in core.__dict__
        assert (hash(core), repr(core)) == before
        assert core == twin and hash(core) == hash(twin)

    def test_replace_drops_the_cached_text(self):
        core = parse_fpcore(SOURCE)
        core.canonical_text  # noqa: B018
        renamed = dataclasses.replace(core, name="other")
        assert "canonical_text" not in renamed.__dict__
        assert renamed.canonical_text == format_fpcore(renamed)
        assert renamed.canonical_text != core.canonical_text


class TestParseTable:
    def test_repeat_source_is_parsed_once(self, parses):
        source = SOURCE.replace("interned", "parsed-once")
        first = coerce_core(source)
        hits = PARSED_CORES.hits
        again = AnalysisRequest.from_dict({"core": source}).core
        assert again is first
        assert parses == [source]
        assert PARSED_CORES.hits == hits + 1

    def test_failed_parse_is_never_cached(self, parses):
        bad = "(FPCore (x) (+ x"
        for _ in range(2):
            with pytest.raises(FPCoreSyntaxError):
                coerce_core(bad)
        assert parses == [bad, bad]
        assert bad not in PARSED_CORES._cores

    def test_non_text_core_gets_the_parser_error(self, parses):
        with pytest.raises(Exception) as caught:
            AnalysisRequest.from_dict({"core": ["not", "text"]})
        assert not isinstance(caught.value, KeyError)
        assert len(parses) == 1

    def test_table_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(PARSED_CORES, "limit", 4)
        for index in range(11):
            coerce_core(f"(FPCore (x) (+ x {index}))")
            assert len(PARSED_CORES._cores) <= 4
        assert PARSED_CORES.stats()["entries"] <= 4
        assert PARSED_CORE_LIMIT >= 1


class TestWorkerCompileTable:
    def test_seeds_of_one_program_compile_once(self, compiles):
        session = AnalysisSession(config=FAST, num_points=3)
        requests = [session.request(SOURCE, seed=seed)
                    for seed in range(1, 5)]
        expected = [session.analyze(r).to_json() for r in requests]
        compiles.clear()  # the session compiled it through its own cache
        served = [
            _execute(AnalysisRequest.from_dict(r.to_dict())).to_json()
            for r in requests
        ]
        assert served == expected
        assert len(compiles) == 1

    def test_failed_compile_is_never_cached(self, compiles):
        request = AnalysisRequest.build("(FPCore (x) (+ x y))")
        for _ in range(2):
            with pytest.raises(UnboundVariableError):
                _execute(request)
        assert len(compiles) == 2
        assert session_module._WORKER_PROGRAMS == {}

    def test_table_stays_within_its_bound(self, compiles, monkeypatch):
        monkeypatch.setattr(session_module, "WORKER_PROGRAM_LIMIT", 3)
        for index in range(7):
            session_module._worker_program(
                parse_fpcore(f"(FPCore (x) (* x {index}))")
            )
            assert len(session_module._WORKER_PROGRAMS) <= 3
        assert WORKER_PROGRAM_LIMIT >= 1

    def test_same_body_with_different_names_compiles_apart(self, compiles):
        # The name labels the program's locations; a name with a space
        # in it travels as the :name property, so the text keys it.
        core = parse_fpcore("(FPCore (x) (+ x 1))")
        first = dataclasses.replace(core, name="a b")
        second = dataclasses.replace(core, name="c d")
        assert first.canonical_text != second.canonical_text
        assert session_module._worker_program(first) is not \
            session_module._worker_program(second)
        assert session_module._worker_program(first) is \
            session_module._worker_program(first)
        assert len(compiles) == 2


#: One body under two names that are not FPCore symbols.
BODY = parse_fpcore("(FPCore (x) :pre (<= 1 x 2) (- (sqrt (+ x 1)) (sqrt x)))")
NAMED = [dataclasses.replace(BODY, name=name)
         for name in ("first prog", "second prog")]


class TestNamesWithSpaces:
    """A name that is not a symbol prints as the :name property, so two
    such names never share a canonical text, a digest or a program."""

    def test_name_prints_as_the_name_property(self):
        first, second = NAMED
        assert ':name "first prog"' in first.canonical_text
        assert first.canonical_text != second.canonical_text
        reparsed = parse_fpcore(first.canonical_text)
        assert reparsed.name == "first prog"
        assert reparsed.canonical_text == first.canonical_text

    def _check(self, results):
        for core, result in zip(NAMED, results):
            assert result.benchmark == core.name
            text = result.to_json()
            other = ({c.name for c in NAMED} - {core.name}).pop()
            assert f"{core.name}.c:" in text
            assert other not in text

    def test_caching_session_keeps_each_name(self):
        session = AnalysisSession(config=FAST, num_points=3)
        digests = {request_digest(session.request(core)) for core in NAMED}
        assert len(digests) == 2
        self._check([session.analyze(core) for core in NAMED])
        assert session.result_hits == 0

    def test_uncached_session_keeps_each_name(self):
        session = AnalysisSession(config=FAST, num_points=3,
                                  result_cache_size=0)
        self._check([session.analyze(core) for core in NAMED])
        assert session.cache_stats()["programs"] == 2

    def test_worker_batch_matches_in_process(self):
        session = AnalysisSession(config=FAST, num_points=3,
                                  result_cache_size=0)
        parallel = session.analyze_batch(NAMED, workers=2)
        self._check(parallel)
        sequential = session.analyze_batch(NAMED, workers=1)
        assert [r.to_json() for r in parallel] == \
            [r.to_json() for r in sequential]

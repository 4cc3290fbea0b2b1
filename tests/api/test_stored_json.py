"""Result serialization without ``dataclasses.asdict``, and results
served from their stored bytes.

The explicit ``to_dict``/``config_to_dict`` functions are checked
against the ``asdict`` forms they replaced, on instances with every
field set, so a field added later cannot be silently dropped.  A
result read from or written to a store serializes as the stored text;
the slow path (``from_dict`` + ``to_dict``) is checked against those
bytes for the whole corpus.
"""

import dataclasses
import json
import os

import pytest

from repro.api import (
    AnalysisResult,
    AnalysisSession,
    ErrorStats,
    RootCauseResult,
    SpotResult,
    request_digest,
)
from repro.api.requests import config_to_dict
from repro.api.session import ResultCache, payload_digest
from repro.api.store import ShardedResultStore
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus

ERRONEOUS = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
FAST = AnalysisConfig(shadow_precision=192)
CORPUS_CONFIG = AnalysisConfig(shadow_precision=256)


def _stats(seed):
    return ErrorStats(executions=seed, erroneous=seed - 1,
                      max_bits=seed + 0.5, average_bits=seed + 0.25)


def _cause():
    return RootCauseResult(
        site_id=3, op="-", loc="b.c:1", expression="(- (+ x0 1) x0)",
        variables=["x0", "y0"],
        precondition_clauses=["(<= 1 x0 2)", "(<= 0 y0 1)"],
        problematic_clauses=["(<= 1.5 x0 2)"],
        example_problematic={"x0": 1.5, "y0": 0.25},
        compensations_detected=2, local_error=_stats(9),
    )


def _spot():
    return SpotResult(site_id=5, kind="output", loc="b.c:out",
                      error=_stats(7), root_cause_sites=[3, 4])


def _assert_every_field_set(instance):
    for spec in dataclasses.fields(instance):
        default = (spec.default_factory()
                   if spec.default_factory is not dataclasses.MISSING
                   else spec.default)
        assert getattr(instance, spec.name) != default, spec.name


class TestExplicitToDict:
    @pytest.mark.parametrize("make", [lambda: _stats(4), _cause, _spot],
                             ids=["ErrorStats", "RootCauseResult",
                                  "SpotResult"])
    def test_matches_asdict_on_a_fully_populated_instance(self, make):
        instance = make()
        _assert_every_field_set(instance)
        assert instance.to_dict() == dataclasses.asdict(instance)

    def test_cause_dict_does_not_alias_the_instance(self):
        cause = _cause()
        data = cause.to_dict()
        data["variables"].append("z")
        data["precondition_clauses"].clear()
        data["problematic_clauses"].clear()
        data["example_problematic"]["x0"] = 0.0
        assert cause == _cause()

    def test_spot_dict_does_not_alias_the_instance(self):
        spot = _spot()
        spot.to_dict()["root_cause_sites"].append(9)
        assert spot == _spot()

    def test_absent_example_stays_none(self):
        cause = dataclasses.replace(_cause(), example_problematic=None)
        assert cause.to_dict() == dataclasses.asdict(cause)


class TestConfigToDict:
    #: The plan switches default from the environment.
    DEFAULT = AnalysisConfig()
    #: Every field away from its default, the optional ones set.
    FULL = AnalysisConfig(
        shadow_precision=512, engine="reference",
        precision_policy="adaptive", substrate="python",
        working_precision=160, escalation_guard_bits=24,
        local_error_threshold=3.5, output_error_threshold=2.5,
        max_expression_depth=7, equivalence_depth=3,
        input_characteristics="range", detect_compensation=False,
        track_influences=False, hw_tier=not DEFAULT.hw_tier,
        batched=not DEFAULT.batched, deadline_seconds=12.5,
        op_budget=10 ** 6,
    )

    def test_fully_set_config_matches_asdict(self):
        _assert_every_field_set(self.FULL)
        assert config_to_dict(self.FULL) == dataclasses.asdict(self.FULL)

    def test_default_config_omits_only_unset_guards(self):
        # The plan switches are always shipped (a worker runs the plan
        # it was asked for); only the unset guards stay out.
        config = AnalysisConfig()
        expected = {name: value
                    for name, value in dataclasses.asdict(config).items()
                    if value is not None}
        assert config_to_dict(config) == expected
        assert {"hw_tier", "batched"} <= set(config_to_dict(config))
        assert not {"deadline_seconds", "op_budget"} \
            & set(config_to_dict(config))

    def test_payload_digest_matches_and_leaves_payload_alone(self):
        request = AnalysisSession(config=self.FULL).request(ERRONEOUS)
        payload = request.to_dict()
        before = json.dumps(payload, sort_keys=True)
        assert payload_digest(payload) == request_digest(request)
        assert json.dumps(payload, sort_keys=True) == before


class TestStoredText:
    def test_from_json_binds_no_text(self):
        text = AnalysisSession(config=FAST, num_points=4) \
            .analyze(ERRONEOUS).to_json()
        assert AnalysisResult.from_json(text).stored_json is None

    def test_put_and_get_bind_the_stored_bytes(self, tmp_path):
        cache = ResultCache(capacity=0, cache_dir=str(tmp_path))
        result = AnalysisSession(config=FAST, num_points=4) \
            .analyze(ERRONEOUS)
        digest = "a" * 64
        cache.put(digest, result)
        stored = cache.store.get_text(digest)
        assert result.stored_json == stored
        hit = cache.get(digest)
        assert hit is not result
        assert hit.stored_json == stored
        assert hit.to_json() == stored
        assert hit == result
        assert "stored_json" not in repr(hit)

    def test_other_indents_reserialize(self, tmp_path):
        cache = ResultCache(capacity=0, cache_dir=str(tmp_path))
        cache.put("b" * 64, AnalysisSession(config=FAST, num_points=4)
                  .analyze(ERRONEOUS))
        hit = cache.get("b" * 64)
        assert hit.to_json(indent=None) == json.dumps(
            hit.to_dict(), indent=None, sort_keys=True)

    def test_replace_does_not_carry_the_text(self, tmp_path):
        cache = ResultCache(capacity=0, cache_dir=str(tmp_path))
        cache.put("c" * 64, AnalysisSession(config=FAST, num_points=4)
                  .analyze(ERRONEOUS))
        hit = cache.get("c" * 64)
        changed = dataclasses.replace(hit, seed=hit.seed + 1)
        assert changed.stored_json is None
        assert json.loads(changed.to_json())["seed"] == hit.seed + 1

    def test_wrong_shape_entry_is_quarantined_and_misses(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = "d" * 64
        store.put_text(digest, json.dumps({"benchmark": "t"}))
        cache = ResultCache(capacity=0, cache_dir=str(tmp_path))
        assert cache.get(digest) is None
        assert os.path.exists(store.path(digest) + ".quarantine")
        stats = cache.store.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        assert (stats["corrupt"], stats["quarantined"]) == (1, 1)


class TestCorpusStoreBytes:
    def test_store_bound_results_match_the_slow_path(self, tmp_path):
        """Every corpus program at 8 points: the bytes a warm hit
        serves equal a full decode and re-serialization of them."""
        cores = load_corpus()
        cache_dir = str(tmp_path)

        def session():
            return AnalysisSession(config=CORPUS_CONFIG, num_points=8,
                                   seed=7, result_cache_size=0,
                                   cache_dir=cache_dir)

        cold = session()
        cold_texts = [cold.analyze(core).to_json() for core in cores]
        warm = session()
        for core, cold_text in zip(cores, cold_texts):
            result = warm.analyze(core)
            text = result.stored_json
            assert text is not None, core.name
            slow = AnalysisResult.from_dict(json.loads(text)).to_json()
            assert result.to_json() == slow, core.name
            assert slow == cold_text, core.name
        assert (warm.result_hits, warm.result_misses) == (len(cores), 0)

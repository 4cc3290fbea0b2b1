"""The transport-free serving core: warm layers, in-flight dedupe,
structured errors, and batch fan-out — driven directly as coroutines."""

import asyncio
import importlib.util
import json
import logging

import pytest

import repro.api.requests as requests_module
from repro.api import AnalysisSession, request_digest
from repro.api.requests import PARSED_CORE_LIMIT, PARSED_CORES
from repro.api.store import ShardedResultStore
from repro.bigfloat import backend as backend_mod
from repro.core import AnalysisConfig
from repro.serve.pool import WorkerPool
from repro.serve.service import AnalysisService

CORE = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
CLEAN = "(FPCore (x) :name \"ok\" :pre (<= 1 x 2) (+ x 1))"
CRASH = "(FPCore (x) :name \"crash-me\" :pre (<= 1 x 2) (+ x 1))"
FAST = AnalysisConfig(shadow_precision=96)


def _request(core=CORE, **overrides):
    session = AnalysisSession(config=FAST, num_points=3)
    return session.request(core, **overrides)


def _expected_json(request):
    return AnalysisSession(config=FAST, num_points=3).analyze(
        request
    ).to_json()


async def _closed(service, coro):
    try:
        return await coro
    finally:
        await service.close()


class TestSinglePath:
    def test_cold_then_memory_then_store(self, tmp_path):
        request = _request()
        expected = _expected_json(request)

        async def scenario():
            store = ShardedResultStore(str(tmp_path))
            service = AnalysisService(store=store, workers=1)
            first = await service.analyze_payload(request.to_dict())
            second = await service.analyze_payload(request.to_dict())
            await service.close()
            # A different process over the same store dir: warm.
            fresh = AnalysisService(store=ShardedResultStore(
                str(tmp_path)), workers=1)
            third = await fresh.analyze_payload(request.to_dict())
            await fresh.close()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert (first.status, first.source) == (200, "computed")
        assert first.digest == request_digest(request)
        assert first.body == expected  # byte-identical to in-process
        assert (second.status, second.source) == (200, "memory")
        assert second.body == expected
        assert (third.status, third.source) == (200, "store")
        assert third.body == expected

    def test_invalid_request_is_structured_400(self):
        async def scenario():
            service = AnalysisService(workers=1)
            return await _closed(
                service, service.analyze_payload({"core": "(not fpcore"})
            )

        outcome = asyncio.run(scenario())
        assert outcome.status == 400
        assert json.loads(outcome.body)["error"]["type"] == \
            "invalid_request"

    def test_too_deeply_nested_core_is_structured_400(self):
        depth = 2000
        core = ("(FPCore (x) :pre (<= 1 x 2) "
                + "(+ 1 " * depth + "x" + ")" * depth + ")")

        async def scenario():
            service = AnalysisService(workers=1)
            outcome = await _closed(
                service, service.analyze_payload({"core": core})
            )
            return outcome, service.counters

        outcome, counters = asyncio.run(scenario())
        assert outcome.status == 400
        error = json.loads(outcome.body)["error"]
        assert error["type"] == "invalid_request"
        assert "FPCoreSyntaxError" in error["message"]
        assert counters.invalid == 1 and counters.computed == 0

    def test_unbound_variable_is_structured_400_with_digest(self):
        # Parses as a request but the compiler rejects the free `y`: a
        # client error, answered once and never retried.
        bad = {"core": "(FPCore (x) (+ x y))", "num_points": 2,
               "config": {"shadow_precision": 96}}

        async def scenario():
            service = AnalysisService(workers=1)
            outcome = await _closed(service, service.analyze_payload(bad))
            return outcome, service.counters

        outcome, counters = asyncio.run(scenario())
        assert outcome.status == 400
        error = json.loads(outcome.body)["error"]
        assert error["type"] == "invalid_request"
        assert error["digest"] == outcome.digest
        assert "UnboundVariableError" in error["message"]
        assert "unbound variable y" in error["message"]
        assert counters.invalid == 1 and counters.analysis_errors == 0

    def test_analysis_failure_is_structured_500_with_digest(
        self, broken_backend
    ):
        # A valid request whose analysis raises a non-input error.
        bad = {"core": CLEAN, "num_points": 2, "backend": broken_backend,
               "config": {"shadow_precision": 96}}

        async def scenario():
            service = AnalysisService(workers=1)
            return await _closed(service, service.analyze_payload(bad))

        outcome = asyncio.run(scenario())
        assert outcome.status == 500
        error = json.loads(outcome.body)["error"]
        assert error["type"] == "analysis_error"
        assert error["digest"] == outcome.digest
        assert error["message"] == "RuntimeError: backend exploded"

    def test_adaptive_post_is_a_memory_hit_after_a_fixed_post(self):
        # The precision policy is part of the execution plan, which the
        # digest leaves out: one entry answers both plans.
        fixed = _request()
        adaptive = _request(config=FAST.with_(precision_policy="adaptive"))
        assert adaptive.to_dict() != fixed.to_dict()

        async def scenario():
            service = AnalysisService(workers=1)
            first = await service.analyze_payload(fixed.to_dict())
            second = await service.analyze_payload(adaptive.to_dict())
            await service.close()
            return first, second, service.counters

        first, second, counters = asyncio.run(scenario())
        assert (first.status, first.source) == (200, "computed")
        assert (second.status, second.source) == (200, "memory")
        assert second.digest == first.digest
        assert second.body == first.body
        assert counters.computed == 1

    def test_spent_op_budget_is_structured_422_and_not_quarantined(self):
        # Deterministic: every rerun spends the same budget, so it is
        # neither an analysis error nor a poison request.
        spent = _request(config=FAST.with_(op_budget=1))
        requests = 4  # one past the default poison threshold

        async def scenario():
            service = AnalysisService(workers=1)
            outcomes = []
            for _ in range(requests):
                outcomes.append(
                    await service.analyze_payload(spent.to_dict())
                )
            await service.close()
            return outcomes, service

        outcomes, service = asyncio.run(scenario())
        for outcome in outcomes:
            assert outcome.status == 422
            error = json.loads(outcome.body)["error"]
            assert error["type"] == "op_budget_exceeded"
            assert error["digest"] == outcome.digest == request_digest(spent)
        counters = service.counters
        assert counters.op_budget_exceeded == requests
        assert counters.analysis_errors == 0 and counters.quarantined == 0
        assert service.stats()["quarantined_digests"] == 0

    def test_lookup_digest(self, tmp_path):
        request = _request()

        async def scenario():
            service = AnalysisService(
                store=ShardedResultStore(str(tmp_path)), workers=1
            )
            computed = await service.analyze_payload(request.to_dict())
            hit = service.lookup_digest(computed.digest)
            miss = service.lookup_digest("0" * 64)
            bad = service.lookup_digest("nope")
            await service.close()
            return computed, hit, miss, bad

        computed, hit, miss, bad = asyncio.run(scenario())
        assert hit.status == 200 and hit.body == computed.body
        assert miss.status == 404
        assert json.loads(miss.body)["error"]["type"] == "not_found"
        assert bad.status == 400


class TestDedupe:
    def test_concurrent_identical_requests_compute_once(self):
        request = _request()
        n = 8

        async def scenario():
            service = AnalysisService(workers=2)
            outcomes = await asyncio.gather(*(
                service.analyze_payload(request.to_dict())
                for _ in range(n)
            ))
            counters = service.counters
            await service.close()
            return outcomes, counters

        outcomes, counters = asyncio.run(scenario())
        assert all(o.status == 200 for o in outcomes)
        assert len({o.body for o in outcomes}) == 1
        assert counters.computed == 1  # exactly one computation
        assert counters.dedupe_hits == n - 1
        sources = sorted(o.source for o in outcomes)
        assert sources.count("computed") == 1
        assert sources.count("dedupe") == n - 1

    def test_waiters_see_the_failure_too(self, broken_backend):
        bad = {"core": CLEAN, "num_points": 2, "backend": broken_backend,
               "config": {"shadow_precision": 96}}

        async def scenario():
            service = AnalysisService(workers=1)
            outcomes = await asyncio.gather(*(
                service.analyze_payload(dict(bad)) for _ in range(4)
            ))
            counters = service.counters
            await service.close()
            return outcomes, counters

        outcomes, counters = asyncio.run(scenario())
        assert all(o.status == 500 for o in outcomes)
        assert counters.analysis_errors == 1  # one run, shared outcome


class TestBatch:
    def test_batch_mixed_warm_duplicate_and_invalid(self, tmp_path):
        erroneous = _request()
        clean = _request(CLEAN)
        expected = _expected_json(erroneous)

        async def scenario():
            service = AnalysisService(
                store=ShardedResultStore(str(tmp_path)), workers=2
            )
            await service.analyze_payload(erroneous.to_dict())  # pre-warm
            outcome = await service.analyze_batch_payload({
                "requests": [
                    erroneous.to_dict(),     # warm
                    clean.to_dict(),         # cold
                    clean.to_dict(),         # duplicate of the cold one
                    {"core": "(broken"},     # invalid
                ],
            })
            counters = service.counters
            await service.close()
            return outcome, counters

        outcome, counters = asyncio.run(scenario())
        envelope = json.loads(outcome.body)
        assert outcome.status == 207  # one entry failed
        assert envelope["count"] == 4 and envelope["errors"] == 1
        results = envelope["results"]
        assert json.dumps(results[0], indent=2, sort_keys=True) == expected
        assert results[1] == results[2]  # duplicate computed once
        assert results[3]["error"]["type"] == "invalid_request"
        assert counters.computed == 2  # the pre-warm + the clean core
        assert counters.dedupe_hits == 1

    def test_spent_op_budget_is_a_422_entry(self):
        spent = _request(config=FAST.with_(op_budget=1))
        clean = _request(CLEAN)

        async def scenario():
            service = AnalysisService(workers=1)
            outcome = await service.analyze_batch_payload(
                {"requests": [spent.to_dict(), clean.to_dict()]}
            )
            await service.close()
            return outcome, service.counters

        outcome, counters = asyncio.run(scenario())
        envelope = json.loads(outcome.body)
        assert outcome.status == 207 and envelope["errors"] == 1
        error = envelope["results"][0]["error"]
        assert error["type"] == "op_budget_exceeded"
        assert error["digest"] == request_digest(spent)
        assert envelope["results"][1]["benchmark"] == "ok"
        assert counters.op_budget_exceeded == 1
        assert counters.analysis_errors == 0

    def test_batch_entries_steal_across_workers(self):
        requests = [_request(CLEAN, seed=i) for i in range(6)]

        async def scenario():
            service = AnalysisService(workers=2)
            outcome = await service.analyze_batch_payload(
                {"requests": [r.to_dict() for r in requests]}
            )
            pool_stats = service.pool.stats()
            await service.close()
            return outcome, pool_stats

        outcome, pool_stats = asyncio.run(scenario())
        envelope = json.loads(outcome.body)
        assert outcome.status == 200 and envelope["errors"] == 0
        # One pool task per request, drained through the shared queue.
        assert pool_stats["completed"] == 6
        session = AnalysisSession(config=FAST, num_points=3)
        for request, entry in zip(requests, envelope["results"]):
            assert json.dumps(entry, indent=2, sort_keys=True) == \
                session.analyze(request).to_json()

    def test_batch_rejects_malformed_envelope(self):
        async def scenario():
            service = AnalysisService(workers=1)
            outcome = await service.analyze_batch_payload({"nope": []})
            await service.close()
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome.status == 400
        assert json.loads(outcome.body)["error"]["type"] == \
            "invalid_request"

    def test_batches_and_single_for_one_digest_compute_once(self):
        request = _request(seed=41)
        expected = _expected_json(request)

        async def scenario():
            service = AnalysisService(workers=2)
            outcomes = await asyncio.gather(
                service.analyze_batch_payload(
                    {"requests": [request.to_dict()]}),
                service.analyze_batch_payload(
                    {"requests": [request.to_dict()]}),
                service.analyze_payload(request.to_dict()),
            )
            await service.close()
            return outcomes, service.counters

        (first, second, single), counters = asyncio.run(scenario())
        assert counters.computed == 1
        assert counters.dedupe_hits == 2
        assert single.status == 200 and single.body == expected
        for batch in (first, second):
            [entry] = json.loads(batch.body)["results"]
            assert json.dumps(entry, indent=2, sort_keys=True) == expected

    def test_crash_is_charged_to_its_own_entry(self, selective_worker):
        # No memory layer: every batch recomputes its clean entries, so
        # each send puts all four requests on the pool.
        clean = [_request(CLEAN, seed=i) for i in range(3)]
        batch = {"requests": [_request(CRASH).to_dict()]
                 + [r.to_dict() for r in clean]}
        threshold = 3

        async def scenario():
            service = AnalysisService(
                pool=WorkerPool(workers=1, worker_main=selective_worker),
                memory_cache_size=0, poison_threshold=threshold,
            )
            envelopes = []
            for _ in range(threshold):
                outcome = await service.analyze_batch_payload(batch)
                envelopes.append(json.loads(outcome.body))
            single = await service.analyze_payload(clean[0].to_dict())
            stats = service.stats()
            await service.close()
            return envelopes, single, stats

        envelopes, single, stats = asyncio.run(scenario())
        for envelope in envelopes:
            assert envelope["errors"] == 1
            assert envelope["results"][0]["error"]["type"] == \
                "worker_crashed"
            for request, entry in zip(clean, envelope["results"][1:]):
                assert json.dumps(entry, indent=2, sort_keys=True) == \
                    _expected_json(request)
        assert single.status == 200
        assert stats["quarantined_digests"] == 1
        assert stats["service"]["crashes"] == threshold
        assert stats["service"]["computed"] == 3 * threshold + 1

    def test_batch_larger_than_the_queue_is_not_shed(self):
        # A body that still names the retired shard_size is answered as
        # if the key were absent: one task per entry, through the gate.
        requests = [_request(CLEAN, seed=100 + i) for i in range(6)]

        async def scenario():
            service = AnalysisService(workers=1, queue_limit=1)
            outcome = await service.analyze_batch_payload({
                "requests": [r.to_dict() for r in requests],
                "shard_size": 1,
            })
            await service.close()
            return outcome, service.counters

        outcome, counters = asyncio.run(scenario())
        envelope = json.loads(outcome.body)
        assert outcome.status == 200
        assert (envelope["count"], envelope["errors"]) == (6, 0)
        assert counters.rejected == 0 and counters.computed == 6


class TestParseFreeHits:
    """A program the process has seen is never parsed again."""

    def test_hits_and_new_seeds_skip_the_parser(self, monkeypatch):
        source = CORE.replace('"t"', '"parse-free"')
        first = _request(source)
        reseeded = _request(source, seed=99)
        expected = [_expected_json(first), _expected_json(reseeded)]

        def refuse(text):
            raise AssertionError("the parser was reached")

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                cold = await service.analyze_payload(first.to_dict())
                monkeypatch.setattr(requests_module, "parse_fpcore",
                                    refuse)
                hit = await service.analyze_payload(first.to_dict())
                fresh = await service.analyze_payload(reseeded.to_dict())
                return cold, hit, fresh, service.stats()
            finally:
                await service.close()

        cold, hit, fresh, stats = asyncio.run(scenario())
        assert (cold.status, cold.source) == (200, "computed")
        assert (hit.status, hit.source) == (200, "memory")
        assert (fresh.status, fresh.source) == (200, "computed")
        assert [hit.body, fresh.body] == expected
        assert stats["programs"]["hits"] >= 2
        assert stats["programs"]["entries"] <= \
            stats["programs"]["capacity"] == PARSED_CORE_LIMIT

    def test_malformed_body_reaches_the_parser_every_time(
        self, monkeypatch
    ):
        calls = []
        real = requests_module.parse_fpcore

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(requests_module, "parse_fpcore", counting)
        bad = {"core": "(FPCore (x) (+ x 1)"}

        async def scenario():
            service = AnalysisService(workers=1)
            return await _closed(service, asyncio.gather(
                service.analyze_payload(dict(bad)),
                service.analyze_payload(dict(bad)),
            ))

        outcomes = asyncio.run(scenario())
        assert [o.status for o in outcomes] == [400, 400]
        assert calls == [bad["core"], bad["core"]]
        assert len(PARSED_CORES._cores) <= PARSED_CORE_LIMIT
        assert bad["core"] not in PARSED_CORES._cores


class TestBodyTable:
    """A repeated request body maps straight to its digest."""

    @staticmethod
    def _body(request, **dumps):
        return json.dumps(request.to_dict(), **dumps).encode("utf-8")

    def test_repeat_skips_decoding_and_the_parser(self, monkeypatch):
        request = _request(CORE.replace('"t"', '"body-table"'))
        body = self._body(request)
        expected = _expected_json(request)

        def refuse(*args, **kwargs):
            raise AssertionError("the body was decoded")

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                cold = await service.analyze_payload(body)
                monkeypatch.setattr(json, "loads", refuse)
                monkeypatch.setattr(requests_module, "parse_fpcore",
                                    refuse)
                hits = [await service.analyze_payload(body)
                        for _ in range(2)]
                monkeypatch.undo()
                return cold, hits, service.stats()["bodies"]
            finally:
                await service.close()

        cold, hits, bodies = asyncio.run(scenario())
        assert (cold.status, cold.source) == (200, "computed")
        assert cold.body == expected
        for hit in hits:
            assert (hit.status, hit.source) == (200, "memory")
            assert hit.digest == cold.digest == request_digest(request)
            assert hit.body == expected
        assert bodies == {"entries": 1, "capacity": 512,
                          "hits": 2, "misses": 1}

    def test_respelled_body_is_a_new_entry_and_a_memory_hit(self):
        request = _request()
        compact = self._body(request)
        respelled = self._body(request, indent=1, sort_keys=True)
        assert respelled != compact

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                first = await service.analyze_payload(compact)
                second = await service.analyze_payload(respelled)
                return first, second, service.stats()
            finally:
                await service.close()

        first, second, stats = asyncio.run(scenario())
        assert (first.source, second.source) == ("computed", "memory")
        assert second.digest == first.digest
        assert second.body == first.body
        assert stats["bodies"]["entries"] == 2
        assert stats["bodies"]["hits"] == 0
        assert stats["service"]["memory_hits"] == 1

    def test_malformed_body_never_enters_the_table(self):
        bodies = [b"{not json", b"\xff\xfe",
                  b'{"core": "(FPCore (x) (+ x 1)"}', b"[]"]

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                outcomes = [await service.analyze_payload(body)
                            for body in bodies for _ in range(2)]
                return outcomes, service.stats()
            finally:
                await service.close()

        outcomes, stats = asyncio.run(scenario())
        assert [o.status for o in outcomes] == [400] * 8
        types = [json.loads(o.body)["error"]["type"] for o in outcomes]
        assert types == ["invalid_json"] * 4 + ["invalid_request"] * 4
        assert stats["bodies"]["entries"] == 0
        assert stats["bodies"]["hits"] == 0
        assert stats["service"]["requests"] == 8
        assert stats["service"]["invalid"] == 8

    def test_table_is_bounded_by_memory_cache_size(self):
        requests = [_request(CLEAN, seed=seed) for seed in range(3)]

        async def scenario(size):
            service = AnalysisService(workers=1, memory_cache_size=size)
            try:
                for request in requests + requests[-1:]:
                    await service.analyze_payload(self._body(request))
                return service.stats()["bodies"]
            finally:
                await service.close()

        bounded = asyncio.run(scenario(2))
        assert (bounded["entries"], bounded["capacity"]) == (2, 2)
        assert (bounded["hits"], bounded["misses"]) == (1, 3)
        assert asyncio.run(scenario(0)) == {
            "entries": 0, "capacity": 0, "hits": 0, "misses": 0,
        }

    def test_table_hit_without_a_warm_result_computes_from_a_dict(self):
        # One entry in each LRU: the dict-payload request evicts the
        # body's result from memory but never enters the body table.
        request = _request(CORE.replace('"t"', '"evicted"'))
        other = _request(CLEAN)
        body = self._body(request)
        expected = _expected_json(request)
        shipped = []

        async def scenario():
            service = AnalysisService(workers=1, memory_cache_size=1)
            submit = service.pool.submit

            def spy(task, **kwargs):
                shipped.append(task.request)
                return submit(task, **kwargs)

            service.pool.submit = spy
            try:
                first = await service.analyze_payload(body)
                await service.analyze_payload(other.to_dict())
                again = await service.analyze_payload(body)
                return first, again, service.stats()["bodies"]
            finally:
                await service.close()

        first, again, bodies = asyncio.run(scenario())
        assert (first.source, again.source) == ("computed", "computed")
        assert again.digest == first.digest
        assert again.body == first.body == expected
        assert bodies["hits"] == 1
        assert shipped[2] == shipped[0] == request.to_dict()


class TestLogGuard:
    def _hit(self, monkeypatch):
        request = _request()
        calls = []

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                await service.analyze_payload(request.to_dict())
                real = service.pool.stats
                monkeypatch.setattr(
                    service.pool, "stats",
                    lambda: calls.append(1) or real(),
                )
                await service.analyze_payload(request.to_dict())
                await service.analyze_batch_payload(
                    {"requests": [request.to_dict()]}
                )
            finally:
                await service.close()

        asyncio.run(scenario())
        return calls

    def test_no_pool_stats_with_info_off(self, monkeypatch, caplog):
        caplog.set_level(logging.WARNING, logger="repro.serve")
        assert self._hit(monkeypatch) == []

    def test_lines_written_with_info_on(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="repro.serve")
        assert len(self._hit(monkeypatch)) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("analyze digest=") and
                   "outcome=memory" in m for m in messages)
        assert any(m.startswith("batch requests=1") for m in messages)


class TestStats:
    def test_stats_shape(self, tmp_path):
        async def scenario():
            service = AnalysisService(
                store=ShardedResultStore(str(tmp_path)), workers=1
            )
            await service.analyze_payload(_request().to_dict())
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats["service"]["computed"] == 1
        # A dict payload never reaches the body table.
        assert stats["bodies"] == {"entries": 0, "capacity": 512,
                                   "hits": 0, "misses": 0}
        assert stats["precondition_errors"] == {}
        assert stats["pool"]["workers"] == 1
        assert stats["store"]["writes"] == 1
        assert stats["inflight"] == 0
        assert stats["draining"] is False
        # Every computed result ships a residency sidecar; the fixed
        # policy runs everything at the full tier.
        assert stats["tier_residency"]["hw_kernel_ops"] == 0

    def test_stats_name_the_substrate_fallbacks(self, monkeypatch):
        def broken(provider):
            raise AssertionError(f"injected failure for {provider.name}")

        monkeypatch.setattr(backend_mod, "_BACKENDS", {})
        monkeypatch.setattr(backend_mod, "_run_self_check", broken)

        async def scenario():
            service = AnalysisService(workers=1)
            stats = service.stats()
            await service.close()
            return stats

        block = asyncio.run(scenario())["substrate"]
        assert block["name"] == AnalysisConfig().substrate == "native"
        assert block["provider"] == "python"
        assert sorted(block["fallbacks"]) == ["gmpy2", "mpmath"]
        for name, reason in block["fallbacks"].items():
            if importlib.util.find_spec(name) is not None:
                assert reason == ("self-check failed: AssertionError: "
                                  f"injected failure for {name}")

    def test_stats_aggregate_hw_tier_residency(self):
        # hw_tier set explicitly: a test leg may switch the default off
        # with REPRO_HWTIER.
        config = AnalysisConfig(
            shadow_precision=96, precision_policy="adaptive", hw_tier=True
        )
        session = AnalysisSession(config=config, num_points=3)
        request = session.request(CLEAN)

        async def scenario():
            service = AnalysisService(workers=1)
            await service.analyze_payload(request.to_dict())
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        residency = stats["tier_residency"]
        assert residency["hw_tier"] == 1
        assert residency["hw_kernel_ops"] > 0

    def test_stats_sum_the_workers_precondition_errors(self):
        # The sampler counts :pre evaluations that raise in the worker
        # that sampled; each computed result carries its own count.
        # (Never run this program in the test process: the sampling
        # tests expect its name to be new to the process.)
        raising = ("(FPCore half-raising (x)"
                   " :pre (and (<= -1 x 1) (or (< x 0) (< z 1))) x)")
        first = _request(raising)
        second = _request(raising, seed=1)

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                seen = []
                for payload in (first, first, second):
                    outcome = await service.analyze_payload(
                        payload.to_dict()
                    )
                    assert outcome.status == 200, outcome.body
                    seen.append(dict(service.stats()["precondition_errors"]))
                return seen
            finally:
                await service.close()

        cold, hit, reseeded = asyncio.run(scenario())
        assert set(cold) == {"EvaluationError"}
        assert cold["EvaluationError"] > 0
        assert hit == cold  # a memory hit samples nothing
        assert reseeded["EvaluationError"] > cold["EvaluationError"]

    def test_stats_aggregate_tail_replays(self):
        # Every point runs the same first ten iterations, so later
        # points replay the memoized ops of earlier ones, tail included.
        loop = ("(FPCore (n) :name \"acc\" :pre (<= 10 n 20) "
                "(while* (< k n) ([k 0 (+ k 1)] [s 0 (+ s 0.1)]) s))")
        request = _request(loop)

        async def scenario():
            service = AnalysisService(workers=1)
            await service.analyze_payload(request.to_dict())
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        residency = stats["tier_residency"]
        assert residency["tail_replays"] > 0
        assert residency["memo_hits"] >= residency["tail_replays"]

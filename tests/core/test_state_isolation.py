"""Analysis-state isolation: no leakage between runs or sessions.

Two guards this suite pins:

* **Counter freshness** — every ``HerbgrindAnalysis`` starts with zero
  engine counters (memo hits, pipeline stage counters),
  and repeated ``analyze_batch`` calls through one session never see a
  previous analysis' counts.
* **Pool memory** — the ident-first :class:`~repro.core.trace.TracePool`
  keeps one epoch across the runs of an analysis and resets only at a
  run boundary once it holds more than ``POOL_EPOCH_IDENTS`` idents, so
  its live size stays under that cap plus one run's unique nodes; the
  pool, its memo column and the escalator memos reset together; and
  repeated batch iterations do not grow it.
"""

from repro.api import AnalysisSession
from repro.core import AnalysisConfig, analyze_program
from repro.core import analysis as analysis_mod
from repro.core.analysis import HerbgrindAnalysis, PipelineStageCounters
from repro.fpcore import parse_fpcore
from repro.machine import compile_fpcore
from repro.resilience import faults

LOOP = """(FPCore (x n) :name "iso-loop" :pre (and (<= 1 x 2) (<= 20 n 40))
    (while (<= i n) ([i 1 (+ i 1)]
                     [acc 0 (+ acc (/ (log x) i))])
      acc))"""

STRAIGHT = """(FPCore (x y) :name "iso-straight" :pre (and (<= 1 x 2) (<= 2 y 4))
    (- (sqrt (+ (* x x) y)) x))"""

FAST = AnalysisConfig(shadow_precision=192)

#: The profile counters on.
PROFILED = {"profile": True}


def run_analysis(points, switches=PROFILED):
    program = compile_fpcore(parse_fpcore(LOOP))
    return analyze_program(program, points, config=FAST, **switches)


class TestCounterReset:
    def test_fresh_analysis_has_zero_counters(self):
        analysis = HerbgrindAnalysis(FAST)
        assert analysis.memo_hits == 0
        assert all(
            value == 0 for value in analysis.stage_counters.to_dict().values()
        )

    def test_counters_stay_zero_without_profile(self):
        analysis, __ = run_analysis([[1.5, 25.0]], switches={})
        assert analysis.memo_hits > 0  # always-on, unlike the stages
        assert all(
            value == 0 for value in analysis.stage_counters.to_dict().values()
        )

    def test_counters_do_not_accumulate_across_analyses(self):
        points = [[1.5, 25.0], [1.25, 30.0]]
        first, __ = run_analysis(points)
        second, __ = run_analysis(points)
        assert first.stage_counters.to_dict() == \
            second.stage_counters.to_dict()
        assert first.memo_hits == second.memo_hits
        assert second.stage_counters.to_dict()["fused_ops"] > 0

    def test_stage_counters_reset_method(self):
        counters = PipelineStageCounters()
        counters.fused_ops = 7
        counters.kernel_evals = 3
        counters.reset()
        assert all(value == 0 for value in counters.to_dict().values())

    def test_batch_iterations_report_identical_profiles(self):
        session = AnalysisSession(
            config=FAST, num_points=3, seed=11, result_cache_size=0
        )
        core = parse_fpcore(LOOP)
        # Both iterations must run one plan: under an ambient fault
        # plan (REPRO_FAULTS) either could degrade to another rung,
        # whose profile legitimately differs.
        with faults.injected(""):
            first = session.analyze_batch([core], profile=True)[0]
            second = session.analyze_batch([core], profile=True)[0]
        profile_a = first.extra["pipeline_profile"]
        profile_b = second.extra["pipeline_profile"]
        assert profile_a == profile_b
        assert profile_a["fused_ops"] > 0


class TestPoolMemoryGuard:
    def test_pool_size_bounded_by_one_run(self):
        one_point = [[1.5, 25.0]]
        single, __ = run_analysis(one_point)
        single_size = len(single.pool)
        many, __ = run_analysis(one_point * 6)
        # Re-running the same point must not accumulate nodes: the pool
        # holds only the final execution's entries.
        assert len(many.pool) == single_size

    def test_pool_bounded_by_cap_plus_one_run(self, monkeypatch):
        # Distinct straight-line points intern new input idents, and
        # with them new op idents, every run.
        program = compile_fpcore(parse_fpcore(STRAIGHT))
        points = [[1.0 + i / 64.0, 2.0 + i / 32.0] for i in range(40)]
        one_run = len(
            analyze_program(program, points[:1], config=FAST)[0].pool
        )
        cap = 5 * one_run
        monkeypatch.setattr(analysis_mod, "POOL_EPOCH_IDENTS", cap)
        sizes = []
        finish = HerbgrindAnalysis.on_finish

        def spy(self, interpreter):
            sizes.append(len(self.pool))
            finish(self, interpreter)

        monkeypatch.setattr(HerbgrindAnalysis, "on_finish", spy)
        analysis, __ = analyze_program(
            program, points, config=FAST.with_(batched=False)
        )
        assert len(sizes) == len(points)
        assert max(sizes) <= cap + one_run
        assert max(sizes) > cap  # the cap was crossed, and then reset
        assert analysis.pool.epoch > 1

    def test_epoch_resets_only_at_run_boundaries(self, monkeypatch):
        # Each point's run alone exceeds the cap; the pool must still
        # hold every ident of the run in progress.
        monkeypatch.setattr(analysis_mod, "POOL_EPOCH_IDENTS", 10)
        epochs = []
        start = HerbgrindAnalysis.on_start
        finish = HerbgrindAnalysis.on_finish

        def on_start(self, interpreter):
            start(self, interpreter)
            epochs.append(self.pool.epoch)

        def on_finish(self, interpreter):
            assert self.pool.epoch == epochs[-1]
            finish(self, interpreter)

        monkeypatch.setattr(HerbgrindAnalysis, "on_start", on_start)
        monkeypatch.setattr(HerbgrindAnalysis, "on_finish", on_finish)
        points = [[1.5, 25.0], [1.25, 30.0], [1.75, 35.0]]
        analysis, __ = run_analysis(points)
        assert epochs == [0, 1, 2]
        single, __ = run_analysis(points[-1:])
        assert len(analysis.pool) == len(single.pool)

    def test_caches_reset_together(self, monkeypatch):
        monkeypatch.setattr(analysis_mod, "POOL_EPOCH_IDENTS", 10)
        analysis, __ = run_analysis([[1.5, 25.0]])
        pool = analysis.pool
        escalator = analysis.escalator
        assert len(pool) > 10
        assert any(entry is not None for entry in pool.memo)
        ident = len(pool) - 1
        escalator._memo[ident] = escalator._working_memo[ident] = None
        escalator._confirm_memo[ident] = escalator._leaves[ident] = None
        analysis.on_start(None)
        assert len(pool) == len(pool.memo) == len(pool.nodes) == 0
        assert not (escalator._memo or escalator._working_memo
                    or escalator._confirm_memo or escalator._leaves)

    def test_caches_survive_below_cap(self):
        analysis, __ = run_analysis([[1.5, 25.0]])
        pool = analysis.pool
        size = len(pool)
        memo = list(pool.memo)
        analysis.on_start(None)
        assert len(pool) == size and pool.epoch == 0
        assert pool.memo == memo

    def test_batch_iterations_do_not_grow_pools(self):
        session = AnalysisSession(
            config=FAST, num_points=4, seed=3, result_cache_size=0
        )
        core = parse_fpcore(LOOP)
        sizes = []
        for __ in range(3):
            result = session.analyze_batch([core])[0]
            sizes.append(len(result.raw.pool))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_materialization_memo_cleared_per_run(self):
        analysis, __ = run_analysis([[1.5, 25.0], [1.25, 30.0]])
        pool = analysis.pool
        # The materialized-node and shadow-memo columns run parallel to
        # the pool's arrays, for every ident of the current epoch.
        assert len(pool.memo) == len(pool.nodes) == len(pool)

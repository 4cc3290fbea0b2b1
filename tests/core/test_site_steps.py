"""The compiled engine's per-site steps, beyond their report bytes.

The site steps are generated from one template per (arity, flags)
variant (``repro.core.analysis._site_step_factory``).  The parity
suites compare their reports with the reference engine, but some
things a variant could get wrong never reach a report:

* the per-stage counters (:class:`TestStageCounterGolden`): a
  ``profile`` variant that dropped or doubled a count would still
  produce the same bytes, so the whole-corpus sums are pinned against
  ``stage_counters_golden.json``;
* where the budget guard ticks (:class:`TestGuardTickParity`): once
  per analysed operation, ahead of the memo probe, exactly as the
  reference engine's ``_analyse_operation`` ticks;
* one generated variant per (arity, flags) per process
  (:class:`TestVariantCache`), never one per site;
* the generic fallback (:class:`TestGenericFallback`): ``fma`` has no
  site step, so the compiled engine analyses it through
  ``_analyse_operation`` on an analysis with a trace pool, a path no
  corpus program takes.

To refresh the counter golden after a deliberate change to what a
stage counts, run this file as a script from the repository root; it
prints each counter that moved (old -> new)::

    PYTHONPATH=src python tests/core/test_site_steps.py --update
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.api.sampling import sample_inputs
from repro.core import AnalysisConfig, analyze_program
from repro.fpcore import load_corpus, parse_fpcore
from repro.machine import compile_fpcore
from repro.resilience import faults

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "stage_counters_golden.json")
POLICIES = ("fixed", "adaptive")


def corpus_programs(points, seed):
    return [
        (core, compile_fpcore(core), sample_inputs(core, points, seed=seed))
        for core in load_corpus()
    ]


def stage_counter_sums(policy, programs):
    """Summed ``stage_counters`` and ``tier_residency()`` of a
    profiled whole-corpus pass with every layer pinned on."""
    config = AnalysisConfig(
        engine="compiled", precision_policy=policy,
        batched=True,
    )
    sums = {}
    with faults.injected(""):
        for __, program, points in programs:
            analysis, __ = analyze_program(
                program, points, config=config, profile=True
            )
            counts = dict(analysis.stage_counters.to_dict())
            counts.update(analysis.tier_residency())
            for name, count in counts.items():
                sums[name] = sums.get(name, 0) + count
    return sums


def all_stage_counter_sums():
    programs = corpus_programs(points=8, seed=0)
    return {policy: stage_counter_sums(policy, programs)
            for policy in POLICIES}


class TestStageCounterGolden:
    def test_whole_corpus_counters_match_golden(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert all_stage_counter_sums() == golden


class TestGuardTickParity:
    """A generous op budget turns the guard on without ever spending
    it; its tick count must then be the reference engine's, program
    by program, under both policies."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_compiled_ticks_like_reference(self, policy):
        mismatched = []
        for core, program, points in corpus_programs(points=2, seed=13):
            ticks = {}
            for engine in ("compiled", "reference"):
                config = AnalysisConfig(
                    engine=engine, precision_policy=policy,
                    op_budget=10 ** 12,
                )
                analysis, __ = analyze_program(program, points, config=config)
                ticks[engine] = analysis._guard.ops
            if ticks["compiled"] != ticks["reference"]:
                mismatched.append((core.name, ticks))
        assert mismatched == []


class TestVariantCache:
    """Each variant is generated once per process and bound per site:
    code generation per site would cost milliseconds per site."""

    def test_one_generation_per_variant(self, monkeypatch):
        from repro.core import analysis as analysis_mod

        requested, rendered = [], []
        factory = analysis_mod._site_step_factory
        render = analysis_mod._render_site_step

        def requesting(arity, **flags):
            requested.append((arity,) + tuple(
                flags[name] for name in analysis_mod._SITE_STEP_FLAGS
            ))
            return factory(arity, **flags)

        def rendering(arity, flags):
            rendered.append((arity,) + tuple(
                flags[name] for name in analysis_mod._SITE_STEP_FLAGS
            ))
            return render(arity, flags)

        monkeypatch.setattr(analysis_mod, "_SITE_STEP_FACTORIES", {})
        monkeypatch.setattr(analysis_mod, "_site_step_factory", requesting)
        monkeypatch.setattr(analysis_mod, "_render_site_step", rendering)
        programs = corpus_programs(points=2, seed=13)
        for policy in POLICIES:
            config = AnalysisConfig(engine="compiled", precision_policy=policy)
            for __, program, points in programs:
                analyze_program(program, points, config=config)
        seen = set(requested)
        assert sorted(rendered) == sorted(seen)
        assert set(analysis_mod._SITE_STEP_FACTORIES) == seen
        assert len(seen) <= 2 * 3 * 2  # arity x (escalates, hw) x compensating
        assert len(requested) > 10 * len(seen)

    def test_generated_lines_reach_tracebacks(self):
        import linecache

        from repro.core import analysis as analysis_mod

        factory = analysis_mod._site_step_factory(
            2, escalates=True, compensating=True, profile=False,
            guarded=True,
        )
        filename = factory.__code__.co_filename
        assert filename == "<site-step arity=2 escalates compensating " \
            "guarded>"
        source = "".join(linecache.getlines(filename))
        assert "tick()" in source and "counters." not in source
        assert "$" not in source and "@" not in source

    def test_stale_or_missing_flags_raise_naming_them(self):
        from repro.core import analysis as analysis_mod

        flags = dict(escalates=True, compensating=False, profile=False,
                     guarded=False)
        with pytest.raises(TypeError, match=r"unknown \['hw'\]"):
            analysis_mod._site_step_factory(2, hw=True, **flags)
        del flags["guarded"]
        with pytest.raises(TypeError, match=r"missing \['guarded'\]"):
            analysis_mod._site_step_factory(2, **flags)


FMA_PROGRAM = "(FPCore (x y z) (- (fma x y z) (* x y)))"


class TestGenericFallback:
    """``fma`` has no site step: the compiled engine sends it through
    the generic ``_analyse_operation`` with a trace pool, beside site
    steps for ``*`` and ``-``.  Its bytes must be the reference's."""

    @staticmethod
    def run(engine, policy):
        config = AnalysisConfig(engine=engine, precision_policy=policy)
        session = AnalysisSession(
            config=config, num_points=8, seed=3, result_cache_size=0,
        )
        return session.analyze(parse_fpcore(FMA_PROGRAM))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fma_program_matches_reference(self, policy):
        compiled = self.run("compiled", policy)
        reference = self.run("reference", policy)
        assert results_to_json([compiled]) == results_to_json([reference])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fma_takes_the_pooled_generic_path(self, policy):
        core = parse_fpcore(FMA_PROGRAM)
        program = compile_fpcore(core)
        points = sample_inputs(core, 8, seed=3)
        analysis, __ = analyze_program(
            program, points,
            config=AnalysisConfig(engine="compiled", precision_policy=policy,
                                  batched=False),
            profile=True,
        )
        assert analysis.stage_counters.generic_ops == len(points)
        assert analysis.stage_counters.fused_ops == 2 * len(points)


def moved_counters(old, new):
    """One ``policy.counter: old -> new`` line per counter that moved
    (``-`` for a counter one side lacks)."""
    lines = []
    for policy in sorted(set(old) | set(new)):
        before, after = old.get(policy, {}), new.get(policy, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                lines.append(f"{policy}.{name}: {before.get(name, '-')}"
                             f" -> {after.get(name, '-')}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_site_steps.py --update")
    try:
        with open(GOLDEN) as handle:
            old = json.load(handle)
    except FileNotFoundError:
        old = {}
    new = all_stage_counter_sums()
    print("\n".join(moved_counters(old, new)) or "no counter moved")
    with open(GOLDEN, "w") as handle:
        json.dump(new, handle, indent=2, sort_keys=True)
        handle.write("\n")

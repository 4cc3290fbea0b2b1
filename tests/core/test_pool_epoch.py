"""One trace-pool epoch per analysis, and the per-ident shadow memo.

The compiled engine keeps one :class:`~repro.core.trace.TracePool`
epoch for a whole analysis, so a loop iteration that an earlier sample
point already executed interns to the same ident, and the fused
closures replay that ident's memoized ``(shadow, local error bits,
compensation verdict)`` instead of recomputing it.  The reports must
not notice: this suite checks them byte for byte against

* the same analysis with ``POOL_EPOCH_IDENTS`` patched to 0, which
  resets the pool at every run boundary (no ident survives a run, so
  nothing is ever replayed across points), and
* the reference engine, which interns through a pool of its own but
  keeps no memo and replays nothing,

under both precision policies, on the corpus loops and four
test-only loops (not in the corpus, so no benchmark baseline moves):
the recurrence E_n = 1 - n E_{n-1} for the integrals of x^n e^{x-1}
over [0, 1], whose subtraction becomes a candidate root cause past
about 180 iterations, repeated sqrt-then-square (unary sites), a
loop whose value turns NaN after one iteration, and a loop whose
symbolic expression changes at a later point.
Point sets repeat, ascend, descend and shuffle trip counts, so memo
hits come from earlier points of either shorter or longer runs.

A memo hit whose site expression is unchanged since the ident's last
walk also replays the per-execution tail (no anti-unification walk,
no characteristic updates).  That leaves the input summaries' rendered
text (``describe()``, which no result JSON carries) as the place a
wrong replay would show, so :class:`TestTailReplay` compares those
texts too, under every ``input_characteristics`` setting.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.core import AnalysisConfig, analyze_program
from repro.core import analysis as analysis_mod
from repro.core.config import (
    CHARACTERISTICS_NONE,
    CHARACTERISTICS_RANGE,
    CHARACTERISTICS_REPRESENTATIVE,
    CHARACTERISTICS_SIGN_SPLIT,
)
from repro.fpcore import parse_fpcore
from repro.fpcore.corpus import families
from repro.machine import compile_fpcore
from repro.resilience import faults
from repro.resilience.errors import OpBudgetExceeded

RECURRENCE = """(FPCore (n) :name "recurrence-integral"
  :pre (<= 1 n 250)
  (while* (< k n)
    ([k 0 (+ k 1)]
     [e (- 1 (exp -1)) (- 1 (* k e))])
    e))"""

SQRT_SQUARE = """(FPCore (x n) :name "sqrt-then-square"
  :pre (and (<= 1 x 4) (<= 1 n 60))
  (let ([r (while* (< k n) ([k 0 (+ k 1)] [y x (sqrt y)]) y)])
    (while* (< j n) ([j 0 (+ j 1)] [z r (* z z)]) z)))"""

#: inf, then inf * 0.5 - inf = NaN: from the second iteration on, the
#: variable bound at the `*` and `-` sites is NaN, which a range
#: summary counts (``nan_count``) at every execution.
NAN_LOOP = """(FPCore (x n) :name "nan-loop"
  (while* (< k n) ([k 0 (+ k 1)] [y (/ x 0) (- (* y 0.5) y)]) y))"""

CHARACTERISTICS = [CHARACTERISTICS_NONE, CHARACTERISTICS_REPRESENTATIVE,
                   CHARACTERISTICS_RANGE, CHARACTERISTICS_SIGN_SPLIT]

#: Under x >= 0 both arguments of the `+` are the same value, so its
#: expression reads (+ v0 v0); the first x < 0 point splits v0.  A
#: later x >= 0 point re-executes the first point's idents, which were
#: walked against the old expression, so they must not replay their
#: tail: the new variable has never seen their values.
SPLIT_LATE = """(FPCore (x n) :name "split-late"
  (while* (< k n) ([k 0 (+ k 1)] [y x (+ y (if (< x 0) (- y 0) y))]) y))"""

LOOPS = {core.name: core for core in families()["loops"]}

PROGRAMS = dict(LOOPS)
PROGRAMS["recurrence-integral"] = parse_fpcore(RECURRENCE)
PROGRAMS["sqrt-then-square"] = parse_fpcore(SQRT_SQUARE)
PROGRAMS["nan-loop"] = parse_fpcore(NAN_LOOP)
PROGRAMS["split-late"] = parse_fpcore(SPLIT_LATE)

#: Trip counts per program.  The recurrence's straddle the iteration
#: (about 183) from which its subtraction's local error passes the
#: default 5-bit threshold, so some replayed idents are candidates.
TRIPS = {
    "loop-tenth-accumulate": [12, 30, 45, 60],
    "loop-geometric": [10, 25, 40, 55],
    "loop-harmonic": [10, 24, 37, 50],
    "recurrence-integral": [150, 186, 200, 215],
    "sqrt-then-square": [8, 20, 35, 50],
    "nan-loop": [10, 20, 20, 30],
    "split-late": [8, 15, 20, 25],
}


def make_points(name, trips):
    if name == "sqrt-then-square":
        # Mostly one x, so the sqrt chains are shared across points.
        return [[3.0 if i % 3 == 2 else 2.0, float(n)]
                for i, n in enumerate(trips)]
    if name == "nan-loop":
        return [[1.5, float(n)] for n in trips]
    if name == "split-late":
        # The second point alone takes the x < 0 arm.
        return [[-1.5 if i == 1 else 1.5, float(n)]
                for i, n in enumerate(trips)]
    return [[float(n)] for n in trips]


def orders(trips):
    shuffled = list(trips)
    random.Random(1).shuffle(shuffled)
    return {
        "duplicates": [trips[2], trips[2], trips[1], trips[2]],
        "ascending": sorted(trips),
        "descending": sorted(trips, reverse=True),
        "shuffled": shuffled,
    }


CASES = [
    (name, order, trips)
    for name in PROGRAMS
    for order, trips in orders(TRIPS[name]).items()
]


def report(core, points, policy, engine="compiled"):
    """The result JSON and every operation site's node locations."""
    session = AnalysisSession(
        config=AnalysisConfig(precision_policy=policy, engine=engine),
        result_cache_size=0,
    )
    result = session.analyze(core, points=points)
    locations = [
        (record.site_id, sorted(record.node_locations().items()))
        for record in sorted(result.raw.op_records.values(),
                             key=lambda r: r.site_id)
    ]
    return result.to_json(), locations


def assert_memo_invisible(core, points, policy):
    epoch = report(core, points, policy)
    # Patched by hand: Hypothesis forbids function-scoped fixtures.
    # Resetting at every run also saves each record's locations at
    # every run boundary.
    saved = analysis_mod.POOL_EPOCH_IDENTS
    analysis_mod.POOL_EPOCH_IDENTS = 0
    try:
        per_run = report(core, points, policy)
    finally:
        analysis_mod.POOL_EPOCH_IDENTS = saved
    assert epoch == per_run
    assert epoch == report(core, points, policy, engine="reference")


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
@pytest.mark.parametrize(
    "name,order,trips", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_memo_matches_per_run_reset_and_reference(name, order, trips,
                                                  policy):
    assert_memo_invisible(
        PROGRAMS[name], make_points(name, trips), policy
    )


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["loop-harmonic", "recurrence-integral",
                          "sqrt-then-square"]),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    policy=st.sampled_from(["fixed", "adaptive"]),
)
def test_permuted_duplicated_points(name, picks, policy):
    trips = [TRIPS[name][i] for i in picks]
    assert_memo_invisible(
        PROGRAMS[name], make_points(name, trips), policy
    )


def test_recurrence_has_replayed_candidates():
    # The differential cases above only bite if a replayed ident is a
    # candidate: points past ~183 iterations re-execute the candidate
    # iterations of the earlier 200-trip point.
    program = compile_fpcore(PROGRAMS["recurrence-integral"])
    analysis, __ = analyze_program(
        program, [[200.0], [215.0]], config=AnalysisConfig()
    )
    # Three fused binary sites per iteration, all 200 of the first
    # point's iterations replayed by the second.
    assert analysis.memo_hits >= 3 * 200
    # The expressions are settled by then, so hits replay their tail.
    assert analysis.tail_replays > 0
    assert analysis.reported_root_causes()
    subtract = max(
        analysis.op_records.values(), key=lambda r: r.max_local_error
    )
    assert subtract.op == "-"
    assert subtract.candidate_executions >= 2 * 17


class TestMemoCounter:
    POINTS = [[40.0], [25.0], [60.0], [25.0]]

    def analysis(self, policy="adaptive"):
        program = compile_fpcore(LOOPS["loop-tenth-accumulate"])
        analysis, __ = analyze_program(
            program, self.POINTS,
            config=AnalysisConfig(precision_policy=policy),
        )
        return analysis

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_counter_moves_on_loop(self, policy):
        analysis = self.analysis(policy)
        # Every iteration of a point shorter than the longest earlier
        # point is replayed: 25 of the second point's, then 40 (from
        # the first) of the third's, then all 25 of the fourth's — two
        # fused sites (`i + 1`, `acc + 0.1`) each.
        assert analysis.memo_hits == 2 * (25 + 40 + 25)
        assert analysis.tier_residency()["memo_hits"] == analysis.memo_hits

    def test_counter_zero_with_per_run_reset(self, monkeypatch):
        monkeypatch.setattr(analysis_mod, "POOL_EPOCH_IDENTS", 0)
        analysis = self.analysis()
        assert analysis.memo_hits == 0

    def test_profile_reports_hits(self):
        session = AnalysisSession(
            config=AnalysisConfig(precision_policy="adaptive"),
            result_cache_size=0,
        )
        # The counts are the compiled engine's: keep an ambient fault
        # plan (REPRO_FAULTS) from degrading the run to another rung.
        with faults.injected(""):
            result = session.analyze(
                LOOPS["loop-tenth-accumulate"], points=self.POINTS,
                profile=True,
            )
        profile = result.extra["pipeline_profile"]
        assert profile["memo_hits"] == 2 * (25 + 40 + 25)
        # Executed ops are counted in full; computed ones are not.
        executed = sum(
            r.executions for r in result.raw.op_records.values()
        )
        assert profile["fused_ops"] == executed
        assert profile["kernel_evals"] == executed - profile["memo_hits"]
        # Tail replays are hits that skipped the walk as well.
        assert 0 < profile["tail_replays"] <= profile["memo_hits"]
        assert profile["tier_residency"]["tail_replays"] == \
            profile["tail_replays"]


def test_op_budget_counts_replayed_ops():
    program = compile_fpcore(LOOPS["loop-harmonic"])
    points = [[30.0], [30.0], [20.0]]
    analysis, __ = analyze_program(
        program, points, config=AnalysisConfig(op_budget=10 ** 6)
    )
    executed = sum(r.executions for r in analysis.op_records.values())
    assert analysis.memo_hits > 0
    assert analysis._guard.ops == executed
    analyze_program(program, points,
                    config=AnalysisConfig(op_budget=executed))
    with pytest.raises(OpBudgetExceeded):
        analyze_program(program, points,
                        config=AnalysisConfig(op_budget=executed - 1))


def describe_texts(analysis):
    """The rendered input summaries of every operation site."""
    return [
        (record.site_id,
         sorted(record.total_inputs.describe().items()),
         sorted(record.problematic_inputs.describe().items()))
        for record in sorted(analysis.op_records.values(),
                             key=lambda r: r.site_id)
    ]


class TestTailReplay:
    """A tail replay skips re-recording bindings the summaries already
    hold; nothing a report or a summary's text shows may change."""

    NAN_POINTS = [[1.5, 10.0], [1.5, 20.0], [1.5, 20.0], [1.5, 30.0]]

    @staticmethod
    def observe(core, points, config):
        session = AnalysisSession(config=config, result_cache_size=0)
        result = session.analyze(core, points=points)
        return result.to_json(), describe_texts(result.raw)

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    @pytest.mark.parametrize("characteristics", CHARACTERISTICS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_per_run_reset_and_reference(self, name,
                                                 characteristics, policy,
                                                 monkeypatch):
        core = PROGRAMS[name]
        points = make_points(name, orders(TRIPS[name])["duplicates"])
        config = AnalysisConfig(precision_policy=policy,
                                input_characteristics=characteristics)
        replay = self.observe(core, points, config)
        reference = self.observe(core, points,
                                 config.with_(engine="reference"))
        monkeypatch.setattr(analysis_mod, "POOL_EPOCH_IDENTS", 0)
        assert replay == self.observe(core, points, config)
        assert replay == reference

    def test_nan_exclusion_bites(self, monkeypatch):
        # Replaying NaN bindings too undercounts ``nan_count`` — a
        # difference only ``describe()`` shows, never the result JSON —
        # so the differential test above needs the texts to catch it.
        core = PROGRAMS["nan-loop"]
        config = AnalysisConfig(input_characteristics="range")
        json_ok, texts_ok = self.observe(core, self.NAN_POINTS, config)
        # 4 points, 80 iterations in all: every one but each point's
        # first binds NaN at the loop body's `*` and `-` sites.
        assert "plus 76 NaN" in repr(texts_ok)
        monkeypatch.setattr(analysis_mod, "_replayable",
                            lambda expression, bindings: expression)
        json_bad, texts_bad = self.observe(core, self.NAN_POINTS, config)
        assert json_bad == json_ok
        assert texts_bad != texts_ok
        assert "plus 30 NaN" in repr(texts_bad)

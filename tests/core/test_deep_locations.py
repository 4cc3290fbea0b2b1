"""Per-node source locations on the paper's deep-DAG case studies.

The compiled engine computes :meth:`OpRecord.node_locations` on
request by walking the symbolic expression against the trace pool's
flat arrays.  On Gram-Schmidt the traces are dot products sharing one
DAG many levels deep, and PID runs a 50-iteration loop, so these are
the programs where a walk that followed the trace rather than the
expression would show.  The oracles are a recursive walk over the
pool's fully materialized nodes, written here, and the reference
engine, which interns through the same pool but runs none of the fast
layers.  On traces deeper than ``max_expression_depth`` both engines
must also agree on the expressions themselves: truncation is decided
per interned node, so the two engines see the same sharing.
"""

import pytest

from repro.apps.gramschmidt import run_gramschmidt
from repro.apps.pid import run_pid
from repro.core import AnalysisConfig
from repro.core.trace import KIND_OP
from repro.fpcore.ast import Op

GRAMSCHMIDT = AnalysisConfig(shadow_precision=256)
PID = AnalysisConfig(shadow_precision=256, local_error_threshold=0.1)


def analyse(study, engine="compiled"):
    """The analysis of one case study under ``engine``."""
    if study == "pid":
        return run_pid(10.0, config=PID.with_(engine=engine)).analysis
    rows, cols, config = {
        "gramschmidt-6x6": (6, 6, GRAMSCHMIDT),
        "gramschmidt-7x7": (7, 7, GRAMSCHMIDT),
        "gramschmidt-8x8": (8, 8, GRAMSCHMIDT),
        "gramschmidt-12x12": (12, 12, GRAMSCHMIDT),
        # Depth bounds that cut through the shared dot-product DAG.
        "gramschmidt-6x6-depth3": (
            6, 6, GRAMSCHMIDT.with_(max_expression_depth=3)
        ),
        "gramschmidt-8x4-depth5": (
            8, 4, GRAMSCHMIDT.with_(max_expression_depth=5)
        ),
    }[study]
    return run_gramschmidt(
        rows, cols, config=config.with_(engine=engine)
    ).analysis


def records(analysis):
    return sorted(analysis.op_records.values(), key=lambda r: r.site_id)


def materialized_locations(symbolic, node, path=()):
    """Source location per operator position of ``symbolic``, read off
    the materialized trace ``node`` by plain recursion."""
    if not isinstance(symbolic, Op) or node.kind != KIND_OP \
            or symbolic.op != node.op \
            or len(symbolic.args) != len(node.args):
        return {}
    locations = {path: node.loc}
    for index, (sym_arg, node_arg) in enumerate(
        zip(symbolic.args, node.args)
    ):
        locations.update(
            materialized_locations(sym_arg, node_arg, path + (index,))
        )
    return locations


@pytest.mark.parametrize(
    "study", ["gramschmidt-8x8", "gramschmidt-12x12", "pid"]
)
def test_lazy_locations_match_full_materialization(study):
    analysis = analyse(study)
    pool = analysis.pool
    mapped = 0
    for record in records(analysis):
        full = materialized_locations(
            record.symbolic_expression, pool.node(record.last_trace)
        )
        assert record.node_locations() == full, record.site_id
        mapped += len(full)
    # Every site maps at least its root, and the expressions nest.
    assert mapped > len(analysis.op_records)


@pytest.mark.parametrize("study", ["gramschmidt-6x6", "pid"])
def test_compiled_locations_match_reference(study):
    compiled, reference = (
        [
            (record.site_id, str(record.symbolic_expression),
             sorted(record.node_locations().items()))
            for record in records(analyse(study, engine))
        ]
        for engine in ("compiled", "reference")
    )
    assert compiled == reference


@pytest.mark.parametrize("study", [
    "gramschmidt-8x4-depth5",
    "gramschmidt-6x6-depth3",
    "gramschmidt-7x7",
    "gramschmidt-8x8",
])
def test_gramschmidt_expressions_match_reference(study):
    compiled, reference = (
        [
            (record.site_id, str(record.symbolic_expression),
             sorted(record.node_locations().items()))
            for record in records(analyse(study, engine))
        ]
        for engine in ("compiled", "reference")
    )
    assert compiled == reference

"""Substrate parity: native kernels must be report-invisible.

The acceptance bar of the pluggable BigFloat substrate is
*byte-identical* ``AnalysisResult`` JSON across ``substrate`` x
``engine`` x ``precision_policy`` over the whole corpus, so one
result-cache digest serves every substrate.
"""

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.api.requests import AnalysisRequest
from repro.api.session import request_digest
from repro.bigfloat import substrate_provider
from repro.core import AnalysisConfig
from repro.core.config import AnalysisConfig as Config
from repro.fpcore import load_corpus


def corpus_json(substrate: str, engine: str = "compiled",
                policy: str = "fixed", points: int = 2, seed: int = 13):
    config = AnalysisConfig(
        substrate=substrate, engine=engine, precision_policy=policy
    )
    session = AnalysisSession(
        config=config, num_points=points, seed=seed, result_cache_size=0
    )
    return results_to_json(session.analyze_batch(load_corpus(), workers=1))


class TestCorpusParity:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_full_corpus_byte_identical(self, engine, policy):
        assert corpus_json("python", engine, policy) == \
            corpus_json("native", engine, policy)

    def test_native_works_in_worker_pool(self):
        corpus = load_corpus()[:10]
        native = AnalysisSession(
            config=AnalysisConfig(substrate="native"),
            num_points=2, seed=5, result_cache_size=0,
        )
        python = AnalysisSession(
            config=AnalysisConfig(substrate="python"),
            num_points=2, seed=5, result_cache_size=0,
        )
        assert results_to_json(native.analyze_batch(corpus, workers=2)) == \
            results_to_json(python.analyze_batch(corpus, workers=1))


class TestDigest:
    def test_substrate_stays_out_of_the_request_digest(self):
        # Substrates are byte-identical (TestCorpusParity), so a result
        # either one computed answers both.
        core = "(FPCore (x) (sqrt (+ x 1)))"
        python = AnalysisRequest.build(core, config=Config(substrate="python"))
        native = AnalysisRequest.build(core, config=Config(substrate="native"))
        assert request_digest(python) == request_digest(native)

    def test_substrate_round_trips_through_json(self):
        request = AnalysisRequest.build(
            "(FPCore (x) (+ x 1))", config=Config(substrate="native")
        )
        rebuilt = AnalysisRequest.from_json(request.to_json())
        assert rebuilt.config.substrate == "native"
        assert request_digest(rebuilt) == request_digest(request)

    def test_unknown_substrate_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            Config(substrate="mpfr")


class TestCli:
    def test_substrate_flag(self, capsys):
        from repro.cli import main

        code = main([
            "analyze", "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))",
            "--points", "2", "--substrate", "native", "--json",
        ])
        assert code == 0
        native_out = capsys.readouterr().out
        code = main([
            "analyze", "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))",
            "--points", "2", "--substrate", "python", "--json",
        ])
        assert code == 0
        python_out = capsys.readouterr().out
        assert native_out == python_out

    def test_provider_resolution_never_fails(self):
        # "native" must resolve even in a bare environment.
        assert substrate_provider("native") in ("gmpy2", "mpmath", "python")

"""Tests for the herbgrind-py command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_analyze_inline(self, capsys):
        code = main([
            "analyze",
            "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))",
            "--points", "4", "--precision", "192",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "erroneous values" in out
        assert "(FPCore" in out

    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "bench.fpcore"
        path.write_text("(FPCore (x) :pre (<= 1 x 10) (+ x 1))")
        code = main(["analyze", str(path), "--points", "4",
                     "--precision", "192"])
        assert code == 0
        assert "No erroneous spots" in capsys.readouterr().out

    def test_improve(self, capsys):
        code = main([
            "improve", "(- (exp x) 1)", "--range", "1e-12", "1e-6",
            "--points", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "expm1" in out

    def test_improve_no_variables(self, capsys):
        code = main(["improve", "(+ 1 2)"])
        assert code == 1

    def test_corpus_list(self, capsys):
        code = main(["corpus", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper-csqrt-imag" in out
        assert out.count("\n") == 86

    def test_corpus_single(self, capsys):
        code = main([
            "corpus", "--name", "paper-x-plus-1-minus-x",
            "--points", "4", "--precision", "192",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max-error" in out

    def test_corpus_unknown_name(self):
        assert main(["corpus", "--name", "nope", "--points", "2"]) == 1

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_json(self, capsys):
        code = main([
            "analyze",
            "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))",
            "--points", "4", "--precision", "192", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "herbgrind"
        assert data["max_output_error"] > 50
        assert data["root_causes"]
        assert data["spots"]

    def test_analyze_alternate_backend(self, capsys):
        code = main([
            "analyze",
            "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))",
            "--points", "4", "--precision", "192",
            "--backend", "fpdebug", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "fpdebug"

    def test_corpus_json(self, capsys):
        code = main([
            "corpus", "--name", "paper-x-plus-1-minus-x",
            "--points", "4", "--precision", "192", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and len(data) == 1
        assert data[0]["benchmark"] == "paper-x-plus-1-minus-x"

    def test_analyze_non_herbgrind_backend_without_json(self, capsys):
        # Backends without a report renderer fall back to JSON instead
        # of crashing in generate_report.
        for backend in ("fpdebug", "bz", "verrou"):
            code = main([
                "analyze",
                "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))",
                "--points", "4", "--precision", "192",
                "--backend", backend,
            ])
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            assert data["backend"] == backend

    def test_corpus_single_non_herbgrind_backend(self, capsys):
        code = main([
            "corpus", "--name", "paper-x-plus-1-minus-x",
            "--points", "4", "--precision", "192", "--backend", "bz",
        ])
        assert code == 0
        assert "max-error" in capsys.readouterr().out

    def test_backends_listed(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out.split()
        assert {"herbgrind", "fpdebug", "verrou", "bz"} <= set(out)

    @pytest.mark.parametrize("command", [["analyze", "(FPCore (x) x)"],
                                         ["corpus"]])
    def test_unset_plan_options_take_the_config_defaults(self, command):
        from repro.cli import _session
        from repro.core import AnalysisConfig
        from repro.core.config import PLAN_FIELDS

        args = build_parser().parse_args(command)
        config = _session(args).config
        default = AnalysisConfig()
        for name in PLAN_FIELDS:
            assert getattr(config, name) == getattr(default, name), name
        assert config.substrate == "native"

    def test_plan_options_override_the_defaults(self):
        from repro.cli import _session

        args = build_parser().parse_args([
            "corpus", "--substrate", "python", "--engine", "reference",
            "--precision-policy", "adaptive", "--working-precision", "160",
        ])
        config = _session(args).config
        assert (config.substrate, config.engine, config.precision_policy,
                config.working_precision) == \
            ("python", "reference", "adaptive", 160)

    def test_profile_prints_the_substrate(self, capsys):
        from repro.bigfloat import substrate_provider

        code = main([
            "analyze", "(FPCore (x) :pre (<= 1 x 2) (+ x 1))",
            "--points", "2", "--precision", "96", "--json", "--profile",
        ])
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays one JSON document
        assert captured.err.startswith(
            f"substrate: native -> {substrate_provider('native')}"
        )

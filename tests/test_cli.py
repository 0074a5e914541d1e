"""Unit tests for the repro-figures CLI."""

import json

import pytest

from repro.cli import build_parser, build_serve_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.figures == ["fig2"]
        assert args.trials == 1024
        assert args.seed == 2026

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["--all", "--trials", "16", "--jobs", "2", "--out", str(tmp_path)]
        )
        assert args.all and args.trials == 16 and args.jobs == 2


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "abl-ccr" in out

    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_figure_reports_error(self, capsys):
        assert main(["fig99", "--trials", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_jobs_is_clean_error(self, capsys):
        assert main(["abl-kl", "--trials", "1", "--jobs", "0"]) == 1
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_tiny_run_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "abl-kl",
                "--trials", "2",
                "--seed", "3",
                "--jobs", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ADAPT-L" in out
        doc = json.loads((tmp_path / "abl-kl.json").read_text())
        assert doc["trials_per_cell"] == 2
        assert (tmp_path / "abl-kl.csv").exists()
        assert (tmp_path / "abl-kl.md").read_text().startswith("###")


class TestSubcommands:
    def test_explicit_figures_subcommand_is_back_compat(self, capsys):
        assert main(["figures", "--list"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_figures_subcommand_runs_experiments(self, tmp_path, capsys):
        code = main(
            ["figures", "abl-kl", "--trials", "1", "--jobs", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "abl-kl.json").exists()

    def test_serve_parser_defaults(self):
        import os

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        assert args.cache_size == 1024
        # --workers now counts processes: min(cpu_count, 4), so the
        # single-CPU CI host defaults to the in-process path.
        assert args.workers == min(os.cpu_count() or 1, 4)

    def test_serve_parser_flags(self):
        args = build_serve_parser().parse_args(
            ["--port", "0", "--cache-size", "16"]
        )
        assert args.port == 0 and args.cache_size == 16

    def test_serve_rejects_bad_cache_size(self, capsys):
        assert main(["serve", "--cache-size", "0"]) == 2
        assert "cache maxsize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--max-queue", "-5"), ("--retry-after", "-1")]
    )
    def test_serve_rejects_negative_backpressure_settings(
        self, flag, value, capsys, monkeypatch
    ):
        from repro.service import PooledFrontend

        def must_not_bind(*args, **kwargs):
            raise AssertionError(f"serve bound a socket despite {flag} {value}")

        monkeypatch.setattr(PooledFrontend, "start", must_not_bind)
        assert main(["serve", "--workers", "1", flag, value]) == 2
        assert f"error: {flag} must be at least 0" in capsys.readouterr().err

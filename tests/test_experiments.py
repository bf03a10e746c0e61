"""Tests for the experiments package: results, registry, CLI."""

import ast
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest

from repro.experiments import FigureResult, figure_ids, run_figure
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import PARALLEL_FIGURES, TOPOLOGY_FIGURES

REPO = Path(__file__).resolve().parents[1]


class TestFigureResult:
    def test_series_and_metrics_round_trip(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [(1, 2.0), (2, 3.0)])
        result.metrics["m"] = 0.5
        text = result.format_text()
        assert "figXX" in text
        assert "m: 0.5" in text
        assert "series 's'" in text

    def test_duplicate_series_rejected(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [])
        with pytest.raises(ValueError):
            result.add_series("s", [])

    def test_format_thins_long_series(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [(i, i) for i in range(1000)])
        text = result.format_text(max_points=10)
        data_lines = [l for l in text.splitlines() if l.startswith("    ")]
        assert len(data_lines) <= 12

    def test_format_handles_special_floats(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.metrics["nan"] = float("nan")
        result.metrics["zero"] = 0.0
        result.metrics["big"] = 1.23e9
        text = result.format_text()
        assert "nan" in text
        assert "zero: 0" in text


class TestRegistry:
    def test_all_eighteen_figures_registered(self):
        # fig01-fig15 reproduce the paper; fig16-fig18 are the
        # topology extension (DESIGN.md §13).
        ids = figure_ids()
        assert len(ids) == 18
        assert ids[0] == "fig01"
        assert ids[-1] == "fig18"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_fast_flag_adds_note(self):
        result = run_figure("fig09", fast=True)
        assert any("fast" in note for note in result.notes)

    def test_overrides_take_precedence(self):
        result = run_figure("fig15", fast=True, n_min=8, n_max=12)
        ns = [n for n, _ in result.series["fraction_unsynchronized_by_n"]]
        assert ns == list(range(8, 13))

    def test_cheap_figures_run(self):
        # The analytic figures are fast enough to run outright in tests.
        for figure_id in ("fig09", "fig12", "fig13", "fig14", "fig15"):
            result = run_figure(figure_id, fast=True)
            assert result.figure_id == figure_id
            assert result.series

    def test_jobs_ignored_for_non_parallel_figures(self):
        # fig09 is analytic; jobs/cache must not reach its driver.
        result = run_figure("fig09", fast=True, jobs=4)
        assert result.figure_id == "fig09"

    def test_jobs_and_cache_reach_parallel_figures(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path)
        result = run_figure(
            "fig10", fast=True, jobs=2, cache=cache,
            horizon=2e4, seeds=(1, 2),
        )
        assert result.figure_id == "fig10"
        assert len(cache) == 2  # one entry per seed


class TestTopologyFigures:
    def test_fig16_end_to_end_through_runner_and_cache(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(fast=True, jobs=2, cache=cache, seeds=(1,))
        first = run_figure("fig16", **kwargs)
        assert first.figure_id == "fig16"
        assert len(cache) > 0
        entries = len(cache)
        again = run_figure("fig16", **kwargs)
        assert len(cache) == entries  # fully cache-served
        assert again.metrics == first.metrics
        # Sparse couplings synchronize, but slower than the clique.
        assert first.metrics["synced_fraction[ring]"] == 1.0
        assert first.metrics["slowdown_vs_clique_at_n_max[ring]"] > 1.0

    def test_fig17_onset_tracks_connectivity(self):
        result = run_figure("fig17", fast=True, jobs=2)
        assert result.metrics["onset_fraction_low_p"] == 0.0
        assert result.metrics["onset_fraction_high_p"] == 1.0
        degrees = [d for d, _ in result.series["synced_fraction_by_mean_degree"]]
        assert min(degrees) <= result.metrics["onset_mean_degree"] <= max(degrees)

    def test_fig18_dv_agrees_with_abstract_model(self):
        # The acceptance point: live RIP traffic on one LAN reproduces
        # the abstract model's sync time at N=5 within the seed spread.
        result = run_figure("fig18", fast=True, jobs=2)
        assert result.metrics["points_in_abstract_spread"] >= 1
        assert 0.5 <= result.metrics["dv_over_abstract_mean[n=5]"] <= 2.0

    def test_topology_override_reaches_fig10_only(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        result = run_figure(
            "fig10", fast=True, jobs=2, cache=cache,
            horizon=2e4, seeds=(1, 2), topology="ring",
        )
        assert any("topology='ring'" in note for note in result.notes)
        # Analytic figures silently ignore the override.
        assert run_figure("fig09", fast=True, topology="ring").series

    def test_invalid_topology_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_figure("fig10", topology="moebius")


class TestCli:
    def test_list_prints_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig18" in out

    def test_single_figure_runs(self, capsys):
        assert main(["fig09", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Markov chain" in out

    def test_unknown_target_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig04"])
        assert args.target == "fig04"
        assert args.fast is False
        assert args.max_points == 25
        assert args.jobs is None
        assert args.no_cache is False

    def test_parser_parallel_flags(self):
        args = build_parser().parse_args(["fig10", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_invalid_jobs_errors(self, capsys):
        assert main(["fig10", "--jobs", "0"]) == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err

    def test_parser_topology_flag(self):
        args = build_parser().parse_args(["fig10", "--topology", "ring"])
        assert args.topology == "ring"
        assert build_parser().parse_args(["fig10"]).topology is None

    def test_invalid_topology_errors(self, capsys):
        assert main(["fig10", "--topology", "moebius"]) == 2
        assert "topology" in capsys.readouterr().err

    def test_bench_target_prints_table(self, capsys, monkeypatch, tmp_path):
        import repro.bench as bench

        real_run_benchmark = bench.run_benchmark

        def tiny_bench(name, jobs=None, output=None):
            return real_run_benchmark(
                name,
                jobs=jobs or 1,
                output=tmp_path / output,
                horizon=2e4,
                seeds=(1, 2),
            )

        monkeypatch.setattr(bench, "run_benchmark", tiny_bench)
        code = main(["bench"])
        out = capsys.readouterr().out
        assert "speedup" in out
        snapshot = json.loads((tmp_path / "BENCH_parallel.json").read_text())
        assert snapshot["checks"]["results_identical_across_configs"]
        assert snapshot["checks"]["results_identical_with_obs"]
        # The obs budget gates the exit code too, and a tiny workload
        # may miss it.
        assert code == (0 if snapshot["ok"] else 1)


class TestServingCli:
    def test_parser_serving_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8793
        assert args.queue_depth == 64
        assert args.deadline is None
        args = build_parser().parse_args(
            ["loadgen", "--clients", "8", "--duration", "3", "--real-time"]
        )
        assert args.clients == 8
        assert args.duration == 3.0
        assert args.real_time is True

    def test_bench_unknown_workload_names_the_five(self, capsys):
        assert main(["bench", "nope"]) == 2
        err = capsys.readouterr().err
        for name in ("parallel", "batch", "serve", "campaign", "predict"):
            assert name in err

    @pytest.mark.parametrize(
        "flag", ["--obs", "--serve", "--batch", "--campaign", "--predict"]
    )
    def test_bench_workload_flags_are_gone(self, flag, capsys):
        assert main(["bench", flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_loadgen_against_a_live_server(self, capsys, tmp_path):
        from repro.serve import BackgroundServer, ServeConfig

        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            code = main(
                [
                    "loadgen",
                    "--port",
                    str(bg.port),
                    "--clients",
                    "2",
                    "--period",
                    "0.5",
                    "--load-jitter",
                    "0.25",
                    "--duration",
                    "1",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "payloads identical per job: yes" in out

    def test_loadgen_unreachable_server_errors(self, capsys, tmp_path):
        # A port from the dynamic range with nothing listening.
        assert main(["loadgen", "--port", "1", "--duration", "1"]) == 2
        assert "cannot reach server" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            "--workers 2",
            "--jobs 2",
            "--engine batch",
            "--queue-depth 8",
            "--deadline 5",
            "--cache-root x",
        ],
    )
    def test_plain_loadgen_rejects_server_flags(self, flag, capsys):
        # Only a --chaos run hosts a server these would configure; the
        # usage error comes before any connection is tried.
        assert main(["loadgen", "--port", "1", *flag.split()]) == 2
        err = capsys.readouterr().err
        assert "usage: repro-sync loadgen" in err
        assert f"{flag.split()[0]} would be ignored" in err

    def test_chaos_loadgen_rejects_port(self, capsys):
        # The chaos fleet listens on a free port; the error comes
        # before any fleet starts.
        assert main(["loadgen", "--chaos", "--port", "9"]) == 2
        assert "--port would be ignored" in capsys.readouterr().err


_OBS_FLAGS = {"--trace", "--metrics", "--profile", "--verbose", "--quiet"}
_ANALYTIC_FIGURE_FLAGS = {"--fast", "--max-points", "--plot", *_OBS_FLAGS}
_FIGURE_FLAGS = _ANALYTIC_FIGURE_FLAGS | {
    "--jobs", "--engine", "--no-cache", "--resume", "--cache-root",
}
_SERVER_FLAGS = {
    "--host", "--port", "--queue-depth", "--deadline", "--workers", "--jobs",
    "--engine", "--cache-root", *_OBS_FLAGS,
}
#: Every command and the flags it (and only it) takes.
COMMAND_FLAGS = {
    **{
        figure_id: (
            _FIGURE_FLAGS if figure_id in PARALLEL_FIGURES else _ANALYTIC_FIGURE_FLAGS
        )
        | ({"--topology"} if figure_id in TOPOLOGY_FIGURES else set())
        for figure_id in figure_ids()
    },
    "all": _FIGURE_FLAGS,
    "list": set(),
    "bench": {"--jobs"},
    "cache": {"--cache-root"},
    "claims": {"--cache-root", "--max-age"},
    "campaign": {
        "--jobs", "--cache-root", "--plot", "-o", "--output", *_OBS_FLAGS,
        "--shard", "--dispatch", "--endpoints", "--chunk-size",
    },
    "predict": {
        "--jobs", "--cache-root", *_OBS_FLAGS,
        "--holdout", "--point", "--tolerance", "--fresh-seeds",
    },
    "obs": {"-o", "--output"},
    "serve": _SERVER_FLAGS | {"--no-cache", "--resume", "--predict-table"},
    "loadgen": _SERVER_FLAGS | {
        "--clients", "--period", "--load-jitter", "--duration", "--seed",
        "--real-time", "--retries", "--chaos",
    },
}

#: Stand-ins for the placeholders the docs write in angle brackets.
_PLACEHOLDERS = {
    "<fig>": "fig10",
    "<spec>": "study.json",
    "<id>": "0123456789abcdef",
    "<table-id>": "0123456789abcdef",
    "<table-path-or-id>": "0123456789abcdef",
    "N": "2",
}


def _shell_invocations(text: str) -> list[list[str]]:
    """Every ``python -m repro ...`` argv written as a shell line."""
    found = []
    for match in re.finditer(
        r"python3? -m repro ([^\n`#&]*)", text.replace("\\\n", " ")
    ):
        line = re.split(r"\s\d*>", match[1])[0]  # drop a redirection
        argv = [_PLACEHOLDERS.get(word, word) for word in shlex.split(line)]
        i = next((i for i, word in enumerate(argv) if "|" in word), None)
        if i is None:
            found.append(argv)
        else:  # "obs summary|export-trace|top" documents three invocations
            found += [argv[:i] + [word] + argv[i + 1:] for word in argv[i].split("|")]
    return found


def _python_invocations(source: str) -> list[list[str]]:
    """Every repro argv built in Python: ``[sys.executable, "-m", "repro",
    ...]`` lists and calls of a ``run(*args)`` helper that prefixes them.
    Values computed at run time stand in as ``"x"``."""

    def words(nodes):
        return [n.value if isinstance(n, ast.Constant) else "x" for n in nodes]

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.List) and words(node.elts[1:3]) == ["-m", "repro"]:
            if not any(isinstance(n, ast.Starred) for n in node.elts):
                found.append(words(node.elts[3:]))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "run"
        ):
            found.append(words(node.args))
    return found


def _documented_invocations() -> dict[str, list[list[str]]]:
    ci = (REPO / ".github/workflows/ci.yml").read_text()
    heredocs = re.findall(r"<<'SMOKE'\n(.*?)\n\s*SMOKE\n", ci, flags=re.S)
    return {
        "ci.yml": _shell_invocations(ci)
        + [
            argv
            for body in heredocs
            for argv in _python_invocations(textwrap.dedent(body))
        ],
        "README.md": _shell_invocations((REPO / "README.md").read_text()),
        "EXPERIMENTS.md": _shell_invocations(
            (REPO / "EXPERIMENTS.md").read_text()
        ),
        "serve_mixed.py": _python_invocations(
            (REPO / "perfbench/serve_mixed.py").read_text()
        ),
    }


class TestCommandParsers:
    def test_every_command_has_a_flag_table(self, capsys):
        assert main(["nope"]) == 2
        choices = capsys.readouterr().err.split("choose from")[1]
        assert set(re.findall(r"'([\w-]+)'", choices)) == set(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_only_the_commands_own_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text))
        assert flags - {"-h", "--help"} == COMMAND_FLAGS[command]

    def test_topology_only_on_the_topology_figures(self, capsys):
        assert TOPOLOGY_FIGURES == {"fig10", "fig11"}
        assert main(["fig04", "--help"]) == 0
        assert "--topology" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            "fig10 --port 9",
            "fig04 --topology ring",
            "serve --fast",
            "cache --topology ring",
            "campaign run s.json --chaos",
            "fig10 --predict",
            "serve --predict x",
            "fig10 --fast --port 9 --workers 3 --chaos --shard 0/2",
            "fig09 --engine cascade",
            "fig04 --jobs 2",
            "fig13 --no-cache",
            "fig01 --resume",
            "fig14 --cache-root x",
        ],
    )
    def test_misrouted_or_abbreviated_flags_are_usage_errors(self, argv, capsys):
        # Parse only: were the flag accepted, main would run the command.
        with pytest.raises(SystemExit) as stop:
            build_parser(argv.split()[0]).parse_args(argv.split())
        assert stop.value.code == 2
        assert "usage: repro-sync" in capsys.readouterr().err

    def test_documented_invocations_parse(self):
        for source, invocations in _documented_invocations().items():
            assert invocations, source
            for argv in invocations:
                try:
                    args = build_parser(argv[0]).parse_args(argv)
                except SystemExit:
                    pytest.fail(f"{source}: repro {' '.join(argv)} does not parse")
                assert callable(args.handler)

    def test_figures_honour_cache_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig10", "--fast", "--cache-root", "mine"]) == 0
        assert list((tmp_path / "mine").glob("*.json"))
        assert not (tmp_path / "results").exists()

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, run_command


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table5"])
        assert args.command == "table5"
        assert args.bits == [5, 4, 3]
        assert not args.fast

    def test_bits_and_models(self):
        args = build_parser().parse_args(
            ["table2", "--bits", "4", "--models", "lenet", "--fast"]
        )
        assert args.bits == [4]
        assert args.models == ["lenet"]
        assert args.fast

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])


class TestTrainingFreeCommands:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        out = run_command(args)
        assert "table5" in out and "fig4" in out

    def test_table5(self):
        out = run_command(build_parser().parse_args(["table5"]))
        assert "lenet" in out and "resnet" in out
        assert "speedup" in out

    def test_fig1a(self):
        out = run_command(build_parser().parse_args(["fig1a"]))
        assert "speed_mhz" in out

    def test_fig3(self):
        out = run_command(build_parser().parse_args(["fig3"]))
        assert "truncated_l1" in out

    def test_main_returns_zero(self, capsys):
        assert main(["table5"]) == 0
        assert "Table 5" in capsys.readouterr().out

    def test_breakdown(self):
        out = run_command(
            build_parser().parse_args(["breakdown", "--models", "lenet", "--bits", "4"])
        )
        assert "crossbars" in out
        assert out.count("lenet") == 4  # one row per LeNet layer

    def test_programming(self):
        out = run_command(
            build_parser().parse_args(
                ["programming", "--models", "lenet", "--bits", "4", "6"]
            )
        )
        assert "pulses_per_device" in out

    def test_irdrop(self):
        out = run_command(build_parser().parse_args(["irdrop"]))
        assert "relative_error_pct" in out

    def test_plan_lenet_uses_integer_fast_path(self):
        out = run_command(
            build_parser().parse_args(["plan", "--models", "lenet", "--bits", "4"])
        )
        assert "ExecutionPlan" in out
        assert "int-gemm" in out
        assert "backend=int" in out

    def test_plan_resnet_compiles_residual_joins(self):
        out = run_command(
            build_parser().parse_args(["plan", "--models", "resnet", "--bits", "4"])
        )
        assert "backend=int" in out
        assert "join[identity]" in out and "join[projection]" in out

    def test_stream_bench_quick(self):
        out = run_command(
            build_parser().parse_args(
                ["stream-bench", "--models", "lenet", "--bits", "4", "--quick"]
            )
        )
        assert "windows_per_s" in out
        assert "bit-exact" in out and "MISMATCH" not in out

    def test_stream_bench_rejects_non_lenet(self):
        with pytest.raises(SystemExit, match="lenet"):
            run_command(
                build_parser().parse_args(
                    ["stream-bench", "--models", "resnet", "--bits", "4", "--quick"]
                )
            )


def _isolated_fast_settings(tmp_path, monkeypatch):
    # Redirect the cache so the test doesn't pollute .bench_cache.
    from repro.analysis import experiments as E

    fast = E.ExperimentSettings(
        train_size=E.FAST_SETTINGS.train_size,
        test_size=E.FAST_SETTINGS.test_size,
        widths=E.FAST_SETTINGS.widths,
        epochs=E.FAST_SETTINGS.epochs,
        cache_dir=str(tmp_path),
    )
    monkeypatch.setattr(E, "FAST_SETTINGS", fast)


class TestTrainingBackedCommand:
    def test_table2_fast_lenet(self, tmp_path, monkeypatch):
        _isolated_fast_settings(tmp_path, monkeypatch)
        out = run_command(
            build_parser().parse_args(
                ["table2", "--fast", "--models", "lenet", "--bits", "3"]
            )
        )
        assert "lenet" in out and "recovered" in out

    def test_healthcheck_faulty_chip_reports_findings(self, tmp_path, monkeypatch):
        _isolated_fast_settings(tmp_path, monkeypatch)
        out = run_command(
            build_parser().parse_args(
                ["healthcheck", "--fast", "--models", "lenet", "--bits", "4",
                 "--fault-rate", "0.02", "--variation", "0.05", "--remediate"]
            )
        )
        assert "FAULTY" in out
        assert "Injected faults" in out
        assert "Remediation ladder" in out
        assert "after repair" in out

    def test_healthcheck_ideal_chip_clean_bill(self, tmp_path, monkeypatch):
        _isolated_fast_settings(tmp_path, monkeypatch)
        out = run_command(
            build_parser().parse_args(
                ["healthcheck", "--fast", "--models", "lenet", "--bits", "4",
                 "--fault-rate", "0"]
            )
        )
        assert "HEALTHY" in out
        assert "FAULTY" not in out
        assert "0/" in out


class TestRunCommand:
    """``repro run``: named pipelines on the checkpointed DAG runner."""

    @staticmethod
    def _toy_builder(calls):
        def builder(fast, seed):
            from repro.flow import Pipeline

            def work():
                calls["work"] = calls.get("work", 0) + 1
                return 2 + seed

            pipe = Pipeline("toy/pipeline")
            pipe.step("work", work, config={"seed": seed})
            pipe.step("double", lambda x: x * 2, inputs=("work",))
            summarize = lambda result: f"toy total={result.output('double')}"  # noqa: E731
            return pipe, summarize
        return builder

    def _install_toy(self, monkeypatch, calls):
        from repro.flow import pipelines

        monkeypatch.setitem(pipelines.PIPELINES, "toy", self._toy_builder(calls))

    def test_missing_target_lists_pipelines(self, capsys):
        assert main(["run"]) == 2
        out = capsys.readouterr().out
        assert "quantization" in out and "sweep" in out and "yield" in out

    def test_unknown_pipeline_rejected(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown pipeline" in capsys.readouterr().out

    def test_negative_retries_rejected(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "toy", "--retries", "-1", "--run-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="retries"):
            run_command(args)

    def test_run_executes_then_resumes(self, tmp_path, monkeypatch, capsys):
        calls = {}
        self._install_toy(monkeypatch, calls)
        argv = ["run", "toy", "--run-dir", str(tmp_path)]

        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "toy total=4" in first and "executed" in first
        assert "failsink: empty" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "toy total=4" in second and "cached" in second
        assert calls == {"work": 1}  # resume: nothing re-executed

    def test_force_reexecutes(self, tmp_path, monkeypatch, capsys):
        calls = {}
        self._install_toy(monkeypatch, calls)
        argv = ["run", "toy", "--run-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + ["--force"]) == 0
        assert calls == {"work": 2}
        assert "executed" in capsys.readouterr().out

    def test_failed_step_reports_and_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        from repro.flow import FatalError, Pipeline, pipelines

        def broken_builder(fast, seed):
            def boom():
                raise FatalError("injected")

            pipe = Pipeline("toy/broken")
            pipe.step("boom", boom)
            return pipe, lambda result: ""

        monkeypatch.setitem(pipelines.PIPELINES, "broken", broken_builder)
        assert main(["run", "broken", "--run-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "re-run to resume" in out

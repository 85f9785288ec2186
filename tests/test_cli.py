"""CLI surface tests (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["space"])
        assert args.command == "space"
        for cmd in ("sweep", "baseline"):
            assert build_parser().parse_args([cmd]).command == cmd

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_space(self, capsys):
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "288" in out and "1728" in out

    def test_latency(self, capsys):
        code = main([
            "latency", "--channels", "7", "--kernel-size", "3", "--padding", "1",
            "--pool-choice", "0", "--initial-output-feature", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cortexA76cpu" in out and "MEAN" in out

    def test_sweep_and_pareto(self, tmp_path, capsys):
        trials = tmp_path / "trials.jsonl"
        assert main(["sweep", "--out", str(trials), "--budget", "24"]) == 0
        assert trials.exists()
        html = tmp_path / "scatter.html"
        assert main(["pareto", str(trials), "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "Non-dominated" in out
        assert html.exists() and "const DATA" in html.read_text()

    def test_second_sweep_without_resume_leaves_the_file_alone(self, tmp_path, capsys):
        """A second run appended to the same file would record every trial twice."""
        trials = tmp_path / "trials.jsonl"
        assert main(["sweep", "--out", str(trials), "--budget", "8"]) == 0
        before = trials.read_bytes()
        for mode in ([], ["--nodes", "2"]):
            assert main(["sweep", "--out", str(trials), "--budget", "8", *mode]) == 2
            assert trials.read_bytes() == before
        assert "--resume" in capsys.readouterr().out

    def test_pareto_missing_file(self, tmp_path):
        assert main(["pareto", str(tmp_path / "none.jsonl")]) == 1

    @pytest.mark.parametrize("command", [
        ["pareto", "{dir}"],
        ["sweep", "--out", "{dir}", "--budget", "4"],
        ["sweep", "--out", "{dir}", "--budget", "4", "--resume"],
    ], ids=["pareto", "sweep", "sweep-resume"])
    def test_directory_as_trial_file_points_at_the_conversion(self, tmp_path, capsys, command):
        """A shard directory from an older version is not a trial file."""
        assert main([arg.format(dir=tmp_path) for arg in command]) == 2
        assert "Converting an old shard directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["latency", "energy", "quantize", "profile", "infer",
                                         "serve-bench"])
    def test_bad_config_flag_is_a_usage_error(self, capsys, command):
        """A flag ModelConfig rejects exits 2 with one stderr line, as argparse does."""
        assert main([command, "--stride", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro-nas {command}: stride must be positive, got 0\n"
        assert captured.out == ""

    def test_energy(self, capsys):
        assert main(["energy", "--kernel-size", "3", "--padding", "1",
                     "--pool-choice", "0", "--initial-output-feature", "32"]) == 0
        out = capsys.readouterr().out
        assert "energy_mj" in out and "myriadvpu" in out

    def test_quantize(self, capsys):
        assert main(["quantize", "--kernel-size", "3", "--padding", "1",
                     "--pool-choice", "0", "--initial-output-feature", "32"]) == 0
        out = capsys.readouterr().out
        assert "int8 storage" in out and "x smaller" in out

    def test_profile(self, capsys):
        code = main([
            "profile", "--size", "32", "--profile-batch", "1",
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        assert "stem" in capsys.readouterr().out

    def test_infer_compiled_and_interpreted(self, capsys):
        base = ["infer", "--size", "24", "--batch", "4", "--runs", "1",
                "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
                "--initial-output-feature", "32"]
        assert main(base) == 0
        compiled_out = capsys.readouterr().out
        assert "compiled plan" in compiled_out and "images/sec" in compiled_out
        assert main(base + ["--no-compiled"]) == 0
        interp_out = capsys.readouterr().out
        assert "interpreted" in interp_out
        # The equivalence guarantee in action: identical logits print.
        logits = [line for line in compiled_out.splitlines() if "logits" in line]
        assert logits and logits[0] in interp_out

    def test_serve_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        code = main([
            "serve-bench", "--size", "24", "--duration", "0.4", "--clients", "8",
            "--policy.max-batch-size", "4", "--policy.max-queue-delay-ms", "2",
            "--policy.max-queue-depth", "32",
            "--json", str(out),
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "images/sec" in text and "speedup" in text
        import json
        payload = json.loads(out.read_text())
        assert payload["serving"]["served"] > 0
        assert payload["policy"]["max_batch_size"] == 4
        assert "speedup_vs_serial" in payload

    def test_quantized_infer_then_serve_bench_share_autotune_cache(self, tmp_path, capsys):
        """The int8 scenario end to end: infer prints the variant/energy
        table, serve-bench reports the int8 layer count and the paired
        fp32 ratio.  Int8 layers bind only where the native kernels load."""
        from repro.deploy import native

        base = ["--size", "24", "--kernel-size", "3", "--padding", "1",
                "--pool-choice", "0", "--initial-output-feature", "32", "--quantized"]
        assert main(["infer", "--batch", "4", "--runs", "1", *base]) == 0
        out = capsys.readouterr().out
        assert "int8 layers" in out and "Kernel variants & estimated energy" in out
        assert f"kernels: {native.status()}" in out  # names the int8 GEMM engine
        assert "energy/inference" in out

        serving = tmp_path / "serving.json"
        code = main([
            "serve-bench", "--duration", "0.4", "--clients", "4",
            "--policy.max-batch-size", "4", "--policy.max-queue-delay-ms", "2",
            "--policy.max-queue-depth", "32",
            "--json", str(serving), *base,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "quantized vs fp32 serial" in out
        import json
        payload = json.loads(serving.read_text())
        assert (payload["quantized"]["int8_layers"] > 0) == (native.load() is not None)
        assert payload["quantized"]["quantized_vs_fp32"] > 0

    def test_serve_bench_process_mode_json(self, tmp_path, capsys):
        out = tmp_path / "serving_mp.json"
        code = main([
            "serve-bench", "--size", "24", "--duration", "0.4", "--clients", "8",
            "--policy.max-batch-size", "4", "--policy.max-queue-delay-ms", "2",
            "--policy.max-queue-depth", "32",
            "--policy.worker-mode", "process", "--policy.replicas", "2",
            "--json", str(out),
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "mode process" in text and "pids" in text
        import json
        payload = json.loads(out.read_text())
        assert payload["policy"]["worker_mode"] == "process"
        assert payload["serving"]["served"] > 0
        assert payload["counters"]["batches_executed"] > 0
        assert payload["counters"]["worker_deaths"] == 0
        extra = payload["extra_info"]
        assert extra["worker_mode"] == "process"
        assert extra["cpu_count"] >= 1
        # Replicas were clamped to the cores actually available.
        assert 1 <= extra["workers"] <= extra["cpu_count"]
        assert extra["degraded"] is False
        assert extra["shared_weight_bytes"] > 0
        assert extra["worker_private_weight_bytes"] == 0

    def test_serve_bench_policy_seeding(self, capsys):
        code = main([
            "serve-bench", "--size", "24", "--duration", "0.3", "--clients", "4",
            "--target-p99-ms", "200",
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        assert "policy seeded from latency predictors" in capsys.readouterr().out

    def test_serve_bench_json_records_resolved_serve_config(self, tmp_path):
        out = tmp_path / "serving.json"
        code = main([
            "serve-bench", "--size", "24", "--duration", "0.3", "--clients", "4",
            "--policy.max-batch-size", "4", "--policy.max-queue-delay-ms", "2",
            "--policy.max-queue-depth", "32",
            "--json", str(out),
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        import json
        payload = json.loads(out.read_text())
        resolved = payload["extra_info"]["serve_config"]
        assert resolved["policy"]["max_batch_size"] == 4
        assert resolved["policy"]["max_queue_depth"] == 32
        assert resolved["warm"] is True
        assert resolved["admission"] is None

    def test_serve_bench_fleet_scenario_json(self, tmp_path, capsys):
        out = tmp_path / "serving_fleet.json"
        code = main([
            "serve-bench", "--fleet", "3", "--size", "24", "--duration", "0.8",
            "--clients", "8", "--policy.max-batch-size", "4",
            "--policy.max-queue-delay-ms", "2", "--policy.max-queue-depth", "64",
            "--assert-slo", "0.5", "--json", str(out),
            "--kernel-size", "3", "--padding", "1", "--pool-choice", "0",
            "--initial-output-feature", "32",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "registered pareto-s" in text
        assert "SLO assertion passed" in text
        import json
        payload = json.loads(out.read_text())
        assert set(payload["models"]) == {"pareto-s", "pareto-m", "pareto-l"}
        serving = payload["serving"]
        assert serving["served"] > 0
        assert serving["errors"] == 0
        assert serving["all_routes_fit_budget"] is True
        assert serving["slo_attainment"] >= 0.5
        # Every tenant's traffic was routed somewhere on the ladder.
        assert sum(serving["per_model"].values()) == serving["served"]
        resolved = payload["extra_info"]["serve_config"]
        assert resolved["admission"]["tenants"]["interactive"]["priority"] == 1
        assert resolved["autoscaler"]["max_replicas"] >= 1

    def test_serve_bench_fleet_rate_drives_an_open_loop(self, tmp_path):
        out = tmp_path / "serving_fleet_open.json"
        code = main([
            "serve-bench", "--fleet", "2", "--size", "24", "--duration", "0.5",
            "--clients", "8", "--rate", "40", "--policy.max-batch-size", "4",
            "--json", str(out),
        ])
        assert code == 0
        import json
        serving = json.loads(out.read_text())["serving"]
        # ~20 requests at 40 img/s over 0.5 s; a closed loop serves hundreds.
        assert 1 <= serving["served"] <= 40

    @pytest.mark.parametrize("flag", [
        ["--quantized"],
        ["--target-p99-ms", "5"],
        ["--policy.worker-mode", "process"],
    ])
    def test_serve_bench_fleet_rejects_single_model_flags(self, flag):
        assert main(["serve-bench", "--fleet", "2", "--duration", "0.2", *flag]) == 2

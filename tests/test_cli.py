"""Command-line interface."""

import pytest

from repro.cli import main


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "alexnet" in out
        assert "resnext101_3d" in out


class TestSummary:
    def test_small_model(self, capsys):
        assert main(["summary", "mlp", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "NNGraph" in out and "training memory estimate" in out

    def test_exceeds_marker(self, capsys):
        assert main(["summary", "resnet50", "--batch", "512"]) == 0
        assert "EXCEEDS" in capsys.readouterr().out

    def test_3d_input_size(self, capsys):
        assert main(["summary", "resnext101_3d", "--batch", "1",
                     "--input-size", "16", "112", "112"]) == 0
        assert "resnext101_3d" in capsys.readouterr().out

    def test_unknown_model_fails(self, capsys):
        assert main(["summary", "resnet9000"]) == 1
        assert "unknown model" in capsys.readouterr().err


class TestRun:
    def test_in_core_small(self, capsys):
        assert main(["run", "mlp", "--batch", "8", "--method", "in-core"]) == 0
        assert "img/s" in capsys.readouterr().out

    def test_in_core_oom_exit_code(self, capsys):
        assert main(["run", "resnet50", "--batch", "512",
                     "--method", "in-core"]) == 2
        assert "OUT OF MEMORY" in capsys.readouterr().err

    def test_swap_all_out_of_core(self, capsys):
        assert main(["run", "small_cnn", "--batch", "8",
                     "--method", "swap-all"]) == 0

    def test_superneurons(self, capsys):
        assert main(["run", "small_cnn", "--batch", "8",
                     "--method", "superneurons"]) == 0

    def test_checkpoint(self, capsys):
        assert main(["run", "linear_chain", "--batch", "4",
                     "--method", "checkpoint"]) == 0


class TestOptimizeAndTimeline:
    def test_optimize_poster(self, capsys):
        assert main(["optimize", "poster_example", "--batch", "64",
                     "--budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "PoocH plan" in out and "ground-truth iteration" in out

    def test_optimize_verbose(self, capsys):
        assert main(["optimize", "mlp", "--batch", "8", "--budget", "20",
                     "--verbose"]) == 0
        assert "Classification:" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "poster_example", "--batch", "64",
                     "--plan", "swap", "--policy", "naive",
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "compute" in out and "h2d" in out

    def test_timeline_keep_plan(self, capsys):
        assert main(["timeline", "mlp", "--batch", "8",
                     "--plan", "keep"]) == 0


class TestOptimizeCacheAndWorkers:
    def test_plan_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["optimize", "poster_example", "--batch", "64",
                "--budget", "50", "--plan-cache", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "plan reused from cache" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "plan reused from cache" in second
        assert "step1=0 step2=0" in second  # no re-search on the hit


class TestReport:
    def test_collates_results(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("== A ==\nrow\n")
        (tmp_path / "b.txt").write_text("== B ==\nrow\n")
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== A ==" in out and "== B ==" in out
        assert "2 result tables" in out

    def test_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "no results" in capsys.readouterr().err


class TestArgValidation:
    """--budget must be rejected cleanly when non-positive."""

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "0"), ("--budget", "-5"), ("--budget", "abc"),
    ])
    @pytest.mark.parametrize("command", ["optimize", "run"])
    def test_non_positive_rejected(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as e:
            main([command, "mlp", flag, value])
        assert e.value.code == 2  # argparse's usage-error exit
        assert "positive integer" in capsys.readouterr().err

    def test_positive_values_accepted(self, capsys):
        assert main(["run", "mlp", "--batch", "8", "--method", "in-core",
                     "--budget", "10"]) == 0

    @pytest.mark.parametrize("flag", [
        "--workers=2", "--no-prune", "--no-incremental",
        "--no-incremental-step2", "--no-vectorize",
    ])
    @pytest.mark.parametrize("command", ["optimize", "run"])
    def test_search_speed_flags_removed(self, command, flag, capsys):
        # the search runs one configuration: speed knobs are not options
        with pytest.raises(SystemExit) as e:
            main([command, "mlp", flag])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-8", "abc"])
    def test_bad_batch_rejected(self, value, capsys):
        # regression: --batch used to accept 0/-8 and crash deep inside
        # graph construction instead of failing at the parser
        with pytest.raises(SystemExit) as e:
            main(["summary", "mlp", "--batch", value])
        assert e.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [["0", "112", "112"],
                                      ["16", "-1", "112"]])
    def test_bad_input_size_rejected(self, size, capsys):
        with pytest.raises(SystemExit) as e:
            main(["summary", "resnext101_3d", "--input-size", *size])
        assert e.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_bad_devices_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as e:
            main(["optimize", "mlp", "--devices", value])
        assert e.value.code == 2
        assert "positive integer" in capsys.readouterr().err


    @pytest.mark.parametrize("argv,named", [
        (["serve", "--port", "70000"], "70000"),
        (["serve", "--port", "-1"], "-1"),
        (["serve", "--port", "http"], "'http'"),
        (["client", "health", "--timeout", "-1"], "'-1'"),
        (["client", "health", "--timeout", "0"], "'0'"),
        (["client", "health", "--timeout", "nan"], "'nan'"),
        (["client", "health", "--timeout", "inf"], "'inf'"),
        (["timeline", "poster_example", "--width", "0"], "0"),
        (["timeline", "poster_example", "--width", "-5"], "-5"),
    ], ids=["port-too-large", "port-negative", "port-text",
            "timeout-negative", "timeout-zero", "timeout-nan",
            "timeout-inf", "width-zero", "width-negative"])
    def test_numeric_boundaries_rejected(self, argv, named, capsys):
        # each used to end in a traceback (bind, socket timeout) or, for
        # --width, in empty bars and exit 0
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"got {named}" in err
        assert "Traceback" not in err


class TestMultiDeviceFlags:
    def test_optimize_devices(self, capsys):
        assert main(["optimize", "mlp", "--batch", "8", "--budget", "20",
                     "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "multi-device plan for 2 devices" in out
        assert "naive (synchronized)" in out
        assert "img/s aggregate" in out

    def test_run_pooch_devices(self, capsys):
        assert main(["run", "mlp", "--batch", "8", "--budget", "20",
                     "--devices", "2"]) == 0
        assert "2-device iteration" in capsys.readouterr().out

    def test_run_baseline_devices_synchronized(self, capsys):
        assert main(["run", "small_cnn", "--batch", "8",
                     "--method", "swap-all", "--devices", "2"]) == 0
        assert "(synchronized)" in capsys.readouterr().out

    def test_single_device_output_unchanged(self, capsys):
        argv = ["run", "mlp", "--batch", "8", "--method", "in-core"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main([*argv, "--devices", "1"]) == 0
        assert capsys.readouterr().out == clean

    def test_devices_metrics_section(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert main(["optimize", "mlp", "--batch", "8", "--budget", "20",
                     "--devices", "2", "--metrics", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["devices"] == 2
        devices = doc["sections"]["devices"]
        assert devices["count"] == 2
        assert devices["makespan_staggered_s"] <= devices["makespan_naive_s"]


class TestFaultFlags:
    def test_run_with_faults(self, capsys):
        assert main(["run", "small_cnn", "--batch", "8",
                     "--method", "swap-all",
                     "--faults", "duration_noise=0.1,stall_prob=0.2",
                     "--fault-seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "executed plan:" in out
        assert "img/s" in out

    def test_faulted_run_reproducible(self, capsys):
        argv = ["run", "small_cnn", "--batch", "8", "--method", "swap-all",
                "--faults", "duration_noise=0.1,stall_prob=0.2",
                "--fault-seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_fault_spec_fails_cleanly(self, capsys):
        assert main(["run", "mlp", "--faults", "bogus=1"]) == 1
        assert "unknown fault spec key" in capsys.readouterr().err

    def test_inert_faults_equal_no_faults(self, capsys):
        argv = ["run", "small_cnn", "--batch", "8", "--method", "swap-all"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main([*argv, "--faults", "none"]) == 0
        assert capsys.readouterr().out == clean

    def test_pooch_run_with_faults(self, capsys):
        assert main(["run", "mlp", "--batch", "8", "--method", "pooch",
                     "--faults", "profile_noise=0.1", "--fault-seed", "2"]) == 0
        assert "executed plan:" in capsys.readouterr().out

    def test_pooch_multi_device_iteration_runs_the_faulted_timeline(
        self, tmp_path, capsys
    ):
        import json
        import re

        def run(*extra):
            trace = tmp_path / f"trace{len(list(tmp_path.iterdir()))}.json"
            assert main(["run", "poster_example", "--batch", "64",
                         "--budget", "50", "--devices", "2",
                         "--trace", str(trace), *extra]) == 0
            out = capsys.readouterr().out
            line = re.search(r"2-device iteration \(staggered\): (\S+) ms",
                             out).group(1)
            device_events = sorted(
                (e["name"], e["args"]["device"], e["ts"])
                for e in json.loads(trace.read_text())["traceEvents"]
                if "device" in e.get("args", {}))
            return line, device_events

        clean = run()
        faulted = [run("--faults", "duration_noise=0.3", "--fault-seed", seed)
                   for seed in ("1", "2")]
        # each fault seed's multi-device line and trace come from its own
        # faulted iteration, not from the stagger stage's clean run
        lines = {clean[0]} | {f[0] for f in faulted}
        assert len(lines) == 3
        assert clean[1] != faulted[0][1] != faulted[1][1]


class TestRobustnessCommand:
    def test_sweep_renders_table(self, capsys):
        assert main(["robustness", "small_cnn", "--batch", "8",
                     "--noise-levels", "0.05", "0.1",
                     "--fault-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "robustness" in out
        assert "degradation" in out and "fallbacks" in out

    def test_explicit_spec_overrides_ladder(self, capsys):
        assert main(["robustness", "small_cnn", "--batch", "8",
                     "--faults", "stall_prob=0.2"]) == 0
        out = capsys.readouterr().out
        assert "stall_prob=0.2" in out

    def test_seed_distribution_sweep(self, capsys):
        assert main(["robustness", "small_cnn", "--batch", "8",
                     "--fault-seeds", "4",
                     "--faults", "duration_noise=0.1"]) == 0
        out = capsys.readouterr().out
        assert "4 fault seeds" in out
        assert "p95" in out and "p99" in out
        # a pure duration-noise spec runs every seed in lockstep
        assert "4/0" in out

    def test_negative_fault_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["robustness", "small_cnn", "--fault-seed", "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_negative_fault_seed_rejected_on_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "mlp", "--faults", "duration_noise=0.1",
                  "--fault-seed", "-3"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

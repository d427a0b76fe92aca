"""CLI smoke tests (each subcommand runs in-process)."""

import pytest

from repro.cli import main


class TestCli:
    def test_model_to_file(self, tmp_path, capsys):
        out = tmp_path / "icelab.sysml"
        assert main(["model", "--out", str(out)]) == 0
        assert "part ICETopology" in out.read_text()

    def test_validate_builtin(self, capsys):
        assert main(["validate"]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_validate_file_with_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sysml"
        bad.write_text("part x : Missing;")
        assert main(["validate", str(bad)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_validate_over_deep_file_is_a_front_end_error(self, tmp_path,
                                                          capsys):
        deep = tmp_path / "deep.sysml"
        deep.write_text("package P { " * 400 + "}" * 400)
        assert main(["validate", str(deep)]) == 1
        assert "nest deeper than" in capsys.readouterr().out

    def test_convert_malformed_json_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ownedElements": [{"@type": "Alias", "name": "a"}]}')
        assert main(["convert", str(bad), str(tmp_path / "out.sysml")]) == 1
        assert "malformed JSON model" in capsys.readouterr().out
        assert not (tmp_path / "out.sysml").exists()

    def test_validate_file_ok(self, tmp_path, capsys):
        good = tmp_path / "good.sysml"
        good.write_text("part def M { attribute a : Real; } part m : M;")
        assert main(["validate", str(good)]) == 0

    def test_validate_loads_a_converted_json_model(self, tmp_path, capsys):
        text, json_model = tmp_path / "m.sysml", tmp_path / "m.json"
        assert main(["model", "--out", str(text)]) == 0
        assert main(["convert", str(text), str(json_model)]) == 0
        capsys.readouterr()
        assert main(["validate", str(json_model)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_validate_unknown_suffix_is_one_front_end_error(self, tmp_path,
                                                            capsys):
        weird = tmp_path / "model.xml"
        weird.write_text("<model/>")
        assert main(["validate", str(weird)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"FRONT-END ERROR: {weird}:1:1: ")
        assert "unknown model file suffix '.xml'" in lines[0]

    @pytest.fixture()
    def lab_files(self, tmp_path):
        """The ICE lab as ``.sysml`` and as the ``.json`` convert writes."""
        text, json_model = tmp_path / "lab.sysml", tmp_path / "lab.json"
        assert main(["model", "--out", str(text)]) == 0
        assert main(["convert", str(text), str(json_model)]) == 0
        return text, json_model

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "7"],
        ["plan", "--seed", "7", "--problems", "1"]],
        ids=["simulate", "plan"])
    def test_json_model_gives_the_sysml_digest(self, argv, lab_files,
                                               capsys):
        digests = []
        for path in lab_files:
            capsys.readouterr()
            assert main([*argv, str(path)]) == 0
            digests.append([line for line in
                            capsys.readouterr().out.splitlines()
                            if line.startswith("digest ")])
        assert len(digests[0]) == 1
        assert digests[0] == digests[1]

    def test_trace_loads_a_json_model(self, lab_files, capsys):
        import json
        summaries = []
        for path in lab_files:
            capsys.readouterr()
            assert main(["trace", "--json", str(path)]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            del result["generation_time_s"]
            summaries.append(result)
        assert summaries[0]["opcua_servers"] == 6
        assert summaries[0] == summaries[1]

    def test_generate(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "opcua_servers: 6" in out
        assert "opcua_clients: 4" in out
        assert (tmp_path / "manifests").exists()

    def test_generate_capacity_knob(self, capsys):
        assert main(["generate", "--capacity", "600"]) == 0
        assert "opcua_clients: 1" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "conveyor" in out
        assert "OPC UA clients: 4" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out

    def test_figures_dot(self, capsys):
        assert main(["figures", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_deploy(self, capsys):
        assert main(["deploy", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "RESULT: OK" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        assert "catch rate" in capsys.readouterr().out

    def test_convert_roundtrip(self, tmp_path, capsys):
        sysml = tmp_path / "m.sysml"
        sysml.write_text("part def M { attribute a : Real; } part m : M;")
        json_path = tmp_path / "m.json"
        assert main(["convert", str(sysml), str(json_path)]) == 0
        back = tmp_path / "back.sysml"
        assert main(["convert", str(json_path), str(back)]) == 0
        assert "part m : M" in back.read_text()

    def test_handbook_to_file(self, tmp_path):
        out = tmp_path / "handbook.md"
        assert main(["handbook", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# ICE Laboratory handbook")
        assert "### conveyor" in text

    def test_verify(self, capsys):
        assert main(["verify", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out

    def test_deploy_prints_kpis(self, capsys):
        assert main(["deploy", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "availability 100%" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestPerfSurface:
    """--cache-dir on generate, the cache subcommand, and the pool
    width that only simulate/plan/conformance keep."""

    def test_generate_rejects_jobs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--jobs", "2"], ["simulate", "--mode", "serial"],
        ["plan", "--mode", "process"]])
    def test_pool_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_plan_keeps_jobs(self, capsys):
        digests = []
        for jobs in ("1", "2"):
            assert main(["plan", "--problems", "2", "--jobs", jobs]) == 0
            digests += [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("digest ")]
        assert len(digests) == 2 and digests[0] == digests[1]

    def test_generate_jobs_and_cache_match_serial(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        fast_dir = tmp_path / "fast"
        assert main(["generate", "--out", str(serial_dir)]) == 0
        assert main(["generate", "--out", str(fast_dir),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        serial_files = sorted(p.relative_to(serial_dir)
                              for p in serial_dir.rglob("*") if p.is_file())
        fast_files = sorted(p.relative_to(fast_dir)
                            for p in fast_dir.rglob("*") if p.is_file())
        assert serial_files == fast_files
        for rel in serial_files:
            assert ((serial_dir / rel).read_bytes()
                    == (fast_dir / rel).read_bytes())

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["generate", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and cache_dir in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_trace_reports_cache_counters(self, tmp_path, capsys):
        assert main(["trace",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "=== cache ===" in out
        assert "cache.misses" in out

    def test_trace_keeps_the_cache_within_its_bound(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["trace", "--cache-dir", str(cache_dir),
                     "--cache-max-bytes", "20000"]) == 0
        stored = sum(path.stat().st_size for path in cache_dir.rglob("*")
                     if path.is_file())
        assert stored <= 20000


class TestOptionErrors:
    """A nonsense count is one line on stderr and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["plan", "--orders", "0"], ["plan", "--orders", "-3"],
        ["plan", "--problems", "-1"], ["plan", "--problems", "0"],
        ["simulate", "--base-jobs", "0"], ["simulate", "--base-jobs", "-2"],
        ["plan", "--jobs", "0"], ["plan", "--jobs", "-2"],
        ["conformance", "--jobs", "0"], ["conformance", "--jobs", "-1"],
        ["generate", "--capacity", "0"], ["trace", "--capacity", "-1"],
        ["generate", "--namespace", "Bad_Name"],
        ["serve", "--namespace", "Edge"]])
    def test_rejected_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert argv[1].lstrip("-").replace("-", "_") in captured.err


class TestServiceSurface:
    """The CLI surface added alongside the serving subsystem."""

    def test_cache_stats_missing_dir_is_friendly(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        assert f"no cache at {missing}" in capsys.readouterr().out
        assert not missing.exists()  # inspection must not create it

    def test_cache_clear_missing_dir_is_friendly(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert f"no cache at {missing}" in capsys.readouterr().out
        assert not missing.exists()

    def test_cache_clear_empty_dir_reports_nothing_removed(
            self, tmp_path, capsys):
        empty = tmp_path / "cache"
        empty.mkdir()
        assert main(["cache", "clear", "--cache-dir", str(empty)]) == 0
        assert "nothing to remove" in capsys.readouterr().out

    def test_validate_json_ok(self, capsys):
        import json

        assert main(["validate", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["errors"] == 0
        assert document["diagnostics"] == []

    def test_validate_json_front_end_error(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.sysml"
        bad.write_text("part x : Missing;")
        assert main(["validate", "--json", str(bad)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["errors"] == 1
        assert document["front_end_error"]["message"]
        assert document["front_end_error"]["kind"]

    def test_serve_parser_accepts_service_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-inflight", "4",
             "--backpressure", "block", "--block-deadline", "2.5",
             "--rate", "10", "--drain-deadline", "3"])
        assert args.port == 0
        assert args.max_inflight == 4
        assert args.backpressure == "block"
        assert args.func is not None


class TestConformanceSurface:
    """The differential conformance subcommand."""

    def test_list_oracles(self, capsys):
        assert main(["conformance", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in ("roundtrip", "interchange", "cache",
                     "serve", "grouping"):
            assert name in out

    def test_small_run_passes_and_writes_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert main(["conformance", "--seeds", "3", "--jobs", "2",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s) over 3 seeds" in out
        assert "digest:" in out
        document = json.loads(report_path.read_text())
        assert document["schema"] == "repro/conformance-report/1"
        assert document["ok"] is True
        assert document["seeds"] == 3

    def test_digest_stable_across_jobs(self, tmp_path):
        import json

        digests = []
        for jobs in ("1", "3"):
            path = tmp_path / f"report-{jobs}.json"
            assert main(["conformance", "--seeds", "3", "--jobs", jobs,
                         "--oracles", "roundtrip,grouping",
                         "--report", str(path)]) == 0
            digests.append(json.loads(path.read_text())["digest"])
        assert digests[0] == digests[1]

    def test_unknown_oracle_is_a_usage_error(self, capsys):
        assert main(["conformance", "--seeds", "1",
                     "--oracles", "bogus"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_hostile_run(self, capsys):
        assert main(["conformance", "--seeds", "2", "--hostile",
                     "--oracles", "roundtrip"]) == 0
        assert "(hostile)" in capsys.readouterr().out

    def test_list_oracles_marks_chaos_opt_in(self, capsys):
        assert main(["conformance", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "opt-in" in out

    def test_chaos_flag_runs_the_chaos_oracle(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "chaos-report.json"
        assert main(["conformance", "--seeds", "1", "--chaos",
                     "--oracles", "grouping",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "(chaos)" in out
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["oracles"] == ["grouping", "chaos"]

"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestSuiteCommand:
    def test_lists_profiles(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "ibm01" in out
        assert "ibm18" in out
        assert "12282" in out


class TestPlaceCommand:
    def test_place_suite_circuit(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "result")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--out", out_prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "placing ibm01@0.01" in out
        assert os.path.exists(out_prefix + ".pl")
        assert os.path.exists(out_prefix + ".nodes")

    def test_place_with_maps(self, capsys):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--maps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cell density, layer 0" in out
        assert "area util" in out

    def test_place_bookshelf_input(self, capsys, tmp_path):
        from repro import load_benchmark
        from repro.netlist import bookshelf
        prefix = str(tmp_path / "circ")
        bookshelf.write_bookshelf(prefix, load_benchmark(
            "ibm01", scale=0.01))
        code = main(["place", "--bookshelf", prefix, "--layers", "2"])
        assert code == 0
        assert "placing circ" in capsys.readouterr().out

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["place"])

    def test_place_with_telemetry_out_and_trace(self, capsys, tmp_path):
        import json

        from repro.obs import read_events, validate_manifest
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--trace",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- spans --" in out
        assert "-- counters --" in out
        manifest = json.load(open(prefix + ".manifest.json"))
        assert validate_manifest(manifest) == []
        assert manifest["trace_path"] == prefix + ".trace.jsonl"
        events = read_events(prefix + ".trace.jsonl")
        assert any(e["type"] == "span" and e["path"] == "place"
                   for e in events)

    def test_manifest_spans_are_truthful(self, capsys, tmp_path,
                                         monkeypatch):
        import json
        import re

        from repro.core.globalplace import GlobalPlacer
        dispatched = []
        dispatch = GlobalPlacer._dispatch

        def counting_dispatch(self, tasks, *args):
            dispatched.append(len(tasks))
            return dispatch(self, tasks, *args)

        monkeypatch.setattr(GlobalPlacer, "_dispatch", counting_dispatch)
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.02", "--layers", "2", "--telemetry-out", prefix])
        assert code == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        stages = {s["path"]: s for s in manifest["stages"]}
        assert [p for p, s in stages.items() if s["calls"] == 0] == []
        levels = [p for p in stages
                  if re.fullmatch(r"place/global/level\d+", p)]
        assert len(levels) == len(dispatched) > 1
        for path in levels:
            assert stages[path + "/build"]["calls"] == 1
            assert stages[path + "/solve"]["calls"] == 1
        assert (manifest["counters"]["global/bisections"]
                == sum(dispatched))

    def test_place_with_profile(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.obs import validate_manifest
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--profile-interval", "0.002",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- memory --" in out
        assert "-- hot functions --" in out
        # --profile sets the env for worker processes, then restores it
        assert "REPRO_PROFILE" not in os.environ
        manifest = json.load(open(prefix + ".manifest.json"))
        assert validate_manifest(manifest) == []
        resources = manifest["resources"]
        assert resources["peak_rss_bytes"] > 0
        assert resources["samples"] > 0
        # plain --profile keeps tracemalloc off (it costs ~8x; needs
        # the deeper --profile-alloc opt-in)
        assert resources["tracemalloc"]["enabled"] is False
        profile = manifest["profile"]
        assert profile["interval_seconds"] == 0.002
        assert profile["samples"] >= 0
        collapsed = prefix + ".collapsed.txt"
        assert os.path.exists(collapsed)
        # the collapsed file and the manifest agree on sample count
        from repro.obs import ProfileData
        with open(collapsed) as fh:
            data = ProfileData.from_collapsed(fh.read().splitlines())
        assert data.samples == profile["samples"]

    def test_place_with_profile_alloc(self, capsys, tmp_path,
                                      monkeypatch):
        import json

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_PROFILE_ALLOC", raising=False)
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--profile-alloc", "--telemetry-out", prefix])
        assert code == 0
        assert "REPRO_PROFILE_ALLOC" not in os.environ  # restored
        manifest = json.load(open(prefix + ".manifest.json"))
        trace = manifest["resources"]["tracemalloc"]
        assert trace["enabled"] is True
        assert trace["peak_bytes"] > 0
        assert trace["top_allocations"]

    def test_obs_report_on_profiled_manifest(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        prefix = str(tmp_path / "run")
        assert main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--telemetry-out", prefix]) == 0
        capsys.readouterr()
        assert main(["obs", "report", prefix + ".manifest.json"]) == 0
        out = capsys.readouterr().out
        assert "== run report: ibm01@0.01 ==" in out
        assert "-- stages --" in out
        assert "-- memory --" in out
        assert "-- hot functions --" in out

    def test_verbose_flag_emits_progress_logs(self, capsys):
        code = main(["-v", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.core.placer" in err
        assert "objective state built" in err
        assert "round 1/" in err


class TestPlaceStore:
    """`place` runs in-process without a store and through the service
    engine with one; the placement is the same either way."""

    ARGS = ["place", "--circuit", "ibm01", "--scale", "0.01",
            "--layers", "2"]

    def test_storeless_place_leaves_no_spool(self, capsys, tmp_path,
                                             monkeypatch):
        import tempfile

        import repro.cli

        def no_engine(*args, **kwargs):
            raise AssertionError("storeless place built a job engine")

        spool = tmp_path / "tmp"
        spool.mkdir()
        monkeypatch.setenv("TMPDIR", str(spool))
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        with monkeypatch.context() as patch:
            patch.setattr(repro.cli, "PlacementEngine", no_engine)
            assert main(self.ARGS + ["--out", str(tmp_path / "a")]) == 0
        assert list(spool.iterdir()) == []
        jobs = tmp_path / "jobs"
        assert main(self.ARGS + ["--jobs-dir", str(jobs),
                                 "--out", str(tmp_path / "b")]) == 0
        assert (jobs / "job-000001" / "job.json").exists()
        assert (tmp_path / "a.pl").read_bytes() \
            == (tmp_path / "b.pl").read_bytes()

    def test_cache_dir_miss_then_hit(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest
        cache = str(tmp_path / "cache")
        for run in ("first", "second"):
            code = main(self.ARGS + [
                "--cache-dir", cache, "--out", str(tmp_path / run),
                "--telemetry-out", str(tmp_path / run)])
            assert code == 0
            out = capsys.readouterr().out
            assert ("cache hit" in out) == (run == "second")
            manifest = json.load(open(tmp_path / f"{run}.manifest.json"))
            assert validate_manifest(manifest) == []
            assert manifest["job"]["cache"] == \
                ("hit" if run == "second" else "miss")
        assert (tmp_path / "first.pl").read_bytes() \
            == (tmp_path / "second.pl").read_bytes()

    def test_storeless_manifest_has_null_job(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest
        prefix = str(tmp_path / "run")
        assert main(self.ARGS + ["--telemetry-out", prefix]) == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        assert manifest["job"] is None
        assert validate_manifest(manifest) == []

    def test_global_only_pipeline_skips_legality_check(self, capsys,
                                                       tmp_path):
        import json
        spec_path = tmp_path / "global.json"
        spec_path.write_text(json.dumps(
            {"pipeline": [{"stage": "global"}]}))
        code = main(self.ARGS + ["--pipeline", str(spec_path),
                                 "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run.pl").exists()

    def test_bookshelf_without_nets_places(self, capsys, tmp_path):
        from repro import load_benchmark
        from repro.netlist import bookshelf
        prefix = str(tmp_path / "nonets")
        bookshelf.write_nodes(prefix + ".nodes",
                              load_benchmark("ibm01", scale=0.01))
        with open(prefix + ".nets", "w") as fh:
            fh.write("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n")
        code = main(["place", "--bookshelf", prefix, "--layers", "2"])
        assert code == 0
        assert "123 cells, 0 nets" in capsys.readouterr().out

    @pytest.mark.parametrize("layers", ["1", "4"])
    def test_three_cell_bookshelf_places(self, capsys, tmp_path, layers):
        prefix = str(tmp_path / "tiny")
        with open(prefix + ".nodes", "w") as fh:
            fh.write("UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 0\n"
                     "a 4 1\nb 4 1\nc 4 1\n")
        with open(prefix + ".nets", "w") as fh:
            fh.write("UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
                     "NetDegree : 3 n0\na O\nb I\nc I\n")
        code = main(["place", "--bookshelf", prefix, "--layers", layers,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "3 cells, 1 nets" in capsys.readouterr().out
        assert (tmp_path / "out.pl").exists()

    @pytest.mark.parametrize("nodes", [
        "NumNodes : 2\nNumTerminals : 2\np0 1 1 terminal\n"
        "p1 1 1 terminal\n",
        "NumNodes : 0\nNumTerminals : 0\n"],
        ids=["all-terminal", "no-nodes"])
    def test_bookshelf_without_movable_cells_is_one_line_error(
            self, capsys, tmp_path, nodes):
        prefix = str(tmp_path / "nocells")
        with open(prefix + ".nodes", "w") as fh:
            fh.write("UCLA nodes 1.0\n" + nodes)
        with open(prefix + ".nets", "w") as fh:
            fh.write("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n")
        code = main(["place", "--bookshelf", prefix,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("repro place: error: nocells has no "
                                "movable cells\n")
        assert "placing" not in captured.out
        assert not (tmp_path / "out.pl").exists()


class TestSweepCommand:
    def test_sweep_prints_curve(self, capsys):
        code = main(["sweep", "--circuit", "ibm01", "--scale", "0.01",
                     "--points", "3", "--layers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha_ILV" in out
        assert out.count("\n") > 5
        assert "o" in out  # the ascii tradeoff plot

    def test_unknown_circuit_is_one_line_error(self, capsys):
        code = main(["sweep", "--circuit", "ibm99"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep: error: unknown benchmark "
                              "'ibm99'")
        assert err.count("\n") == 1

    def test_sweep_per_point_manifests(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest
        prefix = str(tmp_path / "sweep")
        code = main(["sweep", "--circuit", "ibm01", "--scale", "0.01",
                     "--points", "2", "--layers", "2",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-point manifests" in out
        for point in range(2):
            manifest = json.load(
                open(f"{prefix}.point{point}.manifest.json"))
            assert validate_manifest(manifest) == []
            assert manifest["pipeline"] is not None
            assert manifest["trace_path"] == \
                f"{prefix}.point{point}.trace.jsonl"
            assert os.path.exists(manifest["trace_path"])


class TestConfigDumpCommand:
    def test_dump_round_trips(self, capsys, tmp_path):
        import json

        from repro.core.config import PlacementConfig
        out_file = str(tmp_path / "config.json")
        code = main(["config-dump", "--alpha-temp", "1e-5",
                     "--layers", "3", "--out", out_file])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.load(open(out_file))
        assert printed == written
        config = PlacementConfig.from_dict(written)
        assert config.alpha_temp == 1e-5
        assert config.num_layers == 3


class TestPipelineFlags:
    def test_custom_pipeline_spec(self, capsys, tmp_path):
        import json
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"pipeline": [
            {"stage": "quadratic", "options": {"iterations": 1}},
            {"repeat": {"rounds": 1, "stages": [
                {"stage": "moves"}, {"stage": "cellshift"},
                {"stage": "detailed"}]}},
        ]}))
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--pipeline", str(spec_path)])
        assert code == 0
        assert "placing ibm01@0.01" in capsys.readouterr().out

    def test_manifest_records_pipeline(self, capsys, tmp_path):
        import json
        prefix = str(tmp_path / "run")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--telemetry-out", prefix])
        assert code == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        stages = [e.get("stage") for e in manifest["pipeline"]["pipeline"]]
        assert "global" in stages

    def test_halt_resume_round_trip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out_a = str(tmp_path / "resumed")
        out_b = str(tmp_path / "straight")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir", ckpt,
                     "--halt-after", "round1/moves"])
        assert code == 0
        assert "halted after 1:round1/moves" in capsys.readouterr().out
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir", ckpt,
                     "--resume", "--out", out_a])
        assert code == 0
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--out", out_b])
        assert code == 0
        with open(out_a + ".pl", "rb") as fa, \
                open(out_b + ".pl", "rb") as fb:
            assert fa.read() == fb.read()

    def test_resume_without_dir_is_usage_error(self, capsys):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_unknown_circuit_is_one_line_error(self, capsys):
        code = main(["place", "--circuit", "ibm99"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro place: error: unknown benchmark "
                              "'ibm99'")
        assert err.count("\n") == 1

    def test_missing_bookshelf_is_one_line_error(self, capsys, tmp_path):
        code = main(["place", "--bookshelf", str(tmp_path / "absent")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro place: error: [Errno 2] No such "
                              "file or directory")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag,message", [
        ("--alpha-ilv=-inf", "alpha_ilv must be finite, got -inf"),
        ("--alpha-ilv=nan", "alpha_ilv must be finite, got nan"),
        ("--alpha-temp=inf", "alpha_temp must be finite, got inf"),
        ("--alpha-temp=nan", "alpha_temp must be finite, got nan")])
    def test_non_finite_coefficient_is_one_line_error(self, capsys,
                                                      flag, message):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     flag])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro place: error: {message}\n"
        assert "placing" not in captured.out

    def test_resume_with_empty_dir_reports_checkpoint_error(
            self, capsys, tmp_path):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir",
                     str(tmp_path / "empty"), "--resume"])
        assert code == 1
        assert "checkpoint error" in capsys.readouterr().err

"""Tests for the ``elsa-repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import (
    build_parser,
    load_ground_truth,
    load_predictions,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        ns = build_parser().parse_args([
            "generate", "--log", "x.log", "--truth", "x.json",
            "--days", "0.5", "--seed", "3",
        ])
        assert ns.command == "generate"
        assert ns.days == 0.5
        assert ns.system == "bluegene"

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "generate", "--system", "cray", "--log", "a", "--truth", "b",
            ])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generate → fit → predict → evaluate round trip on disk."""
    d = tmp_path_factory.mktemp("cli")
    log = d / "system.log"
    truth = d / "truth.json"
    model = d / "model.pkl"
    preds = d / "preds.json"
    rc = main([
        "generate", "--days", "1.0", "--seed", "42",
        "--log", str(log), "--truth", str(truth),
    ])
    assert rc == 0
    meta = json.loads(truth.read_text())
    rc = main([
        "fit", "--log", str(log),
        "--train-end", str(meta["train_end"]),
        "--model", str(model),
    ])
    assert rc == 0
    rc = main([
        "predict", "--model", str(model), "--log", str(log),
        "--t-start", str(meta["train_end"]), "--out", str(preds),
    ])
    assert rc == 0
    return d, log, truth, model, preds, meta


class TestWorkflow:
    def test_files_created(self, workdir):
        d, log, truth, model, preds, meta = workdir
        assert log.stat().st_size > 10000
        assert model.stat().st_size > 1000
        assert preds.exists()

    def test_ground_truth_loads(self, workdir):
        *_, truth, _, _, meta = (workdir[0], workdir[1], workdir[2],
                                 workdir[3], workdir[4], workdir[5])
        faults = load_ground_truth(workdir[2])
        assert faults
        assert all(f.onset_time <= f.fail_time for f in faults)

    def test_predictions_load(self, workdir):
        preds = load_predictions(workdir[4])
        for p in preds:
            assert p.emitted_at >= p.trigger_time
            assert p.locations

    def test_evaluate_runs(self, workdir, capsys):
        d, log, truth, model, preds, meta = workdir
        rc = main([
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--t-start", str(meta["train_end"]),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision=" in out

    def test_report_runs(self, capsys):
        rc = main(["report", "--days", "0.6", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out

    def test_reproduce_writes_markdown(self, tmp_path):
        out = tmp_path / "repro.md"
        rc = main(["reproduce", "--days", "1.2", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "## Table III" in text
        assert "## Table IV" in text
        assert "9.13%" in text  # the exact closed-form row

    def test_postmortem_replay_refuses_a_version_1_bundle(
        self, workdir, tmp_path, capsys
    ):
        """Version 1 bundles stored six-field record dicts; replay reads
        only wire rows, so it says so on one line and exits 1."""
        model = workdir[3]
        bundle = tmp_path / "inc-0001-shard_restart"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(json.dumps({
            "bundle_version": 1, "id": bundle.name,
            "kind": "shard_restart",
        }))
        capsys.readouterr()
        rc = main(["postmortem", "--bundle", str(bundle), "--replay",
                   "--model", str(model)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "version 1" in err[0]


class TestObservabilityFlags:
    def test_quiet_silences_stdout(self, tmp_path, capsys):
        rc = main([
            "generate", "--days", "0.2", "--seed", "1", "--quiet",
            "--log", str(tmp_path / "q.log"),
            "--truth", str(tmp_path / "q.json"),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "q.log").stat().st_size > 0  # files still written

    def test_metrics_out_flag_accepted_both_positions(self, tmp_path):
        ns = build_parser().parse_args([
            "--metrics-out", "a.json", "generate", "--log", "x", "--truth", "y",
        ])
        assert ns.metrics_out == "a.json"
        ns = build_parser().parse_args([
            "generate", "--log", "x", "--truth", "y", "--metrics-out", "b.json",
        ])
        assert ns.metrics_out == "b.json"

    def test_metrics_dump_and_stats(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main([
            "generate", "--days", "0.2", "--seed", "1",
            "--log", str(tmp_path / "m.log"),
            "--truth", str(tmp_path / "m.truth"),
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        state = json.loads(metrics.read_text())
        assert set(state) == {"metrics", "spans", "incidents"}
        capsys.readouterr()
        rc = main(["stats", "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Metrics" in out and "## Stage timings" in out

    def test_report_metrics_dump_covers_pipeline_stages(self, tmp_path):
        """The acceptance path: a fit+predict subcommand dumps a span
        tree with the five canonical stages and the analysis-time
        histogram."""
        metrics = tmp_path / "report.json"
        rc = main([
            "report", "--days", "0.6", "--seed", "1",
            "--quiet", "--metrics-out", str(metrics),
        ])
        assert rc == 0
        state = json.loads(metrics.read_text())

        def stages(node):
            names = {node["name"]}
            for child in node["children"]:
                names |= stages(child)
            return names

        seen = set()
        for root in state["spans"]:
            seen |= stages(root)
        assert {"classify", "extract", "outliers", "mine", "predict"} <= seen
        assert (
            state["metrics"]["predictor.analysis_time_seconds"]["kind"]
            == "histogram"
        )


class TestResilienceFlags:
    """--lenient/--strict, checkpointed predict, and exit code 3."""

    @pytest.fixture(scope="class")
    def hostile_log(self, workdir, tmp_path_factory):
        """The workdir log with a few lines corrupted."""
        _, log, *_ = workdir
        lines = log.read_text().splitlines(True)
        lines[10] = "GARBAGE not a record\n"
        lines[200] = lines[200][:12] + "\n"
        bad = tmp_path_factory.mktemp("hostile") / "bad.log"
        bad.write_text("".join(lines))
        return bad

    def test_strict_predict_fails_cleanly(self, workdir, hostile_log,
                                          tmp_path, capsys):
        *_, model, _, meta = workdir
        rc = main([
            "predict", "--model", str(workdir[3]), "--log", str(hostile_log),
            "--t-start", str(meta["train_end"]),
            "--out", str(tmp_path / "p.json"), "--strict",
        ])
        assert rc == 1
        assert "malformed" in capsys.readouterr().err

    def test_lenient_predict_exits_degraded(self, workdir, hostile_log,
                                            tmp_path):
        meta = workdir[5]
        out = tmp_path / "p.json"
        rc = main([
            "predict", "--model", str(workdir[3]), "--log", str(hostile_log),
            "--t-start", str(meta["train_end"]), "--out", str(out),
            "--lenient", "--quiet",
        ])
        assert rc == 3  # completed, but degraded — distinct from a crash
        assert out.exists()  # the predictions were still written

    def test_lenient_fit_accepts_hostile_log(self, workdir, hostile_log,
                                             tmp_path):
        meta = workdir[5]
        rc = main([
            "fit", "--log", str(hostile_log),
            "--train-end", str(meta["train_end"]),
            "--model", str(tmp_path / "m.pkl"), "--lenient", "--quiet",
        ])
        assert rc == 3
        assert (tmp_path / "m.pkl").exists()

    def test_checkpointed_predict_matches_batch(self, workdir, tmp_path):
        d, log, truth, model, preds, meta = workdir
        out = tmp_path / "streamed.json"
        ckpt = tmp_path / "ck.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--out", str(out),
            "--checkpoint", str(ckpt), "--checkpoint-every", "1000",
            "--quiet",
        ])
        assert rc == 0
        assert json.loads(out.read_text()) == json.loads(preds.read_text())
        assert ckpt.exists()

    def test_resume_from_checkpoint(self, workdir, tmp_path):
        d, log, truth, model, preds, meta = workdir
        ckpt = tmp_path / "ck.json"
        out1 = tmp_path / "first.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--out", str(out1),
            "--checkpoint", str(ckpt), "--quiet",
        ])
        assert rc == 0
        out2 = tmp_path / "resumed.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--out", str(out2),
            "--resume-from", str(ckpt), "--quiet",
        ])
        assert rc == 0
        assert json.loads(out2.read_text()) == json.loads(preds.read_text())

    def test_self_heal_resume_from_checkpoint(self, workdir, tmp_path, capsys):
        """The self-healing route of the same round trip: the resumed
        run is on the checkpoint's model version and returns the
        predictions the checkpointed run wrote."""
        d, log, truth, model, preds, meta = workdir
        ckpt = tmp_path / "ck.json"
        heal = [
            "--self-heal", "--truth", str(truth),
            "--model-store", str(tmp_path / "models"),
        ]
        out1 = tmp_path / "first.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--out", str(out1),
            "--checkpoint", str(ckpt), *heal,
        ])
        assert rc == 0
        lifecycle = json.loads(ckpt.read_text())["lifecycle"]
        capsys.readouterr()
        out2 = tmp_path / "resumed.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--out", str(out2),
            "--resume-from", str(ckpt), *heal,
        ])
        assert rc == 0
        # the run swapped three times on this stream (pinned at the
        # commit before self-healing resume was folded into one path)
        assert lifecycle["model_version"] == 4
        assert "on model v4" in capsys.readouterr().out
        assert json.loads(out2.read_text()) == json.loads(out1.read_text())

    def test_rejected_checkpoint_is_one_error_line(
        self, workdir, tmp_path, capsys
    ):
        """``predict --resume-from`` and ``serve --resume`` report a
        checkpoint they cannot resume from as one ``error:`` line and
        exit 1, as a malformed log does."""
        d, log, truth, model, preds, meta = workdir
        ckpt = tmp_path / "ck.json"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]),
            "--out", str(tmp_path / "first.json"),
            "--checkpoint", str(ckpt), "--quiet",
        ])
        assert rc == 0
        data = json.loads(ckpt.read_text())
        dets = data["predictor"]["detectors"]
        dets.pop(sorted(dets)[0])
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        wrong_kind = tmp_path / "other.json"
        wrong_kind.write_text(json.dumps({"kind": "something-else"}))
        capsys.readouterr()
        for bad, extra in (
            (wrong_kind, []),
            (tampered, []),
            (tampered, ["--self-heal"]),
        ):
            rc = main([
                "predict", "--model", str(model), "--log", str(log),
                "--t-start", str(meta["train_end"]),
                "--out", str(tmp_path / "resumed.json"),
                "--resume-from", str(bad), "--quiet", *extra,
            ])
            assert rc == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:")

        ckpt_dir = tmp_path / "serve"
        ckpt_dir.mkdir()
        (ckpt_dir / "t0.ckpt.json").write_text(wrong_kind.read_text())
        rc = main([
            "serve", "--days", "0.8", "--seed", "1", "--tenants", "1",
            "--checkpoint-dir", str(ckpt_dir), "--resume",
            "--max-runtime", "1", "--quiet",
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestLiveTelemetryFlags:
    """--listen/--truth/--provenance-out plus monitor and explain."""

    def test_parser_accepts_the_live_flags(self):
        ns = build_parser().parse_args([
            "predict", "--model", "m", "--log", "l", "--t-start", "0",
            "--out", "o", "--listen", "127.0.0.1:0", "--linger", "2",
            "--truth", "t.json", "--provenance-out", "p.jsonl",
        ])
        assert ns.listen == "127.0.0.1:0"
        assert ns.linger == 2.0
        assert ns.provenance_out == "p.jsonl"

    def test_predict_with_truth_prints_the_scoreboard(
        self, workdir, tmp_path, capsys
    ):
        d, log, truth, model, preds, meta = workdir
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]),
            "--out", str(tmp_path / "p.json"), "--truth", str(truth),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scoreboard: precision=" in out

    def test_predict_truth_scores_alike_on_every_route(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        """The whole-window route scores live through an attached
        scoreboard, as the chunked routes do: both print the same
        summary and end on the same snapshot."""
        from repro.prediction import scoreboard as sb

        boards = []

        class Recording(sb.OnlineScoreboard):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                boards.append(self)

        monkeypatch.setattr(sb, "OnlineScoreboard", Recording)
        d, log, truth, model, preds, meta = workdir
        summaries = []
        for extra in ([], ["--batch-size", "4096"]):
            rc = main([
                "predict", "--model", str(model), "--log", str(log),
                "--t-start", str(meta["train_end"]),
                "--out", str(tmp_path / "p.json"), "--truth", str(truth),
            ] + extra)
            assert rc == 0
            summaries.append([
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("scoreboard:")
            ])
        assert len(boards) == 2
        assert summaries[0] == summaries[1]
        assert "(13/15 correct" in summaries[0][0]
        assert boards[0].snapshot() == boards[1].snapshot()

    def test_predict_serves_and_dumps_provenance(
        self, workdir, tmp_path, capsys
    ):
        d, log, truth, model, preds, meta = workdir
        prov = tmp_path / "prov.jsonl"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]),
            "--out", str(tmp_path / "p.json"),
            "--listen", "127.0.0.1:0", "--provenance-out", str(prov),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry listening on http://127.0.0.1:" in out
        n_preds = len(json.loads(
            (tmp_path / "p.json").read_text())["predictions"])
        lines = [l for l in prov.read_text().splitlines() if l]
        assert len(lines) == n_preds
        rec = json.loads(lines[0])
        assert {"chain", "anchor_event", "lead_time"} <= set(rec)

    def test_explain_renders_records(self, workdir, tmp_path, capsys):
        d, log, truth, model, preds, meta = workdir
        prov = tmp_path / "prov.jsonl"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--quiet",
            "--out", str(tmp_path / "p.json"),
            "--provenance-out", str(prov),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "explain", "--provenance", str(prov), "--index", "0",
            "--model", str(model),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prediction #0" in out
        assert "lead time" in out

    def test_explain_index_out_of_range_is_exit_2(
        self, workdir, tmp_path, capsys
    ):
        d, log, truth, model, preds, meta = workdir
        prov = tmp_path / "prov2.jsonl"
        rc = main([
            "predict", "--model", str(model), "--log", str(log),
            "--t-start", str(meta["train_end"]), "--quiet",
            "--out", str(tmp_path / "p.json"),
            "--provenance-out", str(prov),
        ])
        assert rc == 0
        assert main(["explain", "--provenance", str(prov),
                     "--index", "9999"]) == 2

    def test_explain_missing_file_is_exit_1(self, tmp_path):
        assert main([
            "explain", "--provenance", str(tmp_path / "absent.jsonl"),
        ]) == 1

    def test_monitor_rejects_bad_inputs(self, tmp_path):
        assert main([
            "monitor", "--metrics", str(tmp_path / "absent.json"),
            "--listen", "127.0.0.1:0",
        ]) == 1
        dump = tmp_path / "m.json"
        dump.write_text('{"metrics": {}, "spans": []}')
        assert main([
            "monitor", "--metrics", str(dump), "--listen", "nonsense",
        ]) == 2

    def test_monitor_serves_a_dump(self, tmp_path, capsys):
        dump = tmp_path / "m.json"
        dump.write_text(json.dumps({
            "metrics": {"a.b": {"kind": "counter", "value": 4.0}},
            "spans": [],
        }))
        rc = main([
            "monitor", "--metrics", str(dump),
            "--listen", "127.0.0.1:0", "--linger", "0",
        ])
        assert rc == 0
        assert "telemetry listening on" in capsys.readouterr().out


class TestStatsJsonAndDashboard:
    DUMP = {
        "metrics": {
            "a.count": {"kind": "counter", "value": 3.0},
            "t.lat": {
                "kind": "histogram",
                "buckets": [1.0, 2.0],
                "counts": [2, 1, 1],
                "sum": 5.0, "count": 4, "min": 0.5, "max": 3.0,
                "series": [{
                    "labels": {"stage": "feed"},
                    "buckets": [1.0, 2.0], "counts": [1, 0, 0],
                    "sum": 0.5, "count": 1, "min": 0.5, "max": 0.5,
                }],
            },
        },
        "spans": [{
            "name": "stream", "wall_seconds": 2.0, "done": True,
            "attrs": {"records": 1000}, "children": [],
        }],
    }

    def test_parser_accepts_the_new_flags(self):
        ns = build_parser().parse_args(
            ["stats", "--metrics", "m.json", "--json"]
        )
        assert ns.json is True
        ns = build_parser().parse_args(
            ["dashboard", "--url", "http://h:1", "--iterations", "2"]
        )
        assert ns.command == "dashboard"
        assert ns.iterations == 2
        assert ns.refresh == 2.0
        ns = build_parser().parse_args([
            "predict", "--model", "m", "--log", "l",
            "--t-start", "0", "--out", "o", "--profile",
        ])
        assert ns.profile is True

    def test_stats_json_is_machine_readable(self, tmp_path, capsys):
        dump = tmp_path / "m.json"
        dump.write_text(json.dumps(self.DUMP))
        assert main(["stats", "--metrics", str(dump), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metrics"]["a.count"]["value"] == 3.0
        hist = out["metrics"]["t.lat"]
        assert hist["count"] == 4
        assert set(hist["quantiles"]) == {"0.5", "0.9", "0.99"}
        assert hist["series"][0]["labels"] == {"stage": "feed"}
        assert out["throughput"]["records_per_sec"] == 500.0

    def test_stats_table_output_unchanged_without_flag(
        self, tmp_path, capsys
    ):
        dump = tmp_path / "m.json"
        dump.write_text(json.dumps(self.DUMP))
        assert main(["stats", "--metrics", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "## Metrics" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_dashboard_renders_a_live_server(self, capsys):
        from repro import obs
        from repro.obs.live import TelemetryServer

        obs.reset()
        try:
            hist = obs.get_history()
            g = obs.gauge("scoreboard.window_recall")
            for i in range(6):
                g.set(0.4 + 0.05 * i)
                hist.sample(i * 60.0)
            eng = obs.get_slo_engine()
            obs.gauge("scoreboard.window_faults").set(3.0)
            hist.sample(360.0)
            eng.evaluate(hist, 360.0)
            prof = obs.get_profiler()
            with obs.span("feed", transient=True):
                prof._tick(0.01)
            with TelemetryServer(port=0) as srv:
                rc = main(["dashboard", "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert "recall_floor" in out
            assert "feed" in out
            assert "health:" in out
        finally:
            obs.reset()

    def test_dashboard_unreachable_server_is_exit_1(self, capsys):
        rc = main([
            "dashboard", "--url", "http://127.0.0.1:1", "--quiet",
        ])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

"""Tests for the benchmark-trajectory subsystem.

Covers the history store (``repro.obs.history``), the regression gate
(``repro.obs.compare``), the markdown/HTML reporting
(``repro.obs.report``), the ``bench``/``compare``/``report`` CLI
wiring, and the version stamping satellite.
"""

import json
from html.parser import HTMLParser

import pytest

import repro
from repro.__main__ import main
from repro.core.runner import ExperimentScale
from repro.obs import compare as obs_compare
from repro.obs import history as obs_history
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import runinfo
from repro.obs import trace as obs_trace

TINY = ExperimentScale(name="tiny", n_train=300, n_test=80, epochs=15, noise_trials=2)

SHA_A = "a" * 40
SHA_B = "b" * 40


def _entry(sha, created, metrics, **extra):
    return {
        "kind": "bench",
        "created": created,
        "git_sha": sha,
        "version": repro.__version__,
        "seed": 0,
        "scale": "quick",
        "metrics": metrics,
        **extra,
    }


def _write_history(path, entries):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    return path


class TestHistoryStore:
    def test_append_and_load_round_trip(self, tmp_path):
        store = tmp_path / "history.jsonl"
        entry = _entry(SHA_A, "2026-01-01T00:00:00", {"table1.fft.error_mei": 0.1})
        target = obs_history.append_entry(entry, store)
        assert target == store
        obs_history.append_entry(
            _entry(SHA_B, "2026-01-02T00:00:00", {"table1.fft.error_mei": 0.2}), store
        )
        loaded = obs_history.load_history(store)
        assert [e["git_sha"] for e in loaded] == [SHA_A, SHA_B]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = tmp_path / "history.jsonl"
        store.write_text(
            json.dumps(_entry(SHA_A, "t1", {"m": 1.0}))
            + "\n{not json\n\n"
            + json.dumps(_entry(SHA_B, "t2", {"m": 2.0}))
            + "\n"
        )
        assert len(obs_history.load_history(store)) == 2

    def test_missing_store_is_empty(self, tmp_path):
        assert obs_history.load_history(tmp_path / "nope.jsonl") == []

    def test_sha_prefix_lookup_and_latest(self, tmp_path):
        history = [
            _entry(SHA_A, "2026-01-01T00:00:00", {"m": 1.0}),
            _entry(SHA_B, "2026-01-02T00:00:00", {"m": 2.0}),
            _entry(SHA_A, "2026-01-03T00:00:00", {"m": 3.0}),
        ]
        assert len(obs_history.entries_for_sha(history, SHA_A[:8])) == 2
        latest = obs_history.latest_entry(history)
        assert latest["metrics"]["m"] == 3.0
        latest_b = obs_history.latest_entry(history, sha=SHA_B)
        assert latest_b["metrics"]["m"] == 2.0

    def test_aggregate_means_repeated_runs(self):
        history = [
            _entry(SHA_A, "t1", {"m": 1.0, "only_first": 5.0}),
            _entry(SHA_A, "t2", {"m": 3.0}),
        ]
        agg = obs_history.aggregate_metrics(history)
        assert agg["m"] == 2.0
        assert agg["only_first"] == 5.0

    def test_build_entry_carries_provenance_and_sorted_metrics(self):
        entry = obs_history.build_entry({"b": 2.0, "a": 1.0}, seed=7, scale="quick")
        assert list(entry["metrics"]) == ["a", "b"]
        assert entry["seed"] == 7
        assert entry["version"] == repro.__version__
        assert entry["git_sha"] == entry["provenance"]["git_sha"]


class TestFlatten:
    def test_nested_payload_flattens_to_dotted_leaves(self):
        payload = {
            "provenance": {"git_sha": "x", "cpu_count": 8},
            "rows": [
                {"name": "fft", "error_mei": 0.1, "topology": "2x16x1", "ok": True},
                {"name": "jpeg", "error_mei": 0.2},
            ],
            "sweep": {"robustness": 0.7, "levels": [0.05, 0.1]},
        }
        flat = obs_history.flatten_payload(payload, prefix="fig5_robustness")
        assert flat["fig5_robustness.rows.fft.error_mei"] == 0.1
        assert flat["fig5_robustness.rows.jpeg.error_mei"] == 0.2
        assert flat["fig5_robustness.sweep.robustness"] == 0.7
        assert flat["fig5_robustness.sweep.levels.0"] == 0.05
        # provenance, strings and booleans are not metrics
        assert not any("provenance" in k or "topology" in k or k.endswith(".ok")
                       for k in flat)

    def test_ingest_out_dir_uses_stems(self, tmp_path):
        (tmp_path / "table1_fft.json").write_text(
            json.dumps({"rows": [{"name": "fft", "error_mei": 0.1}]})
        )
        (tmp_path / "broken.json").write_text("{oops")
        flat = obs_history.ingest_out_dir(tmp_path)
        assert flat == {"table1_fft.rows.fft.error_mei": 0.1}


class TestCompare:
    def test_direction(self):
        assert not obs_compare.higher_is_better("table1.fft.error_mei")
        assert obs_compare.higher_is_better("table1.fft.robustness_mei")
        assert obs_compare.higher_is_better("ext_timing.rows.fft.speedup")
        assert obs_compare.higher_is_better("table1.fft.area_saved_measured")

    def test_statuses(self):
        baseline = {
            "table1.fft.error_mei": 0.10,
            "table1.fft.robustness_mei": 0.80,
            "table1.fft.area_saved_measured": 0.50,
            "gone.error": 0.5,
        }
        current = {
            "table1.fft.error_mei": 0.20,            # error doubled -> regressed
            "table1.fft.robustness_mei": 0.95,       # robustness up -> improved
            "table1.fft.area_saved_measured": 0.51,  # within tolerance -> ok
            "fresh.error": 0.3,                      # new metric
        }
        result = obs_compare.compare_metrics(baseline, current)
        status = {v.name: v.status for v in result.verdicts}
        assert status["table1.fft.error_mei"] == "regressed"
        assert status["table1.fft.robustness_mei"] == "improved"
        assert status["table1.fft.area_saved_measured"] == "ok"
        assert status["gone.error"] == "missing"
        assert status["fresh.error"] == "new"

    def test_tolerance_is_relative_plus_absolute(self):
        tol = obs_compare.Tolerance(rel=0.10, abs=0.005)
        assert not tol.exceeded(0.100, 0.109)   # inside 10%
        assert tol.exceeded(0.100, 0.120)
        assert not tol.exceeded(0.0, 0.004)     # abs floor guards zero baselines
        assert tol.exceeded(0.0, 0.006)

    def test_exit_codes(self):
        accuracy_reg = obs_compare.compare_metrics(
            {"x.error": 0.1}, {"x.error": 0.5}
        )
        assert accuracy_reg.exit_code() == 1
        assert accuracy_reg.exit_code(strict=True) == 1
        vanished = obs_compare.compare_metrics(
            {"x.error": 0.1, "gone.error": 0.2}, {"x.error": 0.1}
        )
        assert vanished.exit_code() == 0
        assert vanished.exit_code(strict=True) == 1
        clean = obs_compare.compare_metrics({"x.error": 0.1}, {"x.error": 0.1})
        assert clean.exit_code(strict=True) == 0

    def test_verdict_is_machine_readable(self):
        result = obs_compare.compare_metrics({"x.error": 0.1}, {"x.error": 0.5})
        payload = json.loads(json.dumps(result.to_dict(strict=True)))
        assert payload["exit_code"] == 1
        assert payload["counts"]["regressed"] == 1
        assert payload["verdicts"][0]["name"] == "x.error"
        assert payload["verdicts"][0]["delta"] == pytest.approx(0.4)

    def test_baseline_resolution_order(self, tmp_path):
        history = [
            _entry(SHA_A, "t1", {"m.error": 0.1}),
            _entry(SHA_B, "t2", {"m.error": 0.3}),
        ]
        snapshot = tmp_path / "baseline.json"
        snapshot.write_text(json.dumps(_entry("c" * 40, "t0", {"m.error": 0.2})))
        # Named SHA found in history wins over the snapshot file.
        label, metrics = obs_compare.resolve_baseline(
            history, baseline_sha=SHA_A[:10], baseline_file=snapshot
        )
        assert label.startswith("history:") and metrics["m.error"] == 0.1
        # Unknown SHA falls back to the snapshot.
        label, metrics = obs_compare.resolve_baseline(
            history, baseline_sha="f" * 40, baseline_file=snapshot
        )
        assert label.startswith("snapshot:") and metrics["m.error"] == 0.2
        # No SHA, no snapshot: previous-commit entries.
        label, metrics = obs_compare.resolve_baseline(
            history, baseline_file=tmp_path / "nope.json"
        )
        assert label == f"history:{SHA_A[:12]}" and metrics["m.error"] == 0.1
        # Nothing resolvable at all.
        assert obs_compare.resolve_baseline([], baseline_file=None) is None

    def test_compare_history_unchanged_tree_passes(self, tmp_path):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"x.error": 0.1, "table1.fft.robustness_mei": 0.8}),
                _entry(SHA_B, "t2", {"x.error": 0.1, "table1.fft.robustness_mei": 0.8}),
            ],
        )
        result = obs_compare.compare_history(
            store, baseline_sha=SHA_A, baseline_file=None
        )
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 0

    def test_compare_history_detects_synthetic_regression(self, tmp_path):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"table1.fft.error_mei": 0.10}),
                _entry(SHA_B, "t2", {"table1.fft.error_mei": 0.18}),
            ],
        )
        result = obs_compare.compare_history(
            store, baseline_sha=SHA_A, baseline_file=None
        )
        assert [v.name for v in result.accuracy_regressions] == ["table1.fft.error_mei"]
        assert result.exit_code(strict=True) != 0

    def test_compare_history_averages_repeated_runs(self, tmp_path):
        # Two runs at HEAD (say, two seeds) are judged by their mean: the
        # first alone would regress, the mean stays inside tolerance.
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"table1.fft.error_mei": 0.10}),
                _entry(SHA_B, "t2", {"table1.fft.error_mei": 0.13}),
                _entry(SHA_B, "t3", {"table1.fft.error_mei": 0.09}),
            ],
        )
        result = obs_compare.compare_history(
            store, baseline_sha=SHA_A, baseline_file=None
        )
        (verdict,) = result.verdicts
        assert verdict.current == pytest.approx(0.11)
        assert verdict.status == "ok"


class _HTMLChecker(HTMLParser):
    _VOID = ("meta", "br", "circle", "polyline")

    def __init__(self):
        super().__init__()
        self.stack = []
        self.seen = set()

    def handle_starttag(self, tag, attrs):
        self.seen.add(tag)
        if tag not in self._VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.seen.add(tag)  # self-closing: nothing to balance

    def handle_endtag(self, tag):
        if tag in self._VOID:
            return
        assert self.stack and self.stack[-1] == tag, f"unbalanced </{tag}>"
        self.stack.pop()


class TestReport:
    HISTORY = [
        _entry(SHA_A, "2026-01-01T00:00:00",
               {"table1.fft.error_mei": 0.10, "table1.jpeg.error_mei": 0.05}),
        _entry(SHA_B, "2026-01-02T00:00:00",
               {"table1.fft.error_mei": 0.12, "table1.jpeg.error_mei": 0.04}),
    ]

    def test_sparkline_shapes(self):
        assert obs_report.sparkline([]) == ""
        assert obs_report.sparkline([1.0, 1.0]) == "▁▁"
        line = obs_report.sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3 and line[0] == "▁" and line[-1] == "█"

    def test_markdown_has_one_metric_table(self):
        md = obs_report.render_markdown(self.HISTORY)
        assert "table1.fft.error_mei" in md
        assert "table1.jpeg.error_mei" in md
        assert md.count("| metric | n |") == 1
        assert "Performance metrics" not in md and "Slowest spans" not in md

    def test_markdown_empty_history(self):
        md = obs_report.render_markdown([])
        assert "No history entries" in md

    def test_html_is_valid_and_has_trajectories(self):
        html_text = obs_report.render_html(self.HISTORY)
        checker = _HTMLChecker()
        checker.feed(html_text)
        checker.close()
        assert checker.stack == []  # every opened tag closed
        assert "svg" in checker.seen and "table" in checker.seen
        for bench in ("fft", "jpeg"):
            assert f"table1.{bench}.error_mei" in html_text
        assert html_text.count("<th>metric</th>") == 1
        assert "Slowest spans" not in html_text

    def test_write_report_emits_both_files(self, tmp_path):
        md_path, html_path = obs_report.write_report(self.HISTORY, out_dir=tmp_path)
        assert md_path.read_text().startswith("# Benchmark trajectory")
        assert html_path.read_text().startswith("<!DOCTYPE html>")


class TestBenchDriver:
    def test_run_bench_appends_provenance_stamped_entry(self, tmp_path):
        from repro.experiments.bench import render_bench_entry, run_bench

        store = tmp_path / "history.jsonl"
        entry, target = run_bench(
            names=["fft"],
            scale=TINY,
            seed=0,
            history_path=store,
            out_dir=tmp_path / "out",  # empty: no archived payloads
        )
        assert target == store
        metrics = entry["metrics"]
        assert metrics["table1.fft.error_mei"] > 0.0
        assert "table1.fft.robustness_mei" in metrics
        # Accuracy only: wall-clock timing is perfbench's job.
        assert all(k.startswith("table1.") for k in metrics)
        assert entry["version"] == repro.__version__
        assert entry["scale"] == "tiny"
        # The store round-trips, and bench leaves tracing as it was (off).
        (loaded,) = obs_history.load_history(store)
        assert loaded["metrics"]["table1.fft.error_mei"] == pytest.approx(
            metrics["table1.fft.error_mei"]
        )
        assert not obs_trace.enabled()
        rendered = render_bench_entry(entry)
        assert "fft" in rendered and "err MEI" in rendered

    def test_bench_then_compare_round_trip(self, tmp_path):
        from repro.experiments.bench import run_bench, write_baseline

        store = tmp_path / "history.jsonl"
        entry, _ = run_bench(
            names=["fft"], scale=TINY, seed=0,
            history_path=store, out_dir=tmp_path / "out",
        )
        baseline = write_baseline(entry, tmp_path / "baseline.json")
        # Identical metrics vs the snapshot: the gate passes strictly.
        result = obs_compare.compare_history(store, baseline_file=baseline)
        assert result.exit_code(strict=True) == 0

    def test_archived_payloads_are_ingested(self, tmp_path):
        from repro.experiments.bench import run_bench

        out = tmp_path / "benchmarks" / "out"
        out.mkdir(parents=True)
        (out / "ext_timing.json").write_text(
            json.dumps({"rows": [{"name": "fft", "speedup": 2.0}]})
        )
        entry, _ = run_bench(
            names=["fft"], scale=TINY, seed=0,
            history_path=tmp_path / "h.jsonl", out_dir=out,
        )
        assert entry["metrics"]["ext_timing.rows.fft.speedup"] == 2.0


class TestCLI:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_profile_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile"])
        assert excinfo.value.code == 2

    def test_compare_cli_unchanged_passes(self, tmp_path, capsys):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"x.error": 0.1}),
                _entry(SHA_B, "t2", {"x.error": 0.1}),
            ],
        )
        code = main(["compare", "--history", str(store), "--baseline", SHA_A,
                     "--baseline-file", str(tmp_path / "missing.json")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_cli_strict_fails_on_accuracy_regression(self, tmp_path, capsys):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"table1.fft.error_mei": 0.10}),
                _entry(SHA_B, "t2", {"table1.fft.error_mei": 0.20}),
            ],
        )
        code = main(["compare", "--strict", "--history", str(store),
                     "--baseline", SHA_A,
                     "--baseline-file", str(tmp_path / "missing.json")])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out

    def test_compare_cli_json_verdict(self, tmp_path, capsys):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"x.error": 0.1}),
                _entry(SHA_B, "t2", {"x.error": 0.5}),
            ],
        )
        code = main(["compare", "--json", "--history", str(store),
                     "--baseline", SHA_A,
                     "--baseline-file", str(tmp_path / "missing.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1

    def test_compare_cli_nothing_to_compare(self, tmp_path, capsys):
        empty = tmp_path / "history.jsonl"
        assert main(["compare", "--history", str(empty),
                     "--baseline-file", str(tmp_path / "missing.json")]) == 0
        assert main(["compare", "--strict", "--history", str(empty),
                     "--baseline-file", str(tmp_path / "missing.json")]) == 2
        assert "nothing to compare" in capsys.readouterr().out

    def test_report_cli_writes_html_with_trajectories(self, tmp_path, capsys):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"table1.fft.error_mei": 0.1,
                                     "table1.sobel.error_mei": 0.02}),
                _entry(SHA_B, "t2", {"table1.fft.error_mei": 0.11,
                                     "table1.sobel.error_mei": 0.02}),
            ],
        )
        out = tmp_path / "reports"
        assert main(["report", "--history", str(store), "--out", str(out)]) == 0
        html_text = (out / "report.html").read_text()
        checker = _HTMLChecker()
        checker.feed(html_text)
        checker.close()
        assert checker.stack == []
        for bench in ("fft", "sobel"):
            assert f"table1.{bench}.error_mei" in html_text
        # Markdown twin on stdout and on disk.
        assert "table1.fft.error_mei" in capsys.readouterr().out
        assert (out / "report.md").exists()


class TestVersionStamping:
    def test_provenance_header_carries_version(self):
        assert runinfo.provenance_header()["version"] == repro.__version__

    def test_manifest_carries_version(self, tmp_path):
        path = runinfo.write_manifest("demo", run_dir=tmp_path)
        manifest = json.loads(path.read_text())
        assert manifest["environment"]["version"] == repro.__version__


class TestMetricsReset:
    def test_reset_clears_registry(self):
        obs_metrics.counter("reset_probe").inc(3)
        obs_metrics.gauge("reset_gauge").set(1.0)
        assert obs_metrics.snapshot()["counters"]["reset_probe"] == 3.0
        obs_metrics.reset()
        assert obs_metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_leak_a_counter_on_purpose(self):
        obs_metrics.counter("leaky").inc(3)  # deliberately not reset here

    def test_autouse_fixture_isolated_previous_test(self):
        # The previous test incremented "leaky" and left it; the autouse
        # fixture in conftest must have reset the registry in between.
        assert "leaky" not in obs_metrics.snapshot()["counters"]


class TestCompareUnknownKinds:
    """Regression: entries of an unregistered kind used to be silently
    skipped by the gate; now they warn with a count and are excluded."""

    def _mixed_store(self, tmp_path):
        return _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"x.error": 0.1}),
                _entry(SHA_B, "t2", {"x.error": 0.1}),
                _entry(SHA_B, "t3", {"mystery.error": 9.9}, kind="mystery"),
                _entry(SHA_B, "t4", {"mystery.error": 9.9}, kind="mystery"),
            ],
        )

    def test_unknown_kind_entries_warn_with_count(self, tmp_path):
        store = self._mixed_store(tmp_path)
        with pytest.warns(RuntimeWarning, match=r"2 history entries.*'mystery'"):
            result = obs_compare.compare_history(
                store, baseline_sha=SHA_A, baseline_file=None
            )
        # ...and are excluded: the bogus metric never reaches the gate.
        assert result.exit_code(strict=True) == 0
        assert "mystery.error" not in {v.name for v in result.verdicts}

    def test_registered_kinds_do_not_warn(self, tmp_path, recwarn):
        store = _write_history(
            tmp_path / "history.jsonl",
            [
                _entry(SHA_A, "t1", {"x.error": 0.1}),
                _entry(SHA_B, "t2", {"x.error": 0.1}),
                _entry(SHA_B, "t3", {"budget.err": 0.01}, kind="errorbudget"),
            ],
        )
        obs_compare.compare_history(store, baseline_sha=SHA_A, baseline_file=None)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_explicitly_requested_kind_is_honoured_unregistered(self, tmp_path, recwarn):
        store = self._mixed_store(tmp_path)
        result = obs_compare.compare_history(
            store, baseline_sha=SHA_B, baseline_file=None, kind="mystery"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert {v.name for v in result.verdicts} == {"mystery.error"}

    def test_entry_kind_defaults_seed_era_entries_to_bench(self):
        entry = _entry(SHA_A, "t1", {"x.error": 0.1})
        del entry["kind"]
        assert obs_history.entry_kind(entry) == "bench"
        assert obs_history.entry_kind({"kind": "errorbudget"}) == "errorbudget"
        assert obs_history.KNOWN_KINDS == {"bench", "errorbudget"}

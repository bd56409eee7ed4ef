"""Coverage for the central REPRO_* knob registry."""

from __future__ import annotations

import pathlib

import pytest

from repro.config import knobs

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


class TestRegistry:
    def test_unknown_knob_rejected_on_every_accessor(self):
        for accessor in (knobs.get_raw, knobs.get_str, knobs.get_bool,
                         knobs.get_int, knobs.get_path, knobs.knob):
            with pytest.raises(knobs.UnknownKnobError):
                accessor("REPRO_NO_SUCH_KNOB")

    def test_knob_names_must_carry_prefix(self):
        with pytest.raises(ValueError):
            knobs.Knob(name="WORKERS", kind="int", default=None, description="x")

    def test_conflicting_reregistration_rejected(self):
        declared = knobs.knob("REPRO_WORKERS")
        # Identical re-registration is idempotent...
        assert knobs.register(declared.name, declared.kind, declared.default,
                              declared.description, declared.choices) == declared
        # ...but changing the contract in a second declaration is an error.
        with pytest.raises(ValueError):
            knobs.register("REPRO_WORKERS", "str", None, "different")

    def test_expected_catalogue_is_registered(self):
        names = {declared.name for declared in knobs.all_knobs()}
        assert names == {
            "REPRO_LOG",
            "REPRO_LOG_JSON",
            "REPRO_RUN_DIR",
            "REPRO_HISTORY",
            "REPRO_WORKERS",
            "REPRO_EXECUTOR",
            "REPRO_FULL",
            "REPRO_TASK_TIMEOUT",
            "REPRO_TASK_RETRIES",
            "REPRO_DTYPE",
            "REPRO_SANITIZE",
            "REPRO_SERVE_DEADLINE_MS",
            "REPRO_SERVE_MAX_BATCH",
            "REPRO_SERVE_PORT",
            "REPRO_SERVE_QUEUE_LIMIT",
        }


class TestDefaults:
    def test_unset_knobs_fall_back_to_declared_defaults(self, monkeypatch):
        for name in ("REPRO_RUN_DIR", "REPRO_HISTORY", "REPRO_EXECUTOR"):
            monkeypatch.delenv(name, raising=False)
        assert knobs.get_path("REPRO_RUN_DIR") == "runs"
        assert knobs.get_path("REPRO_HISTORY") == "runs/history.jsonl"
        assert knobs.get_str("REPRO_EXECUTOR") == "process"

    def test_empty_string_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", "   ")
        assert knobs.get_path("REPRO_RUN_DIR") == "runs"

    def test_raw_does_not_apply_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert knobs.get_raw("REPRO_WORKERS") is None
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert knobs.get_raw("REPRO_WORKERS") == "junk"


class TestCoercion:
    def test_bool_accepts_all_truthy_spellings(self, monkeypatch):
        for raw in ("1", "true", "YES", " On "):
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert knobs.get_bool("REPRO_SANITIZE") is True
        for raw in ("0", "off", "no", "false", ""):
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert knobs.get_bool("REPRO_SANITIZE") is False

    def test_int_coercion_and_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        assert knobs.get_int("REPRO_WORKERS") == 4
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert knobs.get_int("REPRO_WORKERS") == 1  # declared default

    def test_int_rejects_junk_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            knobs.get_int("REPRO_WORKERS")

    def test_str_strips_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "  thread  ")
        assert knobs.get_str("REPRO_EXECUTOR") == "thread"


class TestSnapshot:
    def test_snapshot_captures_all_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SURPRISE", "x")  # unregistered but captured
        snap = knobs.snapshot()
        assert snap["REPRO_SANITIZE"] == "1"
        assert snap["REPRO_SURPRISE"] == "x"
        assert all(name.startswith("REPRO_") for name in snap)

    def test_unregistered_surfaces_stray_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SURPRISE", "x")
        assert "REPRO_SURPRISE" in knobs.unregistered()
        monkeypatch.delenv("REPRO_SURPRISE")
        assert "REPRO_SURPRISE" not in knobs.unregistered()

    def test_no_stray_knobs_in_test_environment(self):
        # Guards against tests (or CI) exporting knobs that were never
        # declared — exactly the drift RPR003 exists to prevent.
        known_ci_noise = {name for name in knobs.unregistered()}
        assert known_ci_noise == set(), (
            f"undeclared REPRO_* variables in the environment: {known_ci_noise}; "
            "declare them in repro.config.knobs"
        )


class TestDocs:
    def test_docs_table_lists_every_knob(self):
        table = knobs.docs_table()
        for declared in knobs.all_knobs():
            assert f"`{declared.name}`" in table
        assert table.startswith("| Knob | Type | Default | Description |")

    def test_observability_doc_documents_every_knob(self):
        # Verbatim, so a deleted or reworded knob cannot linger as a stale row.
        text = (DOCS / "observability.md").read_text(encoding="utf-8")
        assert knobs.docs_table() in text, (
            "docs/observability.md knob table is stale; paste knobs.docs_table()"
        )

    def test_enum_choices_rendered(self):
        table = knobs.docs_table()
        assert "serial / thread / process" in table


class TestIntegration:
    """The migrated call sites still honour their knobs."""

    def test_workers_env_resolves_through_registry(self, monkeypatch):
        from repro.parallel.executor import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.warns(RuntimeWarning):
            assert resolve_workers() == 1

    def test_full_scale_accepts_truthy_spellings(self, monkeypatch):
        from repro.core.runner import FULL_SCALE, QUICK_SCALE, default_scale

        monkeypatch.setenv("REPRO_FULL", "true")
        assert default_scale() == FULL_SCALE
        monkeypatch.setenv("REPRO_FULL", "0")
        assert default_scale() == QUICK_SCALE

    def test_history_path_resolves_through_registry(self, monkeypatch, tmp_path):
        from repro.obs.history import history_path

        monkeypatch.setenv("REPRO_HISTORY", str(tmp_path / "h.jsonl"))
        assert history_path() == tmp_path / "h.jsonl"
        monkeypatch.delenv("REPRO_HISTORY")
        assert str(history_path()) == "runs/history.jsonl"

    def test_manifest_env_block_uses_snapshot(self, monkeypatch):
        from repro.obs.runinfo import repro_env

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert repro_env()["REPRO_SANITIZE"] == "1"

"""Benchmark provenance staleness guards (dirty / unknown git state)."""

import json
import subprocess

import pytest

from repro import __main__ as cli
from repro.core.runner import ExperimentScale
from repro.experiments import bench
from repro.obs import runinfo

TINY = ExperimentScale(name="tiny", n_train=60, n_test=20, epochs=3, noise_trials=1)


class TestGitDirty:
    def test_clean_checkout(self, tmp_path):
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "-C", str(tmp_path), "config", "user.email", "t@t"],
                       check=True)
        subprocess.run(["git", "-C", str(tmp_path), "config", "user.name", "t"],
                       check=True)
        (tmp_path / "a.txt").write_text("x")
        subprocess.run(["git", "-C", str(tmp_path), "add", "."], check=True)
        subprocess.run(["git", "-C", str(tmp_path), "commit", "-qm", "init"],
                       check=True)
        assert runinfo.git_dirty(str(tmp_path)) is False
        (tmp_path / "a.txt").write_text("y")
        assert runinfo.git_dirty(str(tmp_path)) is True

    def test_not_a_repo_is_unknown(self, tmp_path):
        assert runinfo.git_dirty(str(tmp_path)) is None


class TestEnvironmentInfo:
    def test_records_dirty_flag_and_executor_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        info = runinfo.environment_info()
        assert "git_dirty" in info
        assert info["executor_workers"] == 3
        assert info["executor_kind"] == "thread"

    def test_serial_when_single_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        info = runinfo.environment_info()
        assert info["executor_workers"] == 1
        assert info["executor_kind"] == "serial"


class TestStalenessWarning:
    def _run(self, tmp_path, monkeypatch, sha, dirty):
        monkeypatch.setattr(bench.runinfo, "git_sha", lambda cwd=None: sha)
        monkeypatch.setattr(bench.runinfo, "git_dirty", lambda cwd=None: dirty)
        return bench.run_bench(
            names=["fft"], scale=TINY, seed=0,
            history_path=tmp_path / "h.jsonl", out_dir=tmp_path / "out",
        )

    def test_dirty_checkout_warns(self, tmp_path, monkeypatch):
        with pytest.warns(RuntimeWarning, match="provenance is stale.*dirty"):
            self._run(tmp_path, monkeypatch, sha="abc123", dirty=True)

    def test_unknown_checkout_warns(self, tmp_path, monkeypatch):
        with pytest.warns(RuntimeWarning, match="provenance is stale.*unknown"):
            self._run(tmp_path, monkeypatch, sha=None, dirty=None)

    def test_clean_checkout_is_silent(self, tmp_path, monkeypatch, recwarn):
        entry, _ = self._run(tmp_path, monkeypatch, sha="abc123", dirty=False)
        assert not [w for w in recwarn if "provenance" in str(w.message)]
        assert entry["git_sha"] == "abc123"

    def test_entry_still_appended_when_dirty(self, tmp_path, monkeypatch):
        with pytest.warns(RuntimeWarning):
            entry, history_file = self._run(tmp_path, monkeypatch, "abc", True)
        assert entry is not None
        lines = (tmp_path / "h.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["git_sha"] == "abc"


class TestBaselineRefusal:
    """The CLI layer: dirty/unknown git state refuses ``--write-baseline``."""

    def _cli(self, tmp_path, monkeypatch, sha, dirty, extra=()):
        # The expensive run and the baseline write are both stubbed;
        # under test here is only the CLI's refusal logic.
        entry = {"git_sha": sha, "metrics": {"m": 1.0}}
        written = []
        monkeypatch.setattr(bench, "run_bench",
                            lambda **kw: (entry, tmp_path / "h.jsonl"))
        monkeypatch.setattr(bench, "render_bench_entry", lambda e: "entry")
        monkeypatch.setattr(bench, "write_baseline",
                            lambda e: written.append(e) or tmp_path / "baseline.json")
        monkeypatch.setattr(runinfo, "git_dirty", lambda cwd=None: dirty)
        argv = ["bench", "--bench", "fft", "--write-baseline", *extra]
        return cli.main(argv), written

    def test_dirty_refuses_write_baseline(self, tmp_path, monkeypatch, capsys):
        rc, written = self._cli(tmp_path, monkeypatch, sha="abc", dirty=True)
        assert rc == 2
        assert "refusing --write-baseline" in capsys.readouterr().err
        assert written == []

    def test_unknown_sha_refuses(self, tmp_path, monkeypatch, capsys):
        rc, written = self._cli(tmp_path, monkeypatch, sha=None, dirty=False)
        assert rc == 2
        assert written == []

    def test_allow_dirty_overrides(self, tmp_path, monkeypatch):
        rc, written = self._cli(tmp_path, monkeypatch, sha="abc", dirty=True,
                                extra=("--allow-dirty",))
        assert rc == 0
        assert len(written) == 1

    def test_clean_checkout_writes(self, tmp_path, monkeypatch):
        rc, written = self._cli(tmp_path, monkeypatch, sha="abc", dirty=False)
        assert rc == 0
        assert len(written) == 1

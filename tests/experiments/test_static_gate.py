"""The runner's ``--verify`` static gate and its cached verdict.

The gate's verdict is a pure function of the fingerprinted tree and the
interpreter's minor version, so a clean one is recorded in the result
cache and reused; a changed input misses, and a failing verdict is never
recorded. Every case drives ``runner.main``
in-process on the 8-rank quick scale sweep (8 small cells).
"""

import pytest

import repro.experiments.executor as executor_mod
import repro.experiments.runner as runner_mod
import repro.verify.analyze as analyze_mod
import repro.verify.trace_check as trace_check
from repro.verify.analyze import Finding

_COMMAND = ["scale", "--quick", "--ranks", "8", "--verify", "--jobs", "1"]


@pytest.fixture(autouse=True)
def isolate(monkeypatch):
    # --verify switches the process-wide trace audit on; restored when
    # the test ends
    monkeypatch.setattr(trace_check, "_RUNTIME_VERIFICATION", False)


@pytest.fixture
def analyses(monkeypatch):
    """How many times the analyzer parsed the tree."""
    calls = []
    real = analyze_mod.build_project

    def spy(paths=None):
        calls.append(paths)
        return real(paths)

    monkeypatch.setattr(analyze_mod, "build_project", spy)
    return calls


@pytest.fixture
def run(monkeypatch, capsys):
    """One runner command: (exit code, stdout, stderr)."""

    def _run(*extra):
        # each command is a fresh interpreter: nothing memoized in-process
        monkeypatch.setattr(analyze_mod, "_TREE_REPORT", None)
        code = runner_mod.main(_COMMAND + list(extra))
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def _verdicts(cache):
    return sorted((cache / "gate").glob("*.json"))


def test_a_clean_verdict_is_recorded_once_and_reused(tmp_path, run, analyses):
    cache = tmp_path / "cache"
    code, cold_out, err = run("--cache-dir", str(cache))
    assert code == 0
    assert len(analyses) == 1
    assert len(_verdicts(cache)) == 1
    assert "static gate: analysed tree" in err

    code, warm_out, err = run("--cache-dir", str(cache))
    assert code == 0
    assert len(analyses) == 1, "the warm run analysed the tree again"
    assert warm_out == cold_out
    assert "static gate: reused the clean verdict" in err
    assert len(_verdicts(cache)) == 1


def test_a_changed_fingerprint_misses(tmp_path, run, monkeypatch, analyses):
    cache = tmp_path / "cache"
    assert run("--cache-dir", str(cache))[0] == 0
    monkeypatch.setattr(executor_mod, "_FINGERPRINT", "0" * 24)

    code, _out, err = run("--cache-dir", str(cache))
    assert code == 0
    assert len(analyses) == 2
    assert "static gate: analysed tree 000000000000" in err
    assert len(_verdicts(cache)) == 2


def test_no_cache_analyses_every_run_and_records_nothing(tmp_path, run, analyses):
    cache = tmp_path / "cache"
    for runs in (1, 2):
        code, _out, err = run("--cache-dir", str(cache), "--no-cache")
        assert code == 0
        assert len(analyses) == runs
        assert "static gate: analysed tree" in err
    assert not (cache / "gate").exists()


def test_a_failing_verdict_exits_2_and_is_never_recorded(
    tmp_path, run, monkeypatch, analyses
):
    planted = Finding(
        rule="hygiene",
        path="src/repro/core/engine.py",
        line=1,
        col=0,
        message="planted finding",
    )
    monkeypatch.setattr(analyze_mod, "run_passes", lambda project: [planted])
    cache = tmp_path / "cache"
    for runs in (1, 2):
        code, out, err = run("--cache-dir", str(cache))
        assert code == 2
        assert out == ""
        assert "[hygiene] planted finding" in err
        assert "static analysis failed" in err
        assert len(analyses) == runs, "a failing verdict was reused"
        assert not (cache / "gate").exists()

"""CLI behaviour of the `analyze` layer: exit codes and JSON."""

import json
import textwrap

from repro.verify.__main__ import LAYER_CODES, main
from repro.verify.analyze import Finding, default_target

_BUGGY = textwrap.dedent(
    """
    def worker(ctx):
        g = ctx.compute(100.0)
        yield from ctx.timeout(1.0)
    """
)


def _buggy_file(tmp_path):
    p = tmp_path / "buggy.py"
    p.write_text(_BUGGY)
    return p


def test_analyze_clean_tree_exits_zero(capsys):
    assert main(["analyze"]) == 0
    captured = capsys.readouterr()
    assert "0 finding(s)" in captured.out
    assert "[verify] analyze: PASS" in captured.err


def test_analyze_json_stdout_is_pure_json(capsys):
    assert main(["analyze", "--format", "json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # no trailing summary line on stdout
    assert report["findings"] == []
    assert "[verify] analyze: PASS" in captured.err


def test_analyze_new_findings_exit_code(tmp_path, capsys):
    p = _buggy_file(tmp_path)
    assert main(["analyze", "--paths", str(p)]) == LAYER_CODES["analyze"]
    captured = capsys.readouterr()
    assert "undriven-generator" in captured.out
    assert "[verify] analyze: FAIL" in captured.err


def test_layer_codes_are_distinct_and_documented():
    assert LAYER_CODES == {"model": 3, "smoke": 4, "analyze": 5}


def test_json_paths_are_relative_to_the_repo_root(tmp_path):
    inside = default_target() / "core" / "engine.py"
    outside = tmp_path / "mod.py"
    for path, shown in (
        (inside, "src/repro/core/engine.py"),
        (outside, outside.as_posix()),
    ):
        finding = Finding(rule="r", path=str(path), line=1, col=0, message="m")
        assert finding.to_json()["path"] == shown

"""CLI entry points of the verification subsystem."""

import repro.verify.__main__ as cli
from repro.verify.__main__ import main
from repro.verify.analyze import default_target
from repro.verify.analyze.frontend import Module


def test_cli_all_parses_the_tree_once(monkeypatch, capsys):
    # every parse builds a Module, from a file or from its text
    parsed = []
    real = Module.__init__

    def spy(self, path, source):
        parsed.append(path)
        real(self, path, source)

    monkeypatch.setattr(Module, "__init__", spy)
    monkeypatch.setattr(cli, "run_smoke", lambda seed, verbose: [])
    monkeypatch.setattr(cli, "SMOKE_SCHEMES", ())  # no runs to explore
    assert main(["all", "--ranks", "2"]) == 0
    files = sorted(str(f) for f in default_target().rglob("*.py"))
    assert sorted(parsed) == files


def test_cli_model_small(capsys):
    assert main(["model", "--ranks", "2"]) == 0
    out, err = capsys.readouterr()
    # every smoke scheme explored: runs, projections, how the search ended
    for name in ("coord_nb", "coord_nbms", "indep_m_log_gc", "cic", "indep_m_mlog"):
        assert f"[verify:model] {name} n=2: ok: " in out
    assert "distinct projections (" in out
    assert "[verify] model: PASS" in err


def test_cli_smoke_battery(capsys):
    assert main(["smoke"]) == 0
    out, err = capsys.readouterr()
    assert "[verify] smoke: PASS" in err
    # the five measured schemes plus the two coverage extras, all audited
    for name in ("coord_nb", "indep", "coord_nbm", "indep_m", "coord_nbms"):
        assert name in out

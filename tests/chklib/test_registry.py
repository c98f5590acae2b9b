"""The protocol families as data (DESIGN.md §13).

``repro.chklib.schemes.registry`` holds three tables — family, base,
alias — and a few lookups over them; ``SchemeSpec.of``/``.build`` apply
them. The table tests here stand in for the registration-time checks a
registry object used to run. The structural tests hold each family's
trace checkers to its own module, and to its own runs.
"""

import inspect

import pytest

from repro.chklib import CICScheme, CoordinatedScheme, IndependentScheme
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.chklib.schemes.registry import (
    ALIASES,
    BASES,
    FAMILIES,
    family_of,
    resolve_alias,
    scheme_class,
    skewed,
)
from repro.core.tracing import Checker, RunMeta
from repro.experiments.grid import SchemeSpec
from repro.verify import invariants
from repro.verify.invariants import default_checkers

# -- the tables ----------------------------------------------------------------


def test_four_families():
    assert list(FAMILIES) == ["coordinated", "independent", "cic", "msglog"]


def test_no_alias_is_listed_twice():
    names = [alias for alias, _base, _fixed in ALIASES]
    assert len(names) == len(set(names))


def test_every_alias_resolves_to_a_known_base():
    for alias, base, _fixed in ALIASES:
        assert base in BASES, alias


def test_every_fixed_override_is_in_its_familys_options():
    for alias, base, fixed in ALIASES:
        family = BASES[base][0]
        assert set(fixed) <= set(FAMILIES[family][1]), alias


def test_every_base_names_a_family_and_a_constructor_it_has():
    for base, (family, factory) in BASES.items():
        cls = scheme_class(family)
        assert cls is not None, base
        if factory is not None:
            assert callable(getattr(cls, factory)), base


def test_every_family_option_is_a_spec_field():
    fields = set(inspect.signature(SchemeSpec).parameters)
    for family, (_path, options, _skewed) in FAMILIES.items():
        assert set(options) <= fields, family


def test_alias_table_covers_legacy_and_new():
    legacy = {
        "coord_nb", "coord_nbm", "coord_nbms", "coord_nbs", "coord_nbc",
        "coord_nbcs", "indep", "indep_m", "indep_c", "indep_log",
        "indep_m_log", "indep_m_nolog", "coord_nb_inc", "coord_nbms_inc",
        "coord_nbcs_inc", "coord_nb_2l", "coord_nbms_2l",
    }
    new = {"cic", "cic_fdas", "indep_m_mlog"}
    assert {alias for alias, _base, _fixed in ALIASES} == legacy | new


# -- the lookups ---------------------------------------------------------------


def test_aliases_pin_fixed_overrides():
    assert resolve_alias("indep_m_log") == ("indep_m", {"logging": True})
    assert resolve_alias("cic") == ("cic", {})
    assert resolve_alias("cic_fdas") == ("cic", {"cic_rule": "fdas"})
    assert resolve_alias("indep_m_mlog") == ("mlog", {})


def test_resolved_overrides_are_a_copy():
    resolve_alias("indep_m_log")[1]["logging"] = False
    assert resolve_alias("indep_m_log") == ("indep_m", {"logging": True})


def test_unknown_alias_error_lists_available():
    with pytest.raises(ValueError, match="unknown scheme 'nope'") as ei:
        resolve_alias("nope")
    msg = str(ei.value)
    assert "available:" in msg
    # a representative from every family shows up in the hint
    for alias in ("coord_nb", "indep_m", "cic", "indep_m_mlog"):
        assert alias in msg


def test_skewed_marks_timer_families():
    assert not skewed("coord_nbms")
    assert skewed("indep_m")
    assert skewed("cic")
    assert skewed("indep_m_mlog")


def test_family_of_and_scheme_class():
    assert scheme_class(family_of("coord_nb")) is CoordinatedScheme
    assert scheme_class(family_of("indep_log")) is IndependentScheme
    assert scheme_class(family_of("cic_fdas")) is CICScheme
    assert scheme_class(family_of("indep_m_mlog")) is MessageLoggingScheme
    assert scheme_class("none") is None


# -- option schema enforcement -------------------------------------------------


def test_out_of_schema_option_rejected():
    with pytest.raises(ValueError, match="takes no option"):
        SchemeSpec.of("coord_nb", (1.0,), logging=True)
    with pytest.raises(ValueError, match="cic_rule"):
        SchemeSpec.of("indep_m", (1.0,), cic_rule="fdas")


def test_option_at_default_is_tolerated():
    # uniform call sites pass skew=0.0 to timerless schemes; that is a
    # no-op, not a request, so it must stay legal
    spec = SchemeSpec.of("coord_nb", (1.0,), skew=0.0)
    assert spec.skew == 0.0
    with pytest.raises(ValueError, match="skew"):
        SchemeSpec.of("coord_nb", (1.0,), skew=0.5)


# -- spec building -------------------------------------------------------------


def test_unknown_base_rejected_at_build():
    with pytest.raises(ValueError, match="unknown scheme base 'nope'"):
        SchemeSpec(name="nope", times=(1.0,)).build()


def test_build_constructs_the_right_classes():
    assert isinstance(
        SchemeSpec.of("coord_nbms", (1.0,)).build(), CoordinatedScheme
    )
    cic = SchemeSpec.of("cic_fdas", (1.0,), skew=0.1).build()
    assert isinstance(cic, CICScheme)
    assert cic.cic_rule == "fdas"
    assert cic.skew == 0.1
    mlog = SchemeSpec.of("indep_m_mlog", (1.0,), skew=0.1).build()
    assert isinstance(mlog, MessageLoggingScheme)
    assert mlog.logging


# -- each family's verification ------------------------------------------------


def test_explorer_covers_every_family():
    # ``repro.verify model`` explores the smoke schemes: one or more per
    # family, so a new family cannot ship unexplored
    from repro.verify.smoke import SMOKE_SCHEMES, make_smoke_scheme

    explored = {type(make_smoke_scheme(name, [1.0], 1.0)) for name in SMOKE_SCHEMES}
    assert {scheme_class(family) for family in FAMILIES} <= explored


def test_family_checkers_are_defined_in_their_schemes_module():
    names = []
    for family in FAMILIES:
        cls = scheme_class(family)
        for checker in cls.CHECKERS:
            assert issubclass(checker, Checker)
            assert checker.__module__ == cls.__module__, (family, checker)
            names.append(checker.name)
    # the invariants tests/verify/test_mutations.py's family mutants
    # (CommitEarly, NoTokenWait, CicSkipForced, MlogDeepRollback) are
    # flagged by
    assert sorted(names) == [
        "cic_index_rule",
        "coordinated_two_phase",
        "msglog_replay_bounds",
        "staggered_write_mutex",
    ]


def test_the_verify_engine_defines_no_family_checker():
    family = {c for f in FAMILIES for c in scheme_class(f).CHECKERS}
    core = {
        obj
        for obj in vars(invariants).values()
        if inspect.isclass(obj) and issubclass(obj, Checker) and obj is not Checker
    }
    assert len(core) == 6
    assert all(c.__module__ == invariants.__name__ for c in core)
    assert not core & family


@pytest.mark.parametrize("family", list(FAMILIES) + ["none"])
def test_family_checkers_run_only_on_their_familys_runs(family):
    meta = RunMeta(n_ranks=2, klass=family)
    ran = {type(c) for c in default_checkers(meta)}
    for other in FAMILIES:
        own = set(scheme_class(other).CHECKERS)
        if other == family:
            assert own <= ran
        else:
            assert not own & ran, other

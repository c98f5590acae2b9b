"""Unit tests for the protocol registry (DESIGN.md §13).

The registry is the single source of truth for scheme families: alias
resolution, option schemas, the verify hooks (trace checkers, event
vocabularies) and the ``--list-schemes`` description
rows all come from one object. These tests pin that contract down.
"""

import pytest

from repro.chklib import CICScheme, CoordinatedScheme, IndependentScheme
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.chklib.schemes.registry import (
    REGISTRY,
    ProtocolFamily,
    ProtocolRegistry,
)
from repro.core.tracing import EVENT_KINDS
from repro.experiments.grid import SCHEME_ALIASES, SchemeSpec


# -- the populated registry ----------------------------------------------------


def test_four_families_registered():
    names = [f.name for f in REGISTRY.families()]
    assert names == ["coordinated", "independent", "cic", "msglog"]


def test_alias_table_covers_legacy_and_new():
    table = REGISTRY.alias_table()
    legacy = {
        "coord_nb", "coord_nbm", "coord_nbms", "coord_nbs", "coord_nbc",
        "coord_nbcs", "indep", "indep_m", "indep_c", "indep_log",
        "indep_m_log", "indep_m_nolog", "coord_nb_inc", "coord_nbms_inc",
        "coord_nbcs_inc", "coord_nb_2l", "coord_nbms_2l",
    }
    new = {"cic", "cic_fdas", "indep_m_mlog"}
    assert set(table) == legacy | new
    # grid.py's SCHEME_ALIASES is the same table (single-sourced)
    assert SCHEME_ALIASES == table


def test_aliases_pin_fixed_overrides():
    assert REGISTRY.resolve("indep_m_log") == ("indep_m", {"logging": True})
    assert REGISTRY.resolve("cic") == ("cic", {})
    assert REGISTRY.resolve("cic_fdas") == ("cic", {"cic_rule": "fdas"})
    assert REGISTRY.resolve("indep_m_mlog") == ("mlog", {})


def test_unknown_alias_error_lists_available():
    with pytest.raises(ValueError, match="unknown scheme 'nope'") as ei:
        REGISTRY.resolve("nope")
    msg = str(ei.value)
    assert "available:" in msg
    # a representative from every family shows up in the hint
    for alias in ("coord_nb", "indep_m", "cic", "indep_m_mlog"):
        assert alias in msg


def test_skewed_marks_timer_families():
    assert not REGISTRY.skewed("coord_nbms")
    assert REGISTRY.skewed("indep_m")
    assert REGISTRY.skewed("cic")
    assert REGISTRY.skewed("indep_m_mlog")


def test_family_of_maps_alias_to_scheme_class():
    assert REGISTRY.family_of("coord_nb").scheme_cls is CoordinatedScheme
    assert REGISTRY.family_of("indep_log").scheme_cls is IndependentScheme
    assert REGISTRY.family_of("cic_fdas").scheme_cls is CICScheme
    assert (
        REGISTRY.family_of("indep_m_mlog").scheme_cls is MessageLoggingScheme
    )


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


def test_alias_fixed_overrides_must_be_in_schema():
    reg = ProtocolRegistry()
    reg.register(REGISTRY.family_of("coord_nb"))
    with pytest.raises(ValueError, match="not in the coordinated"):
        reg.register_alias("bad", "coord_nb", {"logging": True})


def test_duplicate_registration_rejected():
    reg = ProtocolRegistry()
    fam = REGISTRY.family_of("cic")
    reg.register(fam)
    with pytest.raises(ValueError, match="duplicate protocol family"):
        reg.register(fam)
    reg.register_alias("cic", "cic", {})
    with pytest.raises(ValueError, match="duplicate scheme alias"):
        reg.register_alias("cic", "cic", {})


# -- spec building -------------------------------------------------------------


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


# -- verify hooks --------------------------------------------------------------


def test_explorer_covers_every_registered_family():
    # ``repro.verify model`` explores the smoke schemes: one or more per
    # family, so a new family cannot ship unexplored
    from repro.verify.smoke import SMOKE_SCHEMES, make_smoke_scheme

    explored = {type(make_smoke_scheme(name, [1.0], 1.0)) for name in SMOKE_SCHEMES}
    assert {family.scheme_cls for family in REGISTRY.families()} <= explored


def test_trace_checkers_deduped_and_ordered():
    from repro.verify.invariants import CicIndexRule, MsglogReplayBounds

    classes = REGISTRY.trace_checkers()
    assert len(classes) == len(set(classes))
    assert classes.index(CicIndexRule) < classes.index(MsglogReplayBounds)


def test_trace_events_registered_in_event_kinds():
    assert REGISTRY.trace_events() <= EVENT_KINDS
    assert {
        "proto.cic.forced",
        "proto.cic.promote",
        "proto.mlog.logged",
        "proto.mlog.degraded",
    } <= REGISTRY.trace_events()


class Rogue(CICScheme):
    TRACE_EVENTS = ("proto.not.a.kind",)


def test_validate_rejects_rogue_event_vocabulary():
    reg = ProtocolRegistry()
    fam = REGISTRY.family_of("cic")
    reg.register(
        ProtocolFamily(
            name="rogue",
            scheme=f"{__name__}.Rogue",
            bases=("rogue",),
            options=fam.options,
            skewed=True,
        )
    )
    with pytest.raises(ValueError, match="missing from EVENT_KINDS"):
        reg.validate()


def test_describe_rows_match_alias_table():
    rows = REGISTRY.describe()
    assert [alias for alias, _, _ in rows] == REGISTRY.aliases()
    by_alias = {alias: (family, fixed) for alias, family, fixed in rows}
    assert by_alias["indep_m_log"] == ("independent", {"logging": True})
    assert by_alias["cic_fdas"] == ("cic", {"cic_rule": "fdas"})
    assert by_alias["indep_m_mlog"] == ("msglog", {})

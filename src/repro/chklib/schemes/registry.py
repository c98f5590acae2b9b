"""The protocol families as data: three tables and the lookups over them.

* :data:`FAMILIES` — family → its :class:`~repro.chklib.schemes.base.Scheme`
  class (a dotted path, imported on first use), the ``SchemeSpec`` options
  its build honours (any other option away from its default is rejected
  when a spec is made, not silently ignored) and whether it is
  timer-driven (``skewed``: experiments give it the standard per-rank
  timer skew);
* :data:`BASES` — ``SchemeSpec`` base name → its family and the family
  class's named constructor building it (``None``: the class itself);
* :data:`ALIASES` — the user-facing names (``coord_nbms``,
  ``indep_m_log``, …), each a base plus fixed option overrides, in
  ``runner --list-schemes`` order.

Everything here is plain data: resolving an alias, checking a spec's
options or planning a cell never imports a protocol's code, so a command
whose every cell is cached does not load it. ``SchemeSpec.of`` and
``SchemeSpec.build`` (:mod:`repro.experiments.grid`) apply the tables.

A family's verification is its own module's business: its scheme class
names its trace checkers in ``CHECKERS``, defined beside the protocol,
and the event names both use are :data:`repro.core.tracing.EVENT_KINDS`,
held to the emission sites by the analyzer. Adding a family is one
module plus a row in each table; its aliases also go into
``repro.verify.smoke.SMOKE_SCHEMES``, which the smoke audit and the
``repro.verify model`` schedule explorer run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Type

from ..._lazy import resolve

if TYPE_CHECKING:
    from .base import Scheme

__all__ = [
    "FAMILIES",
    "BASES",
    "ALIASES",
    "resolve_alias",
    "family_of",
    "skewed",
    "scheme_class",
]

#: family -> (Scheme class path, SchemeSpec options its build honours,
#: timer-driven?)
FAMILIES: Dict[str, Tuple[str, Tuple[str, ...], bool]] = {
    "coordinated": (
        f"{__package__}.coordinated.CoordinatedScheme",
        ("incremental", "two_level", "marker_scope", "policy"),
        False,
    ),
    "independent": (
        f"{__package__}.independent.IndependentScheme",
        ("skew", "logging", "gc", "policy"),
        True,
    ),
    "cic": (
        f"{__package__}.cic.CICScheme",
        ("skew", "cic_rule", "policy"),
        True,
    ),
    "msglog": (
        f"{__package__}.msglog.MessageLoggingScheme",
        ("skew", "gc", "policy"),
        True,
    ),
}

#: base -> (family, the family class's named constructor; None: the class)
BASES: Dict[str, Tuple[str, Optional[str]]] = {
    "coord_nb": ("coordinated", "NB"),
    "coord_nbm": ("coordinated", "NBM"),
    "coord_nbms": ("coordinated", "NBMS"),
    "coord_nbs": ("coordinated", "NBS"),
    "coord_nbc": ("coordinated", "NBC"),
    "coord_nbcs": ("coordinated", "NBCS"),
    "indep": ("independent", "Indep"),
    "indep_m": ("independent", "IndepM"),
    "indep_c": ("independent", "IndepC"),
    "cic": ("cic", None),
    "mlog": ("msglog", None),
}

#: (alias, base, fixed option overrides), in listing order. ``skew`` is
#: the one option resolved at plan time (a fraction of the checkpoint
#: interval), so aliases only pin the discrete flags.
ALIASES: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("coord_nb", "coord_nb", {}),
    ("coord_nbm", "coord_nbm", {}),
    ("coord_nbms", "coord_nbms", {}),
    ("coord_nbs", "coord_nbs", {}),
    ("coord_nbc", "coord_nbc", {}),
    ("coord_nbcs", "coord_nbcs", {}),
    ("indep", "indep", {}),
    ("indep_m", "indep_m", {}),
    ("indep_c", "indep_c", {}),
    ("indep_log", "indep", {"logging": True}),
    ("indep_m_log", "indep_m", {"logging": True}),
    ("indep_m_nolog", "indep_m", {}),
    ("coord_nb_inc", "coord_nb", {"incremental": True}),
    ("coord_nbms_inc", "coord_nbms", {"incremental": True}),
    ("coord_nbcs_inc", "coord_nbcs", {"incremental": True}),
    ("coord_nb_2l", "coord_nb", {"two_level": True}),
    ("coord_nbms_2l", "coord_nbms", {"two_level": True}),
    ("cic", "cic", {}),
    ("cic_fdas", "cic", {"cic_rule": "fdas"}),
    ("indep_m_mlog", "mlog", {}),
)

_BY_ALIAS = {alias: (base, fixed) for alias, base, fixed in ALIASES}


def resolve_alias(alias: str) -> Tuple[str, Dict[str, Any]]:
    """``alias -> (base, fixed options)``; an unknown alias names every
    known one."""
    try:
        base, fixed = _BY_ALIAS[alias]
    except KeyError:
        available = ", ".join(sorted(_BY_ALIAS))
        raise ValueError(
            f"unknown scheme {alias!r} (available: {available})"
        ) from None
    return base, dict(fixed)


def family_of(alias: str) -> str:
    """The family an alias belongs to."""
    return BASES[resolve_alias(alias)[0]][0]


def skewed(alias: str) -> bool:
    """Does this alias name a timer-driven (skew-taking) scheme?"""
    return FAMILIES[family_of(alias)][2]


def scheme_class(family: str) -> Optional[Type[Scheme]]:
    """The family's Scheme class, imported on first use (None for a
    scheme outside every family: the uncheckpointed baseline)."""
    entry = FAMILIES.get(family)
    return resolve(entry[0]) if entry is not None else None

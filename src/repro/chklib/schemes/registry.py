"""The protocol registry: single source of truth for scheme families.

Everything the rest of the codebase needs to know about a checkpointing
protocol family lives here, declared once per family:

* the concrete :class:`~repro.chklib.schemes.base.Scheme` class (pickled
  whole into a durable line, minus its ``VOLATILE_FIELDS``), named by
  dotted path and imported on first use;
* its *base names* (one named constructor each, or the class itself) —
  :meth:`ProtocolRegistry.build` turns a declarative
  :class:`~repro.experiments.grid.SchemeSpec` into a scheme by the same
  rule for every family;
* the *option schema* — which ``SchemeSpec`` fields the family honours
  (anything else is rejected at spec-build time instead of silently
  ignored);
* its *verify hooks*: the trace-invariant checkers
  (``Scheme.trace_checkers``) and the trace-event vocabulary
  (``Scheme.TRACE_EVENTS``), validated against
  :data:`repro.core.tracing.EVENT_KINDS` whenever the class is resolved
  here, so no protocol event can ship
  unregistered — the static analyzer's trace-conformance pass then
  proves every registered kind is both emitted and consumed.

The user-facing *alias table* (``coord_nbms``, ``indep_m_log``, ...)
maps each alias to a base name plus fixed option overrides; the literal
dict that used to live in ``experiments/grid.py`` is re-exported from
here. Adding a fourth family is one module: subclass ``Scheme``, declare
the verify hooks on the class, and register the family and its aliases
below — the grid, the runner, the trace checkers and the resume layer
all pick it up from the registry. Its aliases also go into
``repro.verify.smoke.SMOKE_SCHEMES``, which the smoke audit and the
``repro.verify model`` schedule explorer run (a test holds that every
registered family is there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Type

from ..._lazy import resolve

if TYPE_CHECKING:
    from .base import Scheme

__all__ = ["ProtocolFamily", "ProtocolRegistry", "REGISTRY"]


@dataclass(frozen=True)
class ProtocolFamily:
    """One protocol family's registry entry.

    Everything but the class is plain data: resolving an alias, checking
    a spec's options or planning a cell never imports the protocol's
    code, so a command whose every cell is cached does not load it.
    """

    name: str  #: family key ("coordinated", "independent", "cic", "msglog")
    scheme: str  #: dotted path of the family's Scheme class
    bases: Tuple[str, ...]  #: SchemeSpec base names this family owns
    options: Tuple[str, ...]  #: SchemeSpec fields the family's build honours
    #: timer-driven checkpointing: experiments add the standard per-rank
    #: timer skew when planning cells for this family.
    skewed: bool = False

    @property
    def scheme_cls(self) -> Type[Scheme]:
        """The family's Scheme class, imported on first use and checked
        against :data:`repro.core.tracing.EVENT_KINDS` on every
        resolution — a protocol declaring an event kind the tracer would
        reject fails before any of its schemes is built or explored."""
        from ...core.tracing import EVENT_KINDS

        cls = resolve(self.scheme)
        rogue = sorted(set(cls.TRACE_EVENTS) - EVENT_KINDS)
        if rogue:
            raise ValueError(
                f"protocol family {self.name!r} declares trace "
                f"events missing from EVENT_KINDS: {rogue}"
            )
        return cls


class ProtocolRegistry:
    """Scheme classes, aliases, option schemas and verify hooks."""

    def __init__(self) -> None:
        self._families: Dict[str, ProtocolFamily] = {}
        self._aliases: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._base_family: Dict[str, str] = {}

    # -- registration ----------------------------------------------------------

    def register(self, family: ProtocolFamily) -> None:
        if family.name in self._families:
            raise ValueError(f"duplicate protocol family {family.name!r}")
        for base in family.bases:
            if base in self._base_family:
                raise ValueError(f"scheme base {base!r} already registered")
            self._base_family[base] = family.name
        self._families[family.name] = family

    def register_alias(
        self, alias: str, base: str, fixed: Dict[str, Any]
    ) -> None:
        if alias in self._aliases:
            raise ValueError(f"duplicate scheme alias {alias!r}")
        family = self.family_for_base(base)
        unknown = sorted(set(fixed) - set(family.options))
        if unknown:
            raise ValueError(
                f"alias {alias!r}: options {unknown} not in the "
                f"{family.name} option schema {sorted(family.options)}"
            )
        self._aliases[alias] = (base, dict(fixed))

    # -- lookup ----------------------------------------------------------------

    def families(self) -> List[ProtocolFamily]:
        return list(self._families.values())

    def aliases(self) -> List[str]:
        return list(self._aliases)

    def alias_table(self) -> Dict[str, Tuple[str, Dict[str, Any]]]:
        """A plain-dict snapshot, compatible with the legacy
        ``SCHEME_ALIASES`` literal this registry replaced."""
        return {a: (b, dict(f)) for a, (b, f) in self._aliases.items()}

    def resolve(self, alias: str) -> Tuple[str, Dict[str, Any]]:
        """``alias -> (base, fixed options)``; unknown aliases name every
        registered one."""
        try:
            base, fixed = self._aliases[alias]
        except KeyError:
            available = ", ".join(sorted(self._aliases))
            raise ValueError(
                f"unknown scheme {alias!r} (available: {available})"
            ) from None
        return base, dict(fixed)

    def family_for_base(self, base: str) -> ProtocolFamily:
        try:
            return self._families[self._base_family[base]]
        except KeyError:
            raise ValueError(f"unknown scheme base {base!r}") from None

    def family_of(self, alias: str) -> ProtocolFamily:
        base, _ = self.resolve(alias)
        return self.family_for_base(base)

    def skewed(self, alias: str) -> bool:
        """Does this alias name a timer-driven (skew-taking) scheme?"""
        return self.family_of(alias).skewed

    def check_options(self, base: str, options: Dict[str, Any]) -> None:
        """Reject options outside the family's schema (silently ignoring
        them would make specs lie about what they measure). An option at
        its spec default is a no-op, not a request, so uniform call sites
        (``skew=0.0`` on a timerless scheme) stay legal."""
        family = self.family_for_base(base)
        unknown = sorted(
            name
            for name, value in options.items()
            if name not in family.options
            and value != _OPTION_DEFAULTS.get(name, object())
        )
        if unknown:
            raise ValueError(
                f"scheme base {base!r} ({family.name}) takes no option(s) "
                f"{unknown}; its schema is {sorted(family.options)}"
            )

    def build(self, spec: Any) -> Scheme:
        """Instantiate a scheme from a ``SchemeSpec``: the base's named
        constructor (or the family class) gets the spec's times plus every
        schema option the spec sets away from its default."""
        from ..policy import build_policy

        family = self.family_for_base(spec.name)
        kw: Dict[str, Any] = {}
        for option in family.options:
            value = getattr(spec, option)
            if value != _OPTION_DEFAULTS[option]:
                kw[option] = build_policy(value) if option == "policy" else value
        cls = family.scheme_cls
        factory = _FACTORIES.get(spec.name)
        make = getattr(cls, factory) if factory is not None else cls
        return make(list(spec.times), **kw)

    # -- verify hooks ----------------------------------------------------------

    def trace_checkers(self) -> List[type]:
        """Every family's trace-checker classes, deduped, registration
        order — contributed to ``verify.invariants.default_checkers``."""
        checkers: List[type] = []
        for family in self._families.values():
            for cls in family.scheme_cls.trace_checkers():
                if cls not in checkers:
                    checkers.append(cls)
        return checkers

    def trace_events(self) -> frozenset:
        """Union of every family's protocol-specific event vocabulary."""
        kinds = set()
        for family in self._families.values():
            kinds.update(family.scheme_cls.TRACE_EVENTS)
        return frozenset(kinds)

    def validate(self) -> None:
        """Fail if any family declares an event kind the tracer would
        reject — keeps ``EVENT_KINDS`` and the analyzer's conformance
        pass authoritative over the schemes' vocabularies. Resolving a
        family's :attr:`~ProtocolFamily.scheme_cls` runs the check."""
        for family in self._families.values():
            family.scheme_cls

    # -- describe (runner --list-schemes) --------------------------------------

    def describe(self) -> List[Tuple[str, str, Dict[str, Any]]]:
        """``(alias, family, fixed overrides)`` rows, registration order."""
        rows = []
        for alias, (base, fixed) in self._aliases.items():
            rows.append((alias, self._base_family[base], dict(fixed)))
        return rows


#: ``SchemeSpec`` field defaults, mirrored here so :meth:`check_options`
#: can tell "explicitly requested" from "left at the default" without a
#: circular import of the experiments layer.
_OPTION_DEFAULTS: Dict[str, Any] = {
    "skew": 0.0,
    "logging": False,
    "gc": False,
    "incremental": False,
    "two_level": False,
    "marker_scope": "all",
    "policy": None,
    "cic_rule": "bcs",
}


#: base name -> the family class's named constructor building it (bases
#: missing here are built by calling the family class itself).
_FACTORIES = {
    "coord_nb": "NB",
    "coord_nbm": "NBM",
    "coord_nbms": "NBMS",
    "coord_nbs": "NBS",
    "coord_nbc": "NBC",
    "coord_nbcs": "NBCS",
    "indep": "Indep",
    "indep_m": "IndepM",
    "indep_c": "IndepC",
}


#: The process-wide registry, populated at import. Scheme resolution,
#: the verify stack and the runner all read from this one object.
REGISTRY = ProtocolRegistry()

REGISTRY.register(
    ProtocolFamily(
        name="coordinated",
        scheme=f"{__package__}.coordinated.CoordinatedScheme",
        bases=("coord_nb", "coord_nbm", "coord_nbms",
               "coord_nbs", "coord_nbc", "coord_nbcs"),
        options=("incremental", "two_level", "marker_scope", "policy"),
        skewed=False,
    )
)
REGISTRY.register(
    ProtocolFamily(
        name="independent",
        scheme=f"{__package__}.independent.IndependentScheme",
        bases=("indep", "indep_m", "indep_c"),
        options=("skew", "logging", "gc", "policy"),
        skewed=True,
    )
)
REGISTRY.register(
    ProtocolFamily(
        name="cic",
        scheme=f"{__package__}.cic.CICScheme",
        bases=("cic",),
        options=("skew", "cic_rule", "policy"),
        skewed=True,
    )
)
REGISTRY.register(
    ProtocolFamily(
        name="msglog",
        scheme=f"{__package__}.msglog.MessageLoggingScheme",
        bases=("mlog",),
        options=("skew", "gc", "policy"),
        skewed=True,
    )
)

#: alias -> (base, fixed option overrides). ``skew`` is the one option
#: resolved at plan time (a fraction of the checkpoint interval), so
#: aliases only pin the discrete flags.
for _alias, _base, _fixed in (
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
):
    REGISTRY.register_alias(_alias, _base, _fixed)
del _alias, _base, _fixed

"""Checkpointing schemes: the paper's coordinated and independent
families, the CIC / message-logging third family, ablation variants, the
no-checkpoint baseline — and the tables naming them (:mod:`.registry`)."""

from ..._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "Scheme": "base",
    "SchemeAgent": "base",
    "NoCheckpointing": "base",
    "CoordinatedScheme": "coordinated",
    "CoordinatedAgent": "coordinated",
    "IndependentScheme": "independent",
    "IndependentAgent": "independent",
    "CICScheme": "cic",
    "CICAgent": "cic",
    "MessageLoggingScheme": "msglog",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)

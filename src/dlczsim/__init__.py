"""Desk-scale simulator and verification pipeline for heralded entanglement
between two remote atomic ensembles (DLCZ-type write/read protocol).

The package exports the names of the README's library sketch; everything
else is imported from its module (``dlczsim.pipeline``, ``dlczsim.tomography``, ...).
Each export loads its module on first use: ``import dlczsim.cli`` loads what cli imports."""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "EnsembleParams": "config",
    "HeraldChoice": "config",
    "InterferometerParams": "config",
    "concurrence_restricted": "entanglement",
    "herald": "protocol",
    "read_stage": "protocol",
    "restrict": "tomography",
    "write_stage": "protocol",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULES[name]}", __name__), name)

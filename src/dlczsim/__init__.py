"""Desk-scale simulator and verification pipeline for heralded entanglement
between two remote atomic ensembles (DLCZ-type write/read protocol).

The package exports the names of the README's library sketch; everything
else is imported from its module (``dlczsim.pipeline``, ``dlczsim.tomography``, ...)."""

from .config import EnsembleParams, HeraldChoice, InterferometerParams
from .protocol import herald, read_stage, write_stage
from .tomography import restrict
from .entanglement import concurrence_restricted

__version__ = "0.1.0"

__all__ = [
    "EnsembleParams",
    "HeraldChoice",
    "InterferometerParams",
    "concurrence_restricted",
    "herald",
    "read_stage",
    "restrict",
    "write_stage",
]

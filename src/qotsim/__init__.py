"""Simulator and verification suite for a commitment-based quantum string
transfer protocol and its key-distribution variant."""

from . import attacks, cosetrho, gf2, protocol, quantum, streams, transcript
from .errors import (
    DimensionError,
    DomainError,
    ProtocolViolation,
    ResourceError,
)
from .protocol import run_qkd, run_string_qot
from .transcript import ChannelModel, Mode, ProtocolParams, Transcript

__version__ = "0.1.0"

__all__ = [
    "attacks",
    "cosetrho",
    "gf2",
    "protocol",
    "quantum",
    "streams",
    "transcript",
    "DimensionError",
    "DomainError",
    "ProtocolViolation",
    "ResourceError",
    "ChannelModel",
    "Mode",
    "ProtocolParams",
    "Transcript",
    "run_qkd",
    "run_string_qot",
    "__version__",
]

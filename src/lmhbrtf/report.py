"""Run reports: a versioned JSON record of configuration, trace and results.

Reports round-trip losslessly through JSON (floats keep their shortest
exact decimal form; non-finite values are encoded as the strings
"+inf", "-inf" and "nan" so the files stay strict JSON).  Timing lives
under dedicated "timing"/"*_s" keys so determinism comparisons can
strip it.
"""

from __future__ import annotations

import json
import math
from typing import Optional

__all__ = ["RunReport", "strip_timing"]

SCHEMA_VERSION = 1
_TIMING_KEYS = ("timing", "created_unix")
_NON_FINITE = {"+inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


class RunReport:
    """Configuration echo plus results of one tool invocation.

    ``config``, ``results``, ``trace`` and ``timing`` default to new empty
    containers; an empty ``version`` is the package version.
    """

    def __init__(self, command: str, config: Optional[dict] = None,
                 results: Optional[dict] = None, trace: Optional[list] = None,
                 timing: Optional[dict] = None, schema_version: int = SCHEMA_VERSION,
                 tool: str = "lmhbrtf", version: str = ""):
        if not version:
            from . import __version__
            version = __version__
        self.command = command
        self.config = {} if config is None else config
        self.results = {} if results is None else results
        self.trace = [] if trace is None else trace
        self.timing = {} if timing is None else timing
        self.schema_version, self.tool, self.version = schema_version, tool, version

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "trace": self.trace,
            "timing": self.timing,
        }

    def save(self, path) -> None:
        """Write the report whole: it is serialized before the file is opened."""
        text = json.dumps(_encode(self.as_dict()), indent=2, sort_keys=True,
                          allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        with open(path, "r", encoding="utf-8") as fh:
            raw = _decode(json.load(fh))
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported report schema "
                f"{raw.get('schema_version')!r}, need {SCHEMA_VERSION}"
            )
        return cls(command=raw["command"], config=raw["config"],
                   results=raw["results"], trace=raw["trace"],
                   timing=raw["timing"], schema_version=raw["schema_version"],
                   tool=raw["tool"], version=raw["version"])


def strip_timing(value):
    """Deep-copy a report dict with all timing fields removed."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k not in _TIMING_KEYS and not k.endswith("_s")}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value

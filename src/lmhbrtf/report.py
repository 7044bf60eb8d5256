"""Run reports: a versioned JSON record of configuration, trace and results.

Reports round-trip losslessly through JSON (floats keep their shortest
exact decimal form; non-finite values are encoded as the strings
"+inf", "-inf" and "nan" so the files stay strict JSON).  Timing lives
under dedicated "timing"/"*_s" keys so determinism comparisons can
strip it.  A saved report is the header ``schema_version``/``tool``
plus the fields of :class:`RunReport`.
"""

from __future__ import annotations

import inspect
import json
import math
from typing import Optional

__all__ = ["RunReport", "strip_timing"]

SCHEMA_VERSION = 1
_HEADER = {"schema_version": SCHEMA_VERSION, "tool": "lmhbrtf"}
_TIMING_KEYS = ("timing", "created_unix")
_NON_FINITE = {"+inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _walk(value, leaf, keep=lambda key: True):
    """A copy of the JSON-like *value* with *leaf* applied to every scalar:
    dict keys become strings, lists and tuples become lists, and a dict
    entry whose key fails *keep* is dropped."""
    if isinstance(value, dict):
        return {str(k): _walk(v, leaf, keep) for k, v in value.items() if keep(str(k))}
    if isinstance(value, (list, tuple)):
        return [_walk(v, leaf, keep) for v in value]
    return leaf(value)


def _encode(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "+inf" if value > 0 else "-inf"
    return value


class RunReport:
    """Configuration echo plus results of one tool invocation.

    ``config``, ``results``, ``trace`` and ``timing`` default to new empty
    containers; an empty ``version`` is the package version.
    """

    def __init__(self, command: str, config: Optional[dict] = None,
                 results: Optional[dict] = None, trace: Optional[list] = None,
                 timing: Optional[dict] = None, version: str = ""):
        if not version:
            from . import __version__
            version = __version__
        self.command = command
        self.config = {} if config is None else config
        self.results = {} if results is None else results
        self.trace = [] if trace is None else trace
        self.timing = {} if timing is None else timing
        self.version = version

    def as_dict(self) -> dict:
        return dict(_HEADER, **vars(self))

    def save(self, path) -> None:
        """Write the report whole: it is serialized before the file is opened."""
        text = json.dumps(_walk(self.as_dict(), _encode), indent=2, sort_keys=True,
                          allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read a saved report; a ValueError names *path* when its header
        differs or its other keys are not exactly the report's fields."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = _walk(json.load(fh), lambda leaf: _NON_FINITE.get(leaf, leaf))
        header = {key: raw.pop(key, None) for key in _HEADER} if isinstance(raw, dict) else {}
        if header != _HEADER:
            raise ValueError(f"{path}: unsupported report schema {header}, need {_HEADER}")
        fields = inspect.signature(cls).parameters.keys()
        if raw.keys() != fields:
            raise ValueError(f"{path}: report keys {sorted(raw)} are not the fields "
                             f"{sorted(fields)}")
        return cls(**raw)


def strip_timing(value):
    """Deep-copy a report dict with all timing fields removed."""
    return _walk(value, lambda leaf: leaf,
                 lambda key: key not in _TIMING_KEYS and not key.endswith("_s"))

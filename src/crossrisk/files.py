"""The file boundary. An input file that cannot be opened, decoded or parsed
raises ManifestError("cannot read <what> <path>: ..."), and an output file's
directory is created before the file is opened."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO, TypeVar

from .errors import CrossRiskError, ManifestError

T = TypeVar("T")


def read_json(path: str, what: str, parse: Callable[[Any], T]) -> T:
    """parse of the JSON document at path; whatever parse raises for a
    document of the wrong shape is the file's fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, CrossRiskError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ManifestError(f"cannot read {what} {path}: {reason}") from exc


def input_lines(path: str, what: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, line ends kept as written."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read {what} {path}: {exc}") from exc


def open_output(path: str) -> TextIO:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_json(path: str, doc: Any, **style: Any) -> None:
    """doc as JSON in the caller's json.dump style, then a newline."""
    with open_output(path) as fh:
        json.dump(doc, fh, **style)
        fh.write("\n")

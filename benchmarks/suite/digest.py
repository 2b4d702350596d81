"""Output correctness: canonical digests and the first differing path.

A repetition's output is its studies' ``to_json()`` forms.  Every
``engine`` key is dropped (the engine is a setting, not a result), the
rest is serialised as sorted, compact JSON and hashed with sha256.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional


def strip_engine(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {k: strip_engine(v) for k, v in doc.items() if k != "engine"}
    if isinstance(doc, list):
        return [strip_engine(v) for v in doc]
    return doc


def canonical(doc: Any) -> str:
    return json.dumps(strip_engine(doc), sort_keys=True, separators=(",", ":"))


def sha256(doc: Any) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


def first_difference(expected: Any, actual: Any, path: str = "$") -> Optional[str]:
    """The JSON path of the first place ``actual`` departs from
    ``expected`` (keys in sorted order), or None when they are equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{i}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path
    return None


def is_degraded(doc: Any) -> bool:
    """True when any ``degraded`` flag is set or any ``divergences`` list
    is non-empty anywhere in the output: a degraded run is not measured."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("degraded", "degraded_to_serial") and value:
                return True
            if key == "divergences" and value:
                return True
            if is_degraded(value):
                return True
    elif isinstance(doc, list):
        return any(is_degraded(v) for v in doc)
    return False

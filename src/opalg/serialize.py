"""Deterministic JSON serialization for reports and scenario matrices.

Complex matrices travel as [re, im] pairs of row-major nested lists; floats
are rendered with 17 significant digits so that round-trips are exact and
re-runs are byte-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np


def mat_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [np.real(m).tolist(), np.imag(m).tolist()]


def mat_from_json(pair):
    re, im = pair
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def _fmt_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s \
            and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def dumps(obj, indent=None, _level=0):
    """JSON text with sorted keys and 17-significant-digit floats."""
    pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
    end = "" if indent is None else "\n" + " " * (indent * _level)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag], indent, _level)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return dumps(mat_to_json(obj), indent, _level)
    if isinstance(obj, (frozenset, set)):
        return dumps(sorted(obj), indent, _level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, indent, _level + 1) for v in obj]
        return "[" + pad + ("," + pad).join(items) + end + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(f"{dumps(str(k))}: "
                         f"{dumps(obj[k], indent, _level + 1)}")
        return "{" + pad + ("," + pad).join(items) + end + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def digest(obj):
    """Stable hash of any serializable object."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()[:16]

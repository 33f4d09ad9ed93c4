"""Test-local reference: the canonical JSON writer as one isinstance chain.

:func:`qhistories.cli.files.canonical_dumps` dispatches on the exact type
of each value and quotes keys and strings with the C encoder that
``json.dumps`` calls on a string.  The writer here tests every value
against the chain of ``isinstance`` checks and quotes through
``json.dumps``; the rendering tests compare the two byte for byte.
"""

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np


def canon(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite number is not serializable")
        if x == 0.0:
            x = 0.0  # drop the sign of -0.0, keeps reload byte-stable
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + canon(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON requires string keys")
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {canon(v, indent + 1)}"
            for k, v in sorted(obj.items()))
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return canon(obj) + "\n"

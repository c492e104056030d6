"""JSON/CSV emission helpers shared by all report-producing modules.

Report numbers are rounded to 15 significant digits so that repeated runs
produce byte-identical files.  They are rounded only where they are
written, by ``report_dumps``; the ``to_json`` methods return the values
their results hold.
Operator files are the exception: their CSV bodies use shortest round-trip
``repr`` because they must reload bit-exactly.

``report_dumps`` writes a report body in one walk over the report.  Its
bytes are those of ``json.dumps(..., sort_keys=True, indent=2)`` plus a final
newline, applied to the report with every number rounded:

* dict keys are ``str(k)``; where two keys give the same string the last
  value wins; keys are sorted;
* floats, Python or numpy, are written ``float.__repr__(round15(x))``; NaN
  is ``NaN`` and +-inf ``Infinity`` / ``-Infinity``; a complex number is
  the pair ``[re, im]`` of its rounded parts;
* ints and numpy integers are written as ints, bools ``true`` / ``false``,
  ``None`` is ``null``; an ndarray is written as its ``tolist()``;
* strings are escaped to ASCII as ``json`` does
  (``json.encoder.encode_basestring_ascii``);
* lists and tuples are arrays; each item of a non-empty container sits on
  its own line, indented two spaces per level; empty ones are ``[]`` and
  ``{}``;
* a ``KeyedRows(keys, values)`` block is written as the dict
  ``{int(keys[i]): values[i]}``, each row a 1-d ndarray.

Each float's text is kept for the length of one ``report_dumps`` call, so
it is formatted once per distinct value of a body: report floats repeat,
and in the benchmark bodies at seed 7 the distinct values of a body are
19 % of its floats for ``spectrum``, 50 % for ``localize`` and 9 % for
``partition``.  Lists of plain numbers and 1-d
numeric arrays are written with one join, without a walk per item, and a
``KeyedRows`` block with one sort of its key texts and one ``tolist`` of its
values, without a view per row.
"""

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string
import math
import sys

import numpy as np

_INF = float("inf")
_NORMAL = sys.float_info.min   # the least positive normal float


class KeyedRows:
    """Rows of a 2-d numeric array under distinct int keys, for a report body.

    Its JSON form is the dict ``{str(keys[i]): values[i]}``: keys sorted as
    strings, each row written as a 1-d ndarray is.  Raises ``ValueError``
    unless keys are distinct ints, one per row of an (n, k) array of ints,
    floats or complex numbers.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys, values):
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 1 or (len(keys) and keys.dtype.kind not in "iu"):
            raise ValueError("keys must be a 1-d array of ints")
        if values.ndim != 2 or len(values) != len(keys) \
                or values.dtype.kind not in "iufc":
            raise ValueError("values must be a numeric array with one row per key")
        if len(np.unique(keys)) != len(keys):
            raise ValueError("keys must be distinct")
        self.keys = keys
        self.values = values


def round15(x):
    """Round a float to 15 significant digits (report formatting contract)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return x
    if x == 0.0:
        return 0.0
    return float(f"{x:.15g}")


@lru_cache(maxsize=None)
def _float_text(x):
    """JSON text of round15(x); report_dumps empties the cache after each body.

    A normal float below 1e14 in modulus is formatted once, as ``%.15g``
    (plus ``.0`` for an integer): 15 digits round-trip, so that is the repr
    of round15(x).  From 1e14 on the rounding can carry to 1e15, which
    ``%.15g`` writes with an exponent; subnormals hold fewer digits.
    """
    x = float(x)
    if _NORMAL <= abs(x) < 1e14:
        text = "%.15g" % x
        return text if "." in text or "e" in text else text + ".0"
    x = round15(x)
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _array(texts, nl):
    """JSON array of the item texts; ``nl`` starts the array's own line."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _list_texts(items, inner):
    kinds = set(map(type, items))
    if kinds == {int}:
        return list(map(int.__repr__, items))
    if kinds == {float}:
        return list(map(_float_text, items))
    if kinds == {int, float}:
        return [_float_text(v) if type(v) is float else int.__repr__(v) for v in items]
    return [_dump(v, inner) for v in items]


def _ndarray_texts(arr, inner):
    kind = arr.dtype.kind
    if kind in "iu":
        return list(map(int.__repr__, arr.tolist()))
    if kind == "f":
        return list(map(_float_text, arr.tolist()))
    # complex: each entry is its [re, im] pair
    deeper = inner + "  "
    return ["[" + deeper + _float_text(z.real) + "," + deeper
            + _float_text(z.imag) + inner + "]" for z in arr.tolist()]


def _keyed_rows(block, nl):
    """JSON text of a KeyedRows block: one format string for every row."""
    if not len(block.keys):
        return "{}"
    inner = nl + "  "
    row = inner + "  "
    keys = block.keys.astype(str)
    order = np.argsort(keys, kind="stable")   # code-point order, as sorted()
    values = block.values[order]              # a C-contiguous copy
    kind = values.dtype.kind
    item = "%s"
    if kind == "c":
        deeper = row + "  "
        item = "[" + deeper + "%s," + deeper + "%s" + row + "]"
        values = values.view(values.real.dtype)   # each entry as re, im
    texts = list(map(_float_text if kind in "fc" else int.__repr__,
                     values.ravel().tolist()))
    k = block.values.shape[1]
    line = '"%s": ' + ("[" + row + ("," + row).join([item] * k) + inner + "]"
                       if k else "[]")
    width = values.shape[1]
    lines = map(line.__mod__, zip(keys[order].tolist(),
                                  *(texts[j::width] for j in range(width))))
    return "{" + inner + ("," + inner).join(lines) + nl + "}"


def _dump(obj, nl):
    """JSON text of obj, whose first line is already indented after ``nl``."""
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        return _array(_list_texts(obj, inner), nl)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): v for k, v in obj.items()}
        return "{" + inner + ("," + inner).join(
            _string(k) + ": " + _dump(items[k], inner)
            for k in sorted(items)) + nl + "}"
    if isinstance(obj, KeyedRows):
        return _keyed_rows(obj, nl)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, (complex, np.complexfloating)):
        return _array([_float_text(obj.real), _float_text(obj.imag)], nl)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "iufc":
            return _array(_ndarray_texts(obj, inner), nl)
        return _dump(obj.tolist(), nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def report_dumps(obj) -> str:
    """Serialize a report structure deterministically (sorted keys, 15 sig digits)."""
    try:
        return _dump(obj, "\n") + "\n"
    finally:
        _float_text.cache_clear()


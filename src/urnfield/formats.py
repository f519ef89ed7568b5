"""The file formats the commands read and write.

CSV: a header row, then one row per record; floats get 17 significant
digits, which read back to the same double.  JSON: two-space indented,
keys sorted, one trailing newline.  A record (a dataclass) is written as
one key per field: tuples as lists, a value with ``to_json`` as its own
object.  Configs are schema-1 JSON objects, read by ``read_fields``: a
wrong schema, or an unknown, missing or mistyped field, is a ValueError
that names it.  These bytes are what every manifest digests, so a change
here changes every recorded sha256.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

import numpy as np

SCHEMA = 1


_CELL = {int: "%d", float: "%.17g"}  # the cells a template writes as csv.writer would


def _row_template(shape: tuple) -> str | None:
    """One %-template for rows whose cells have exactly these types, or
    None when a cell is not an int or a float (a bool, a string, a numpy
    scalar): csv.writer writes those."""
    if not all(t in _CELL for t in shape):
        return None
    return ",".join(_CELL[t] for t in shape) + "\n"


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    templates = {}
    for row in rows:
        row = tuple(row)
        shape = tuple(map(type, row))
        if shape not in templates:
            templates[shape] = _row_template(shape)
        template = templates[shape]
        if template is None:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        else:
            buf.write(template % row)
    return buf.getvalue().encode()


def _np_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n").encode()


def _json_value(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value


def json_fields(record, skip=()) -> dict:
    """A dataclass record as a JSON object, one key per field not in ``skip``."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record) if f.name not in skip}


def is_json_int(value) -> bool:
    """An integer as JSON has it: Python's ``bool`` is an ``int``, JSON's is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    return is_json_int(value) or isinstance(value, float)


# what a field's JSON holds, by its annotation; fields of any other
# annotation (a nested record) are passed on for their own reader to check
_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": is_json_int,
    "int | None": lambda v: v is None or is_json_int(v),
    "float": is_json_number,
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(map(is_json_int, v)),
    "tuple[float, ...]": lambda v: isinstance(v, list) and all(map(is_json_number, v)),
}


def read_fields(obj, types: dict, required, what: str) -> dict:
    """The fields of the schema-1 JSON object ``obj``, checked against
    ``types`` (field name to annotation), with lists as tuples."""
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
        raise ValueError(f"{what} must be a JSON object with schema = {SCHEMA}")
    unknown = set(obj) - set(types) - {"schema"}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    out = {}
    for key, value in obj.items():
        check = _CHECKS.get(types.get(key))
        if check is None:
            out[key] = value
        elif not check(value):
            raise ValueError(f"{what} field {key!r} has the wrong type: {value!r}")
        else:
            out[key] = tuple(value) if isinstance(value, list) else value
    out.pop("schema")
    return out

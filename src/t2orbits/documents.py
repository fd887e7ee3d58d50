"""Bit-exact text interchange format for weight systems.

Documents are JSON with a fixed key order and explicit schema version:

    {
      "schema_version": "1",
      "obstruction": [b1, b2],
      "orientation": 1,
      "genus": 0,
      "circle_boundaries": [[p, q], ...],
      "fixed_cycles": [[{"pair": [a, b], "f": f}, ...], ...],
      "exceptional": [{"alpha": a, "gamma1": g1, "gamma2": g2}, ...]
    }

All integers are decimal, at most ``sys.get_int_max_str_digits()`` digits
wide (4,300 by default): Python's int/str conversion limit, which this
module leaves as it is.  A wider integer is a :class:`DocumentError` in
:func:`parse` and a ``ValueError`` in :func:`serialize` and
:func:`serialize_compact`.  :func:`serialize_compact` writes its one line
directly rather than through :func:`to_document` and ``json.dumps``, reusing
the text of each fixed cycle, which enumerated systems share; the line equals
``json.dumps(to_document(w), separators=(",", ":"))`` byte for byte, and the
tests hold it to that.  Parsing keeps sign representatives and component
order verbatim, so parse(serialize(W)) equals W field by field and
serialize(parse(text)) reproduces the canonical layout byte for byte.
Structural problems, nesting too deep for the JSON decoder included, raise
:class:`DocumentError`; legality is a separate question answered by
:func:`t2orbits.core.validate`.
"""

from __future__ import annotations

import json
import sys

from .core import ExceptionalOrbit, FixedCycle, IsotropyPair, WeightSystem
from .errors import DocumentError

SCHEMA_VERSION = "1"

# The keys of a fixed-cycle entry and of a Seifert triple, in document order.
_CYCLE_ENTRY = ("pair", "f")
_SEIFERT = ("alpha", "gamma1", "gamma2")


def to_document(system: WeightSystem) -> dict:
    """The document dictionary for a weight system, with fixed key order.

    Pair and Seifert entries go through ``int()``, so a bool held by an
    :class:`IsotropyPair` or :class:`ExceptionalOrbit` is written as a number.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "obstruction": list(system.obstruction),
        "orientation": system.orientation,
        "genus": system.genus,
        "circle_boundaries": [[int(p.m), int(p.n)] for p in system.circle_boundaries],
        "fixed_cycles": [
            [dict(zip(_CYCLE_ENTRY, ([int(p.m), int(p.n)], f))) for p, f in cycle.entries()]
            for cycle in system.fixed_cycles
        ],
        "exceptional": [
            dict(zip(_SEIFERT, (int(e.alpha), int(e.gamma1), int(e.gamma2))))
            for e in system.exceptional
        ],
    }


_TOP_KEYS = frozenset(to_document(WeightSystem()))


def _inline(value) -> str:
    return json.dumps(value, separators=(", ", ": "))


def _holds_object(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and any(map(_holds_object, value)))


def _layout(value, indent: int) -> str:
    """A list that holds objects gets one line per element; the rest is inline."""
    if not (isinstance(value, list) and _holds_object(value)):
        return _inline(value)
    pad = " " * indent
    lines = ",\n".join(f"{pad}  {_layout(v, indent + 2)}" for v in value)
    return f"[\n{lines}\n{pad}]"


def serialize(system: WeightSystem) -> str:
    """Multi-line canonical serialization, trailing newline included.

    The layout is fixed (one line per cycle entry and per Seifert triple,
    pairs inline), so serializing a parsed document reproduces it byte for
    byte; the output is ordinary JSON either way.
    """
    fields = ",\n".join(f'  "{key}": {_layout(value, 2)}'
                         for key, value in to_document(system).items())
    return f"{{\n{fields}\n}}\n"


_int = int.__repr__  # how json.dumps writes an int; ValueError past the limit


def _compact_cycle(cycle: FixedCycle) -> str:
    """The compact JSON list of one cycle's entries.

    Stashed on the immutable cycle, which enumerated systems share.
    """
    text = cycle.__dict__.get("_compact")
    if text is None:
        text = ",".join([f'{{"pair":[{_int(p.m)},{_int(p.n)}],"f":{_int(f)}}}'
                         for p, f in zip(cycle.pairs, cycle.dets)])
        text = cycle.__dict__["_compact"] = f"[{text}]"
    return text


def serialize_compact(system: WeightSystem) -> str:
    """Single-line serialization used for streaming enumeration output.

    Written directly, without a document dictionary; the text equals
    ``json.dumps(to_document(system), separators=(",", ":"))``.
    """
    b1, b2 = system.obstruction
    circles = ",".join([f"[{_int(p.m)},{_int(p.n)}]" for p in system.circle_boundaries])
    cycles = ",".join([_compact_cycle(c) for c in system.fixed_cycles])
    exceptional = ",".join([f'{{"alpha":{_int(e.alpha)},"gamma1":{_int(e.gamma1)},'
                            f'"gamma2":{_int(e.gamma2)}}}' for e in system.exceptional])
    return (f'{{"schema_version":"{SCHEMA_VERSION}","obstruction":[{_int(b1)},{_int(b2)}],'
            f'"orientation":{_int(system.orientation)},"genus":{_int(system.genus)},'
            f'"circle_boundaries":[{circles}],"fixed_cycles":[{cycles}],'
            f'"exceptional":[{exceptional}]}}')


def _need(doc: dict, key: str):
    if key not in doc:
        raise DocumentError(f"missing key '{key}'")
    return doc[key]


def _need_list(doc: dict, key: str) -> list:
    value = _need(doc, key)
    if not isinstance(value, list):
        raise DocumentError(f"{key} must be a list")
    return value


def _need_keys(value, keys: tuple, where: str) -> None:
    if not isinstance(value, dict) or value.keys() != {*keys}:
        raise DocumentError(f"{where} must be an object with keys {', '.join(keys)}")


# A value's location is ``where``, or ``where.key`` when it is the ``key`` of
# the object at ``where``; the two are joined only for a message.  The checks
# of a list element pass ``where=""`` and the loop over the list prefixes the
# element's index to the message, so no location is formatted on success.

def _as_int(value, where: str, key: str = "") -> int:
    # bool is an int subclass; a document saying "true" is malformed.
    if isinstance(value, bool) or not isinstance(value, int):
        where = f"{where}.{key}" if key else where
        raise DocumentError(f"{where} must be an integer, got {value!r}")
    return value


def _as_int_pair(value, where: str, key: str = "") -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        where = f"{where}.{key}" if key else where
        raise DocumentError(f"{where} must be a pair of integers, got {value!r}")
    return (_as_int(value[0], where, key), _as_int(value[1], where, key))


def from_document(doc) -> WeightSystem:
    """Build the weight system a document describes, verbatim.

    Raises :class:`DocumentError` on any structural problem: wrong types,
    missing or unknown keys, unsupported schema version, empty cycles.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be an object, got {type(doc).__name__}")
    unknown = doc.keys() - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown keys {sorted(unknown)}")
    version = _need(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")

    obstruction = _as_int_pair(_need(doc, "obstruction"), "obstruction")
    orientation = _as_int(_need(doc, "orientation"), "orientation")
    genus = _as_int(_need(doc, "genus"), "genus")

    circles = []
    raw_circles = _need_list(doc, "circle_boundaries")
    try:
        for i, p in enumerate(raw_circles):
            circles.append(IsotropyPair(*_as_int_pair(p, "")))
    except DocumentError as err:
        raise DocumentError(f"circle_boundaries[{i}]{err}") from None

    cycles = []
    raw_cycles = _need_list(doc, "fixed_cycles")
    try:
        for l, raw in enumerate(raw_cycles):
            if not isinstance(raw, list) or not raw:
                raise DocumentError(" must be a non-empty list of entries")
            pairs = []
            dets = []
            try:
                for w, entry in enumerate(raw):
                    _need_keys(entry, _CYCLE_ENTRY, "")
                    pairs.append(IsotropyPair(*_as_int_pair(entry["pair"], "", "pair")))
                    dets.append(_as_int(entry["f"], "", "f"))
            except DocumentError as err:
                raise DocumentError(f"[{w}]{err}") from None
            cycles.append(FixedCycle(tuple(pairs), tuple(dets)))
    except DocumentError as err:
        raise DocumentError(f"fixed_cycles[{l}]{err}") from None

    exceptional = []
    raw_exceptional = _need_list(doc, "exceptional")
    try:
        for j, entry in enumerate(raw_exceptional):
            _need_keys(entry, _SEIFERT, "")
            exceptional.append(ExceptionalOrbit(*[_as_int(entry[k], "", k) for k in _SEIFERT]))
    except DocumentError as err:
        raise DocumentError(f"exceptional[{j}]{err}") from None

    return WeightSystem(obstruction, orientation, genus, tuple(circles), tuple(cycles),
                        tuple(exceptional))


def parse(text: str) -> WeightSystem:
    """Parse a serialized document; :class:`DocumentError` on bad input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from None
    except ValueError:
        # The only other ValueError of the decoder: the int/str conversion limit.
        raise DocumentError(f"an integer is wider than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply") from None
    return from_document(doc)

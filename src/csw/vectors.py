"""Sparse rational vectors with exact arithmetic.

A vector is a finitely supported map from nonnegative integer positions to
nonzero `fractions.Fraction` values.  Zero entries are never stored, so two
vectors are equal iff their entry maps are equal.  All JSON rendering uses
"p/q" strings ("p" when the denominator is 1); no floating point appears
anywhere.  `canonical_json` writes every JSON text csw writes: sorted keys,
two-space indent.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(?:/[0-9]+)?")
_POSITION = re.compile(r"[0-9]+")


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p", as `format_rational` writes them, into a Fraction.

    Only ASCII digits, one optional leading "-" and one optional "/" are
    accepted: no decimals, exponents, "_" separators or "+" signs.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):
        raise ValueError(f"refusing {type(text).__name__} input {text!r}; "
                         "pass an exact 'p/q' string")
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational written as 'p/q' or 'p'")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_int(text) -> int:
    """Parse an integer written as the "p" of `parse_rational`: ASCII digits
    with one optional leading "-", surrounding whitespace stripped."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer written in ASCII digits")
    return int(text)


def _position(text) -> int:
    """A vector position written in ASCII digits."""
    if not _POSITION.fullmatch(text):
        raise ValueError(f"position {text!r} is not written in ASCII digits")
    return int(text)


def format_rational(value) -> str:
    """Render a Fraction or an int as "p/q", or "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class SparseVector:
    """Immutable finitely supported rational vector."""

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        data = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for pos, val in items:
            if not isinstance(pos, int) or isinstance(pos, bool):
                raise ValueError(f"position {pos!r} is not an int")
            if pos < 0:
                raise ValueError(f"negative position {pos}")
            val = val if isinstance(val, Fraction) else parse_rational(val)
            if val != 0:
                data[pos] = val
        self._entries = data

    @classmethod
    def _of(cls, data) -> "SparseVector":
        """The vector on `data`, a dict of nonnegative int positions to
        nonzero Fractions that the caller has checked and hands over."""
        out = cls.__new__(cls)
        out._entries = data
        return out

    @classmethod
    def unit(cls, pos) -> "SparseVector":
        return cls({pos: Fraction(1)})

    def items(self):
        return sorted(self._entries.items())

    @property
    def support(self):
        return tuple(sorted(self._entries))

    def __getitem__(self, pos) -> Fraction:
        return self._entries.get(pos, Fraction(0))

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __add__(self, other):
        data = dict(self._entries)
        for pos, val in other._entries.items():
            new = data.get(pos, 0) + val
            if new == 0:
                data.pop(pos, None)
            else:
                data[pos] = new
        return SparseVector._of(data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, scalar) -> "SparseVector":
        scalar = parse_rational(scalar)
        if scalar == 0:
            return SparseVector()
        return SparseVector._of({p: scalar * v for p, v in self._entries.items()})

    def __truediv__(self, scalar):
        return self.scale(1 / parse_rational(scalar))

    def restrict_to(self, positions) -> "SparseVector":
        """Keep only entries whose position lies in `positions`."""
        keep = set(positions)
        return SparseVector._of({p: v for p, v in self._entries.items() if p in keep})

    def restrict_below(self, cut) -> "SparseVector":
        """Keep only entries at positions strictly below `cut`."""
        return SparseVector._of({p: v for p, v in self._entries.items() if p < cut})

    def map_positions(self, mapping) -> "SparseVector":
        """Relocate entries through a position-to-position map.

        Every supported position must be in the map's domain; the map must be
        injective on the support.
        """
        data = {}
        for pos, val in self._entries.items():
            try:
                target = mapping[pos]
            except KeyError:
                raise KeyError(f"position {pos} outside transport domain") from None
            if target in data:
                raise ValueError(f"transport not injective at {target}")
            data[target] = val
        return SparseVector._of(data)

    def to_json(self) -> dict:
        # a run of one value object (as the K builder shares one per exponent)
        # is formatted once
        out = {}
        last = text = None
        for p, v in self.items():
            if v is not last:
                last, text = v, format_rational(v)
            out[str(p)] = text
        return out

    def __repr__(self):
        body = ", ".join(f"{p}: {format_rational(v)}" for p, v in self.items())
        return f"SparseVector({{{body}}})"


def pair(f: SparseVector, x: SparseVector) -> Fraction:
    """Exact inner product over the intersection of supports."""
    if len(f) > len(x):
        f, x = x, f
    total = Fraction(0)
    for pos, val in f._entries.items():
        other = x._entries.get(pos)
        if other is not None:
            total += val * other
    return total


def canonical_json(obj) -> str:
    """The text `json.dumps(obj, sort_keys=True, indent=2)` writes for `obj`:
    mappings with str keys, lists, tuples and JSON scalars.  json's indenting
    encoder is pure Python and joins one small string per token; this joins
    each container's parts once and quotes strings with json's C quoting.  A
    mapping's values are read one at a time, in key order."""
    return _json(obj, "\n")


def _json(obj, indent):
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:
        return str(obj)
    if not isinstance(obj, (dict, list, tuple, Mapping)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        parts = ["["]
        for v in obj:
            parts += (inner, _json(v, inner), ",")
        parts[-1] = indent + "]"
    else:
        parts = ["{"]
        for k in sorted(obj):
            v = obj[k]
            # str and int values, nearly all of a family file's, are written in place
            parts += (inner, _quote(k), ": ", _quote(v) if type(v) is str
                      else str(v) if type(v) is int else _json(v, inner), ",")
        parts[-1] = indent + "}"
    return "".join(parts)


def parse_entries(text) -> dict:
    """Parse "pos:val,pos:val" (values as "p/q") into {position: value},
    zero values kept, so the keys are the positions as written."""
    text = (text or "").strip()
    entries = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        pos, _, val = chunk.partition(":")
        if not _:
            raise ValueError(f"bad vector entry {chunk!r}; expected pos:val")
        pos = _position(pos.strip())
        if pos in entries:
            raise ValueError(f"position {pos} appears twice in {text!r}")
        entries[pos] = parse_rational(val)
    return entries


def parse_vector(text) -> SparseVector:
    """Parse "pos:val,pos:val" (values as "p/q") into a SparseVector; zero
    values are dropped."""
    return SparseVector._of({p: v for p, v in parse_entries(text).items() if v})


def format_vector(vec: SparseVector) -> str:
    return ",".join(f"{p}:{format_rational(v)}" for p, v in vec.items())

"""Scenario file I/O: exact JSON round-tripping of every domain object.

All numbers in files are exact: integers, or integer fractions as "a/b"
strings.  Matrices are stored column-major; each entry is a coefficient
list with an explicit t_order.  Chains may be given explicitly or by
weight shorthand (weights + multiplicities, expanded to diagonal chains).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted

from .errors import ParseError, ValidationError
from .fields import field_from_name
from .functors import make_profile
from .lattice import Lattice, map_runs
from .localring import LocalElement
from .parabolic import ParabolicBundle, ParabolicPoint
from .rootstack import GradedModule

FORMAT_VERSION = 1


# -- elements and matrices -------------------------------------------------


def encode_element(x, field):
    return {"t_order": x.ord, "coeffs": [field.to_str(c) for c in x.coeffs]}


def decode_element(obj, field):
    try:
        return LocalElement.make(obj["t_order"], [field.of(c) for c in obj["coeffs"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad element %r: %s" % (obj, exc))


def encode_matrix_cols(rows, field):
    """Row-major matrix -> column-major encoded form."""
    if not rows:
        return []
    return [[encode_element(rows[i][j], field) for i in range(len(rows))]
            for j in range(len(rows[0]))]


def decode_matrix_cols(cols, field, expect_rows=None):
    if not cols:
        return []
    decoded = [[decode_element(e, field) for e in col] for col in cols]
    nrows = len(decoded[0])
    if any(len(c) != nrows for c in decoded):
        raise ParseError("ragged matrix")
    if expect_rows is not None and nrows != expect_rows:
        raise ParseError("matrix has %d rows, expected %d" % (nrows, expect_rows))
    return [[decoded[j][i] for j in range(len(decoded))] for i in range(nrows)]


def encode_lattice(lat, field):
    return {"columns": [[encode_element(e, field) for e in col]
                        for col in lat.basis_columns()]}


def decode_lattice(obj, field, n):
    cols = obj.get("columns")
    if cols is None:
        raise ParseError("lattice needs 'columns'")
    if len(cols) != n or any(len(c) != n for c in cols):
        raise ParseError("lattice columns must form an %dx%d matrix" % (n, n))
    return Lattice.from_columns(field, n,
                                [[decode_element(e, field) for e in col] for col in cols])


# -- chains ----------------------------------------------------------------


def _decode_chain(objs, field, n):
    """Decode chain members, canonicalizing each distinct encoding once."""
    return map_runs(lambda obj: decode_lattice(obj, field, n), objs)


def _expand_weights(field, order, weights, n):
    """Diagonal chain from weight shorthand [[weight, mult], ...]."""
    jumps = []
    for w, m in weights:
        frac = Fraction(w)
        if not 0 <= frac < 1:
            raise ValidationError("weight %s outside [0,1)" % w)
        if order % frac.denominator != 0:
            raise ValidationError("weight %s incompatible with order %d" % (w, order))
        jumps.extend([int(frac * order)] * m)
    if n is not None and len(jumps) != n:
        raise ValidationError("weight multiplicities sum to %d, expected %d"
                              % (len(jumps), n))
    chain = [Lattice.diagonal(field, [1 if j > a else 0 for a in jumps])
             for j in range(order + 1)]
    return chain


def encode_point(pt, field):
    return {"order": pt.order,
            "chain": [encode_lattice(l, field) for l in pt.chain]}


def decode_point(obj, field, n, where=""):
    try:
        order = obj["order"]
    except (KeyError, TypeError):
        raise ParseError("point%s needs 'order'" % where)
    if "weights" in obj:
        chain = _expand_weights(field, order, obj["weights"], n)
    else:
        chain = _decode_chain(obj.get("chain", []), field, n)
        if len(chain) != order + 1:
            raise ValidationError("point%s: chain has %d members, expected %d"
                                  % (where, len(chain), order + 1))
    try:
        return ParabolicPoint(order, chain)
    except Exception as exc:
        raise ValidationError("point%s: %s" % (where, exc))


def encode_module(mod, field):
    return {"order": mod.order,
            "pieces": [encode_lattice(l, field) for l in mod.pieces]}


def decode_module(obj, field, n, where=""):
    try:
        order = obj["order"]
        pieces = _decode_chain(obj["pieces"], field, n)
    except (KeyError, TypeError):
        raise ParseError("module%s needs 'order' and 'pieces'" % where)
    try:
        return GradedModule(order, pieces)
    except Exception as exc:
        raise ValidationError("module%s: %s" % (where, exc))


# -- bundles and covers ----------------------------------------------------


def encode_bundle(bundle, field, kind="parabolic_bundle"):
    return {"kind": kind,
            "rank": bundle.rank,
            "underlying_degree": bundle.underlying_degree,
            "points": {label: encode_point(pt, field)
                       for label, pt in sorted(bundle.points.items())}}


def decode_bundle(obj, field, where=""):
    rank = obj.get("rank")
    if not isinstance(rank, int) or rank < 0:
        raise ParseError("bundle needs an integer rank")
    degree = underlying_degree(obj, "bundle" + where)
    pts = {label: decode_point(p, field, rank, " at %r" % label)
           for label, p in obj.get("points", {}).items()}
    return ParabolicBundle(rank, degree, pts)


def underlying_degree(obj, what):
    """The object's ``underlying_degree``: a JSON integer, 0 when absent."""
    degree = obj.get("underlying_degree", 0)
    if type(degree) is not int:
        raise ParseError("%s: underlying_degree must be an integer, not %r"
                         % (what, degree))
    return degree


def encode_cover(profile, field, target="y"):
    return {"target": target,
            "s": profile.target_order,
            "branches": [{"label": br.label, "e": br.e, "r": br.r,
                          "unit": field.to_str(br.unit)}
                         for br in profile.branches]}


def decode_cover(obj, field):
    try:
        s = obj["s"]
        specs = [(b["label"], b["e"], b["r"], field.of(b["unit"]))
                 for b in obj["branches"]]
    except (KeyError, TypeError) as exc:
        raise ParseError("bad cover block: %s" % exc)
    return obj.get("target", "y"), make_profile(s, specs)


# -- whole scenarios -------------------------------------------------------


def loads(text):
    """Parse a scenario file into (field, raw dict)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc)
    if not isinstance(obj, dict):
        raise ParseError("scenario must be an object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ParseError("unsupported scenario version %r" % version)
    try:
        field = field_from_name(obj.get("field", "rational"))
    except ValueError as exc:
        raise ParseError(str(exc))
    return field, obj


def dumps(obj):
    """Canonical serialization: sorted keys, 2-space indent, ASCII escapes.

    The text is byte-identical to ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"`` for the values ``json.loads`` produces: dicts
    with str keys, lists, str, int, float, bool and None.  Anything else
    raises TypeError.  The stdlib falls back to its pure-Python encoder
    whenever ``indent`` is set; writing into one list and joining it once
    is several times faster.
    """
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_INF = float("inf")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _bool_text(b):
    return "true" if b else "false"


def _null_text(_):
    return "null"


# exact types only: json.loads makes no subclasses, and bool is not int here
_SCALAR_TEXT = {str: _quoted, int: int.__repr__, float: _float_text,
                bool: _bool_text, type(None): _null_text}


def _write(obj, out, newline):
    """Append the text of ``obj`` to ``out``; ``newline`` carries its indent."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            item = obj[key]
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                out.append(sep + _quoted(key) + ": " + text(item))
            else:
                out.append(sep + _quoted(key) + ": ")
                _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                out.append(sep + text(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        text = _SCALAR_TEXT.get(kind)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable"
                            % kind.__name__)
        out.append(text(obj))

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

from .errors import InvalidChain, InvalidGrading, ParseError, ValidationError
from .fields import field_from_name
from .functors import make_profile
from .lattice import Lattice, map_runs
from .localring import LocalElement
from .parabolic import ParabolicBundle, ParabolicPoint
from .rootstack import GradedModule

FORMAT_VERSION = 1


# -- elements and matrices -------------------------------------------------


def encode_element(x):
    return {"t_order": x.ord, "coeffs": x.coeff_texts()}


def decode_element(obj, field):
    if type(obj) is not dict or type(obj.get("t_order")) is not int \
            or type(obj.get("coeffs")) is not list:
        raise ParseError("bad element %r: needs an integer t_order and a coeffs list"
                         % (obj,))
    return LocalElement.make(field, obj["t_order"],
                             [_scalar(field, c, "bad element %r", obj) for c in obj["coeffs"]])


def _scalar(field, x, what, arg):
    """The field element written as a JSON integer or an "a/b" string;
    ``what % arg`` names the object in the error."""
    try:
        if type(x) is int or type(x) is str:
            return field.of(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("%s: %r is not an element of %s" % (what % (arg,), x, field.name))


def encode_matrix_cols(rows, field):
    """Row-major matrix -> column-major encoded form.  ``field`` is not
    read: each element prints its own stored coefficients."""
    if not rows:
        return []
    return [[encode_element(rows[i][j]) for i in range(len(rows))]
            for j in range(len(rows[0]))]


def encode_lattice(lat):
    return {"columns": [[encode_element(e) for e in col]
                        for col in lat.basis_columns()]}


def decode_lattice(obj, field, n, what):
    if type(obj) is not dict or "columns" not in obj:
        raise ParseError("%s needs 'columns'" % what)
    cols = obj["columns"]
    if type(cols) is not list or len(cols) != n \
            or any(type(c) is not list or len(c) != n for c in cols):
        raise ParseError("%s: columns must form an %dx%d matrix" % (what, n, n))
    return Lattice.from_columns(field, n,
                                [[decode_element(e, field) for e in col] for col in cols])


# -- chains ----------------------------------------------------------------


def _decode_chain(objs, field, n, what):
    """Decode chain members, canonicalizing each distinct encoding once."""
    if type(objs) is not list:
        raise ParseError("%s must be a list" % what)
    return map_runs(lambda obj: decode_lattice(obj, field, n, what + " member"), objs)


def _order(obj, what):
    """The ``order`` of a point or module object: a positive JSON integer."""
    order = obj.get("order") if type(obj) is dict else None
    if type(order) is not int or order < 1:
        raise ParseError("%s needs a positive integer 'order', not %r" % (what, order))
    return order


def _expand_weights(field, order, weights, n, what):
    """Diagonal chain from weight shorthand [[weight, mult], ...]."""
    if type(weights) is not list:
        raise ParseError("%s: weights must be a list" % what)
    jumps = []
    for pair in weights:
        if type(pair) is not list or len(pair) != 2 \
                or type(pair[0]) not in (int, str) \
                or type(pair[1]) is not int or pair[1] < 0:
            raise ParseError("%s: weight entry %r is not a [weight, multiplicity] pair"
                             % (what, pair))
        w, m = pair
        try:
            frac = Fraction(w)
        except (ValueError, ZeroDivisionError):
            raise ParseError("%s: weight %r is not a fraction" % (what, w))
        if not 0 <= frac < 1:
            raise ValidationError("weight %s outside [0,1)" % w)
        if order % frac.denominator != 0:
            raise ValidationError("weight %s incompatible with order %d" % (w, order))
        if len(jumps) + m > n:
            raise ValidationError("weight multiplicities sum to more than %d" % n)
        jumps.extend([int(frac * order)] * m)
    if len(jumps) != n:
        raise ValidationError("weight multiplicities sum to %d, expected %d"
                              % (len(jumps), n))
    chain = [Lattice.diagonal(field, [1 if j > a else 0 for a in jumps])
             for j in range(order + 1)]
    return chain


def encode_point(pt, field):
    return {"order": pt.order,
            "chain": [encode_lattice(l) for l in pt.chain]}


def decode_point(obj, field, n, where=""):
    what = "point" + where
    order = _order(obj, what)
    if "weights" in obj:
        chain = _expand_weights(field, order, obj["weights"], n, what)
    else:
        chain = _decode_chain(obj.get("chain", []), field, n, what + ": chain")
        if len(chain) != order + 1:
            raise ValidationError("%s: chain has %d members, expected %d"
                                  % (what, len(chain), order + 1))
    try:
        return ParabolicPoint(order, chain)
    except InvalidChain as exc:
        raise ValidationError("%s: %s" % (what, exc))


def encode_module(mod, field):
    return {"order": mod.order,
            "pieces": [encode_lattice(l) for l in mod.pieces]}


def decode_module(obj, field, n, where=""):
    what = "module" + where
    order = _order(obj, what)
    pieces = _decode_chain(obj.get("pieces"), field, n, what + ": pieces")
    try:
        return GradedModule(order, pieces)
    except InvalidGrading as exc:
        raise ValidationError("%s: %s" % (what, exc))


# -- bundles and covers ----------------------------------------------------


def encode_bundle(bundle, field):
    return {"kind": "parabolic_bundle",
            "rank": bundle.rank,
            "underlying_degree": bundle.underlying_degree,
            "points": {label: encode_point(pt, field)
                       for label, pt in sorted(bundle.points.items())}}


def decode_bundle(obj, field, where=""):
    rank = obj.get("rank")
    if type(rank) is not int or rank < 1:
        raise ParseError("bundle needs an integer rank")
    degree = underlying_degree(obj, "bundle" + where)
    points = obj.get("points", {})
    if type(points) is not dict:
        raise ParseError("bundle%s: 'points' must be an object keyed by label" % where)
    pts = {label: decode_point(p, field, rank, " at %r" % label)
           for label, p in points.items()}
    return ParabolicBundle(rank, degree, pts)


def underlying_degree(obj, what):
    """The object's ``underlying_degree``: a JSON integer, 0 when absent."""
    degree = obj.get("underlying_degree", 0)
    if type(degree) is not int:
        raise ParseError("%s: underlying_degree must be an integer, not %r"
                         % (what, degree))
    return degree


def encode_cover(profile, field):
    return {"target": "y",
            "s": profile.target_order,
            "branches": [{"label": br.label, "e": br.e, "r": br.r,
                          "unit": str(br.unit)}
                         for br in profile.branches]}


def decode_cover(obj, field):
    if type(obj) is not dict or type(obj.get("s")) is not int \
            or type(obj.get("branches")) is not list:
        raise ParseError("cover needs an integer 's' and a 'branches' list")
    specs = []
    for b in obj["branches"]:
        if type(b) is not dict or type(b.get("label")) is not str \
                or type(b.get("e")) is not int or type(b.get("r")) is not int \
                or "unit" not in b:
            raise ParseError("cover branch %r needs a string 'label', integers "
                             "'e' and 'r' and a 'unit'" % (b,))
        specs.append((b["label"], b["e"], b["r"],
                      _scalar(field, b["unit"], "unit of branch %r", b["label"])))
    target = obj.get("target", "y")
    if type(target) is not str:
        raise ParseError("cover 'target' must be a string, not %r" % (target,))
    return target, make_profile(obj["s"], specs)


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

    Scenario output is mostly encoded elements, and mostly the same few
    (the zero entry above all).  An encoded element, a dict with exactly
    the keys ``coeffs`` (a list of str) and ``t_order`` (an int, not a
    bool), is written from one template, and each call keeps the text of
    every distinct element at every indent it met.  The text of such a dict
    depends only on its indent, its ``t_order`` and its coefficient texts,
    which make the memo key, and the template is the stdlib's layout for
    that dict; so the output stays byte-identical.  Any other dict takes
    the general path.
    """
    out = []
    _write(obj, out, "\n", {})
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


def _element_text(obj, newline, memo):
    """The text of the dict ``obj`` at indent ``newline`` when it is an
    encoded element, through ``memo``; None when it is not one."""
    if len(obj) != 2:
        return None
    t_order, coeffs = obj.get("t_order"), obj.get("coeffs")
    if type(t_order) is not int or type(coeffs) is not list:
        return None
    for c in coeffs:
        if type(c) is not str:
            return None
    key = (newline, t_order, *coeffs)
    text = memo.get(key)
    if text is None:
        inner = newline + "  "
        if coeffs:
            entry = inner + "  "
            listed = "[" + entry + ("," + entry).join(map(_quoted, coeffs)) + inner + "]"
        else:
            listed = "[]"
        text = memo[key] = ("{" + inner + '"coeffs": ' + listed + "," + inner
                            + '"t_order": ' + int.__repr__(t_order) + newline + "}")
    return text


def _write(obj, out, newline, memo):
    """Append the text of ``obj`` to ``out``; ``newline`` carries its indent
    and ``memo`` the element texts of this call (``_element_text``)."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        text = _element_text(obj, newline, memo)
        if text is not None:
            out.append(text)
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
                _write(item, out, inner, memo)
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
                text = _element_text(item, inner, memo) if type(item) is dict else None
                if text is not None:
                    out.append(sep + text)
                else:
                    out.append(sep)
                    _write(item, out, inner, memo)
            sep = "," + inner
        out.append(newline + "]")
    else:
        text = _SCALAR_TEXT.get(kind)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable"
                            % kind.__name__)
        out.append(text(obj))

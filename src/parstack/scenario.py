"""Scenario file I/O: exact JSON round-tripping of every domain object.

All numbers in files are exact: integers, or integer fractions as "a/b"
strings.  Matrices are stored column-major; each entry is a coefficient
list with an explicit t_order.  Chains may be given explicitly or by
weight shorthand (weights + multiplicities, expanded to diagonal chains),
not both.  Each object, cover, branch and bundle point has a key table,
checked before any value is read, so a misspelt key cannot drop what it
names.  ``loads`` reads a scenario; ``encode_placed`` writes what it reads.

The encoders share equal sub-objects: within one encoded point, module or
matrix, equal neighbouring chain members are one dict, and equal columns
and equal elements are one list or dict.  Treat their output as
read-only; to add keys, wrap it in a new dict, as ``dict(encoded,
kind=...)`` does.  ``dumps`` writes each shared subtree once, and
decoding parses each distinct element of a chain once.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted

from .errors import InvalidChain, InvalidGrading, ParseError, ValidationError
from .fields import field_from_name
from .functors import CoverProfile, make_profile
from .lattice import Lattice, map_runs
from .linalg import identity_matrix
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
    read: each element prints its own stored coefficients.  Equal entries
    share one encoded dict."""
    if not rows:
        return []
    element = _element_encoder()
    return [[element(rows[i][j]) for i in range(len(rows))]
            for j in range(len(rows[0]))]


def _element_encoder():
    """``encode_element`` through a memo: equal elements get one dict.  The
    key is the stored form (order, integer coefficients, denominator),
    which the encoding depends on alone; a plain tuple hashes and compares
    faster than the element."""
    memo = {}

    def element(x):
        key = (x.ord, x.coeffs, x.den)
        enc = memo.get(key)
        if enc is None:
            enc = memo[key] = encode_element(x)
        return enc
    return element


# -- chains ----------------------------------------------------------------


def _encode_chain(lattices):
    """Encoded chain members, written from the stored form.  A member equal
    to its neighbour gets the same dict; across the chain, equal columns
    share one list and equal elements one dict.  A pivot-only column is
    one list per (row, exponent), built from those two alone."""
    element = _element_encoder()
    zero = element(LocalElement.zero())
    memo, pivots = {}, {}

    def column(lat, j):
        a, ent = lat.diag[j], lat.entries[j]
        if not ent and (j, a) in pivots:
            return pivots[j, a]
        encs = [zero] * lat.n
        for i, x in ent:
            encs[i] = element(x)
        encs[j] = element(LocalElement.t_power(lat.field, a))
        if not ent:
            pivots[j, a] = encs
            return encs
        # equal columns have the same element dicts, which the element
        # memo keeps alive for the whole call, so their ids are a key
        return memo.setdefault(tuple(map(id, encs)), encs)
    return map_runs(lambda lat: {"columns": [column(lat, j) for j in range(lat.n)]}, lattices)


def _element_key(obj):
    """``(t_order, *coeffs)`` of a dict with exactly the keys ``t_order``, an
    int (not a bool), and ``coeffs``, a list of str; None for anything
    else.  Equal keys decode to equal elements, and no key equates True
    with 1 or 1 with "1"."""
    if type(obj) is not dict or len(obj) != 2:
        return None
    t_order, coeffs = obj.get("t_order"), obj.get("coeffs")
    if type(t_order) is not int or type(coeffs) is not list:
        return None
    for c in coeffs:
        if type(c) is not str:
            return None
    return (t_order, *coeffs)


def _decode_chain(objs, field, n, what):
    """Decode chain members, canonicalizing each distinct encoding once and
    parsing each distinct element of the chain once.  An entry without an
    ``_element_key`` goes through ``decode_element`` every time, so it
    raises as it would alone."""
    if type(objs) is not list:
        raise ParseError("%s must be a list" % what)
    what += " member"
    memo = {}

    def element(obj):
        key = _element_key(obj)
        if key is None:
            return decode_element(obj, field)
        x = memo.get(key)
        if x is None:
            x = memo[key] = decode_element(obj, field)
        return x

    def member(obj):
        if type(obj) is not dict or "columns" not in obj:
            raise ParseError("%s needs 'columns'" % what)
        cols = obj["columns"]
        if type(cols) is not list or len(cols) != n \
                or any(type(c) is not list or len(c) != n for c in cols):
            raise ParseError("%s: columns must form an %dx%d matrix" % (what, n, n))
        return Lattice.from_columns(field, n, [[element(e) for e in col] for col in cols])
    return map_runs(member, objs)


def _order(obj, what):
    """The ``order`` of a point or module object: a positive JSON integer."""
    order = obj.get("order") if type(obj) is dict else None
    if type(order) is not int or order < 1:
        raise ParseError("%s needs a positive integer 'order', not %r" % (what, order))
    return order


def _expand_weights(field, order, weights, n, what):
    """The diagonal point of weight shorthand [[weight, mult], ...]."""
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
    return ParabolicPoint.from_lines(field, order, identity_matrix(field, n), [0] * n, jumps)


def encode_point(pt, field):
    return {"order": pt.order,
            "chain": _encode_chain(pt.chain)}


def decode_point(obj, field, n, where=""):
    what = "point" + where
    order = _order(obj, what)
    if "weights" in obj:
        if "chain" in obj:
            raise ParseError("%s has both 'weights' and 'chain'" % what)
        return _expand_weights(field, order, obj["weights"], n, what)
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
            "pieces": _encode_chain(mod.pieces)}


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
    rank = _rank(obj, "bundle" + where)
    points = obj.get("points", {})
    if type(points) is not dict:
        raise ParseError("bundle%s: 'points' must be an object keyed by label" % where)
    pts = {}
    for label, p in points.items():
        at = " at %r" % label
        _known_keys(p, _POINT_KEYS, "bundle%s: point%s" % (where, at))
        pts[label] = decode_point(p, field, rank, at)
    return ParabolicBundle(rank, obj.get("underlying_degree", 0), pts)


def _rank(obj, what):
    """The ``rank`` of a point, module or bundle object, a positive JSON
    integer, once its ``underlying_degree``, if any, is a JSON integer."""
    rank, degree = obj.get("rank"), obj.get("underlying_degree", 0)
    if type(rank) is not int or rank < 1:
        raise ParseError("%s needs an integer rank" % what)
    if type(degree) is not int:
        raise ParseError("%s: underlying_degree must be an integer, not %r" % (what, degree))
    return rank


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
    for i, b in enumerate(obj["branches"]):
        _known_keys(b, _BRANCH_KEYS, "cover branch %d" % i)
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


# -- objects by kind ------------------------------------------------------


def _decode_matrix(obj, field, where):
    cols = obj.get("columns")
    if type(cols) is not list or not cols or type(cols[0]) is not list or not cols[0] \
            or any(type(c) is not list or len(c) != len(cols[0]) for c in cols):
        raise ParseError("matrix%s needs a list of equal-length, non-empty columns" % where)
    return [[decode_element(col[i], field) for col in cols] for i in range(len(cols[0]))]


def _ranked(decode, what):
    """The decoder of a point or a module object: ``decode`` at its rank."""
    return lambda obj, field, where: decode(obj, field, _rank(obj, what + where), where)


def _known_keys(obj, keys, what):
    """Refuse a key of a dict ``obj`` that is not in ``keys``: a misspelt key
    would drop what it names, and a stale one would pass through unread."""
    for key in obj if type(obj) is dict else ():
        if key not in keys:
            raise ParseError("%s has unknown key %r" % (what, key))


# the keys of a point in a bundle: a chain or weight shorthand, not both
_POINT_KEYS = ("order", "chain", "weights")
# the keys of a cover and of each of its branches
_COVER_KEYS = ("target", "s", "branches")
_BRANCH_KEYS = ("label", "e", "r", "unit")
# the keys beside a point or module placed at a label (``encode_placed``)
_PLACED = ("at", "underlying_degree")

# kind -> (class, encoder, decoder(obj, field, where), keys); a matrix is a
# row-major list of rows, and the keys are every key an object of the kind
# may carry besides ``kind``
_KINDS = {
    "parabolic_point": (ParabolicPoint, lambda pt: dict(encode_point(pt, None), rank=pt.n),
                        _ranked(decode_point, "point"), ("rank",) + _POINT_KEYS + _PLACED),
    "graded_module": (GradedModule, lambda mod: dict(encode_module(mod, None), rank=mod.n),
                      _ranked(decode_module, "module"), ("rank", "order", "pieces") + _PLACED),
    "parabolic_bundle": (ParabolicBundle, lambda b: encode_bundle(b, None), decode_bundle,
                         ("rank", "underlying_degree", "points")),
    "cover": (CoverProfile, lambda profile: encode_cover(profile, None),
              lambda obj, field, where: decode_cover(obj, field)[1], _COVER_KEYS),
    "matrix": (list, lambda rows: {"columns": encode_matrix_cols(rows, None)}, _decode_matrix,
               ("columns",)),
}


def encode_object(obj):
    """A point, module, bundle, cover profile or matrix as a JSON object
    with its ``kind``."""
    for kind, (cls, encode, _, _) in _KINDS.items():
        if isinstance(obj, cls):
            return dict(encode(obj), kind=kind)
    raise TypeError("no scenario kind encodes %s" % type(obj).__name__)


def decode_object(obj, field, where, kinds):
    """The object that ``encode_object`` encoded, if its kind is one of
    ``kinds`` and it has no key its kind does not define; ``where`` names
    it in errors."""
    if type(obj) is not dict:
        raise ParseError("object%s must be a JSON object" % where)
    kind = obj.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise ParseError("object%s has unknown kind %r" % (where, kind))
    _, _, decode, keys = _KINDS[kind]
    _known_keys(obj, ("kind",) + keys, "%s object%s" % (kind, where))
    return decode(obj, field, where)


def encode_placed(obj, at, degree):
    """A point or module placed at ``at``, with its ``underlying_degree``
    unless ``degree`` is None: ``loads`` reads back (at, obj, degree)."""
    placed = dict(encode_object(obj), at=at)
    if degree is not None:
        placed["underlying_degree"] = degree
    return placed


def encode_instance(instance):
    """A harness instance as JSON: a string stays, a tuple becomes a list
    and every object goes through ``encode_object``."""
    return {key: value if type(value) is str
            else [encode_object(x) for x in value] if type(value) is tuple
            else encode_object(value) for key, value in instance.items()}


def decode_instance(obj, field):
    """The instance that ``encode_instance`` encoded."""
    if type(obj) is not dict:
        raise ParseError("instance must be a JSON object, not %r" % (obj,))
    return {key: value if type(value) is str
            else tuple(decode_object(x, field, " (instance %r, item %d)" % (key, i), _KINDS)
                       for i, x in enumerate(value)) if type(value) is list
            else decode_object(value, field, " (instance %r)" % key, _KINDS)
            for key, value in obj.items()}


# -- whole scenarios -------------------------------------------------------


Scenario = namedtuple("Scenario", "field raw cover objects")
_SCENARIO_KINDS = ("parabolic_point", "graded_module", "parabolic_bundle")


def loads(text):
    """The ``Scenario`` of a file: field, parsed dict, cover as (target,
    profile) or None, and objects as (at, object, underlying_degree), at or
    degree None when absent.  Only the keys version, field, cover, objects."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ParseError("scenario must be an object")
    version = raw.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError("unsupported scenario version %r" % version)
    for key in raw:
        if key not in ("version", "field", "cover", "objects"):
            raise ParseError("unknown scenario key %r" % key)
    try:
        field = field_from_name(raw.get("field", "rational"))
    except ValueError as exc:
        raise ParseError(str(exc))
    cover = raw.get("cover")
    if cover is not None:
        _known_keys(cover, _COVER_KEYS, "cover")
        cover = decode_cover(cover, field)
    objects = raw.get("objects", [])
    if type(objects) is not list:
        raise ParseError("'objects' must be a list")
    placed = []
    for idx, obj in enumerate(objects):
        where = " (object %d)" % idx
        # decoding checks the keys and the degree; a bundle has no ``at``
        decoded = decode_object(obj, field, where, _SCENARIO_KINDS)
        at = obj.get("at")
        if at is not None and type(at) is not str:
            raise ParseError("object%s: 'at' must be a string, not %r" % (where, at))
        placed.append((at, decoded, obj.get("underlying_degree")))
    return Scenario(field, raw, cover, placed)


def echo(scenario, objects):
    """The scenario as read, with its objects replaced by ``objects`` (from
    ``encode_object`` or ``encode_placed``): what convert, push and pull
    write."""
    return dict(scenario.raw, objects=objects)


def dumps(obj):
    """Canonical serialization: sorted keys, 2-space indent, ASCII escapes.

    The text is byte-identical to ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"`` for the values ``json.loads`` produces: dicts
    with str keys, lists, str, int, float, bool and None.  Anything else
    raises TypeError.  The stdlib falls back to its pure-Python encoder
    whenever ``indent`` is set; writing into one list and joining it once
    is several times faster.

    The encoders share equal sub-objects, so a scenario tree is mostly the
    same few columns and elements.  Each call keeps, for every non-empty
    dict or list it has written, the span of ``out`` that holds its text,
    keyed by the container's identity and its indent.  When the same
    container comes again at the same indent, that span is joined once and
    appended as it stands.  The text of a container depends only on its
    contents and its indent, and the tree cannot change during the call,
    so the output stays byte-identical.  A tree that shares nothing (one
    that ``json.loads`` built, say) gains nothing and pays one memo entry
    per container: re-parsed, the 1260 op outputs of a ``cli-scenarios-qq``
    run (seed 1) take 0.99 s to write, against 0.12 s for the shared trees
    the encoders built (best of 5, Python 3.11, 2-core x86 container).
    """
    out = []
    _write(obj, out, "\n", {})
    out.append("\n")
    return "".join(out)


# exact types only: json.loads makes no subclasses, and bool is not int here
_SCALAR_TEXT = {str: _quoted, int: int.__repr__, float: json.dumps,
                bool: json.dumps, type(None): json.dumps}


def _write(obj, out, newline, seen):
    """Append the text of ``obj`` to ``out``; ``newline`` carries its indent
    and ``seen`` maps (container id, indent) to the container's span of
    ``out``, or to its joined text once it has come twice (``dumps``)."""
    kind = type(obj)
    if kind is not dict and kind is not list:
        text = _SCALAR_TEXT.get(kind)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable"
                            % kind.__name__)
        out.append(text(obj))
        return
    if not obj:
        out.append("{}" if kind is dict else "[]")
        return
    key = (id(obj), newline)
    span = seen.get(key)
    if span is not None:
        if type(span) is tuple:
            span = seen[key] = "".join(out[span[0]:span[1]])
        out.append(span)
        return
    start = len(out)
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for name in sorted(obj):
            if type(name) is not str:
                raise TypeError("keys must be str, not %s" % type(name).__name__)
            item = obj[name]
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                out.append(sep + _quoted(name) + ": " + text(item))
            else:
                out.append(sep + _quoted(name) + ": ")
                _write(item, out, inner, seen)
            sep = "," + inner
        out.append(newline + "}")
    else:
        sep = "[" + inner
        for item in obj:
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                out.append(sep + text(item))
            else:
                out.append(sep)
                _write(item, out, inner, seen)
            sep = "," + inner
        out.append(newline + "]")
    seen[key] = (start, len(out))

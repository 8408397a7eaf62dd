"""Versioned JSON encoding for windows, samplings, nets, rates, reports,
and refutation certificates.

Every top-level document carries ``schema_version``.  Encoding is
deterministic (collections are emitted in canonical enumeration order) and
``from_dict(to_dict(x)) == x`` for all value types.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .families import FamilyError, FamilySpec
from .meta import Rate, RateError, RefutationCertificate
from .net import StackedFamily
from .space import (
    BINARY,
    EUCLIDEAN,
    HALF_LINE,
    TABLE,
    UNIT_INTERVAL,
    SpaceError,
    binary_space,
    euclidean_space,
    half_line_space,
    table_space,
    unit_interval_space,
)
from .order import CUSTOM, OMEGA, PRODUCT, Sampling, WindowError
from .order import make_custom_window, make_omega_window, product

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "window_to_dict",
    "window_from_dict",
    "sampling_to_dict",
    "sampling_from_dict",
    "space_to_dict",
    "space_from_dict",
    "net_to_dict",
    "net_from_dict",
    "rate_to_dict",
    "rate_from_dict",
    "report_to_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "candidate_sets_from_json",
    "family_spec_to_dict",
    "family_spec_from_dict",
    "family_from_dict",
    "analysis_report_to_dict",
    "ump_verdict_to_dict",
    "dumps",
]


class SchemaError(ValueError):
    """Raised for documents that do not match the expected schema."""


def dumps(doc):
    """Canonical JSON text: sorted keys, stable separators, trailing newline.

    Byte for byte ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
    and a newline.  NaN and infinities raise ValueError: they are not JSON.
    """
    out = []
    _write(doc, "\n", out.append)
    return "".join(out) + "\n"


def _float(x):
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


_SCALARS = {str: _string, int: int.__repr__, float: _float, bool: ("false", "true").__getitem__, type(None): {None: "null"}.get}


def _scalar(x):
    # As the first type of its MRO that json writes: bool is no int, numpy float64 is a float.
    for t in type(x).__mro__:
        if t in _SCALARS:
            return _SCALARS[t](x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write(o, nl, put):
    # ``o`` in pieces, entry by entry in document order, so the first fault raises
    # what json raises; ``nl`` breaks and indents the line that ``o`` starts on.
    if isinstance(o, dict):
        inner = nl + "  "
        pre, sep = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            pre += (_string(k) if isinstance(k, str) else '"' + _scalar(k) + '"') + ": "
            encode = _SCALARS.get(type(v))
            if encode is None:
                put(pre)
                _write(v, inner, put)
            else:
                put(pre + encode(v))
            pre = sep
        return put(nl + "}" if o else "{}")
    if isinstance(o, (list, tuple)):
        inner = nl + "  "
        pre, sep = "[" + inner, "," + inner
        for x in o:
            encode = _SCALARS.get(type(x))
            if encode is None:
                put(pre)
                _write(x, inner, put)
            else:
                put(pre + encode(x))
            pre = sep
        return put(nl + "]" if o else "[]")
    return put(_scalar(o))


def _decoder(fn):
    """Report a document of the wrong shape (a missing key, a value of the wrong
    type, nesting past the recursion limit) as a SchemaError, not its own error."""

    @functools.wraps(fn)
    def decode(doc):
        try:
            return fn(doc)
        except (KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise SchemaError(f"malformed document for {fn.__name__}: {exc!r}") from None

    return decode


def _versioned(doc):
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def _expect(doc, kind):
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("type") != kind:
        raise SchemaError(f"expected a {kind!r} document, got {doc.get('type')!r}")
    return doc


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _labels_to_json(labels):
    # _label_to_json of each label, as a list; skipped when no label is a tuple.
    return list(map(_label_to_json, labels)) if any(issubclass(t, tuple) for t in set(map(type, labels))) else list(labels)


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(x) for x in label)
    return label


def _labels(items):
    # Labels from a JSON list; a string is no list of characters.  Only a JSON
    # list becomes a tuple label, so a list of scalars is returned as it is.
    if type(items) is not list:
        raise SchemaError(f"expected a JSON list of labels, got {items!r}")
    return list(map(_label_from_json, items)) if list in set(map(type, items)) else items


# -- windows ---------------------------------------------------------------


def window_to_dict(w):
    doc = {"type": "window", "kind": w.kind}
    if w.kind == OMEGA:
        doc["size"] = len(w)
    elif w.kind == PRODUCT:
        doc["factors"] = [window_to_dict(f) for f in w.factors]
    else:
        doc["elements"] = [_label_to_json(e) for e in w.elements]
        doc["leq"], doc["join"] = w._order.astype(int).tolist(), w._joins.tolist()
    return _versioned(doc)


@_decoder
def window_from_dict(doc):
    _expect(doc, "window")
    kind = doc["kind"]
    if kind in (OMEGA, "ordinal-window"):  # schema 1 also wrote ordinal chains
        return make_omega_window(doc["size"])
    if kind == PRODUCT:
        if len(doc["factors"]) != 2:
            raise SchemaError("a product window's factors must be a list of two windows")
        return product(*map(window_from_dict, doc["factors"]))
    if kind == CUSTOM:
        return make_custom_window(_labels(doc["elements"]), doc["leq"], doc["join"])
    raise SchemaError(f"unknown window kind {kind!r}")


# -- samplings -------------------------------------------------------------


def sampling_to_dict(s):
    # Each set in window enumeration order: its run of positions, sorted.
    ends, labels = np.cumsum(s.sizes).tolist(), list(map(s.window.elements.__getitem__, s.flat.tolist()))
    if s.window.kind != OMEGA:  # only product and custom windows have labels that can be tuples
        labels = list(map(_label_to_json, labels))
    assign = [labels[a:b] for a, b in zip([0] + ends, ends)]
    return _versioned({"type": "sampling", "window": window_to_dict(s.window), "assign": assign})


@_decoder
def sampling_from_dict(doc):
    _expect(doc, "sampling")
    w = window_from_dict(doc["window"])
    rows = doc["assign"]
    if type(rows) is not list:
        raise SchemaError("a sampling's assign must be a JSON list of label lists")
    if w.kind == OMEGA and {list}.issuperset(map(type, rows)):
        with contextlib.suppress(WindowError):  # no omega label is a list: one scan, the rule's; a fault is re-derived below
            return Sampling(w, rows)
    if not {list}.issuperset(map(type, rows)) or {list, dict} & set(map(type, itertools.chain.from_iterable(rows))):
        rows = list(map(_labels, rows))  # names the first row that is no list; lists become tuples
        hash(tuple(map(tuple, rows)))  # a JSON object is no label: TypeError, a schema fault
    return Sampling(w, rows)


# -- spaces and nets -------------------------------------------------------


def space_to_dict(space):
    doc = {"type": "space", "kind": space.kind}
    if space.dim is not None:
        doc["dim"] = space.dim
    if space.symbols is not None:
        doc["symbols"] = list(map(_label_to_json, space.symbols))
        doc["table"] = [list(row) for row in space.table]
    return _versioned(doc)


@_decoder
def space_from_dict(doc):
    _expect(doc, "space")
    kind = doc["kind"]
    if kind == BINARY:
        return binary_space()
    if kind == UNIT_INTERVAL:
        return unit_interval_space()
    if kind == HALF_LINE:
        return half_line_space()
    if kind == EUCLIDEAN:
        return euclidean_space(doc["dim"])
    if kind == TABLE:
        return table_space(_labels(doc["symbols"]), doc["table"])
    raise SchemaError(f"unknown space kind {kind!r}")


def net_to_dict(a):
    return _versioned(
        {
            "type": "net",
            "window": window_to_dict(a.window),
            "space": space_to_dict(a.space),
            "values": list(a.values) if a.space.is_scalar() else list(map(_label_to_json, a.values)),
            "target": _label_to_json(a.target),
        }
    )


@_decoder
def net_from_dict(doc):
    return _stack_from_dicts([doc])[0]


def _stack_from_dicts(docs):
    # One window and one space for the whole list, decoded from its first
    # member; another member's documents may differ only in spelling.  The
    # values of all members are checked at once, as one StackedFamily.
    first = _expect(docs[0], "net")
    window, space = window_from_dict(first["window"]), space_from_dict(first["space"])
    rows, targets = [], []  # read in the one pass over the members
    for doc in docs:
        if doc.get("schema_version") != SCHEMA_VERSION or doc.get("type") != "net":
            _expect(doc, "net")
        if doc["window"] != first["window"] and window_from_dict(doc["window"]) != window:
            raise WindowError("family members live on different windows")
        if doc["space"] != first["space"] and space_from_dict(doc["space"]) != space:
            raise SpaceError("family members take values in different spaces")
        if type(values := doc["values"]) is not list:
            raise SchemaError("a net's values must be a JSON list")
        rows.append(values)
        targets.append(doc.get("target"))
    points, targets = itertools.chain.from_iterable, _labels(targets)
    if space.kind == EUCLIDEAN and not set(map(type, points(rows))) <= {list}:
        raise SchemaError("a Euclidean point must be a JSON list of coordinates")
    if not space.is_scalar():  # only a JSON list becomes a tuple label; all coordinates scalar: each point one tuple
        flat = space.kind == EUCLIDEAN and list not in set(map(type, points(points(rows))))
        rows = [tuple(map(tuple if flat else _label_from_json, row)) for row in rows]
    try:
        return StackedFamily.from_rows(window, space, rows, targets)
    except SpaceError:
        if not space.is_scalar():
            raise
        # No list is a scalar point; name the first non-point as the label it decodes to.
        return StackedFamily.from_rows(window, space, [tuple(map(_label_from_json, row)) for row in rows], targets)


# -- rates -----------------------------------------------------------------


def rate_to_dict(rate):
    w = rate.window
    entries = [
        {
            "threshold": t,
            "sampling_id": sid,
            "candidates": _labels_to_json(sorted(cands, key=w.index)),
        }
        for (t, sid), cands in sorted(rate.table.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    ]
    return _versioned(
        {
            "type": "rate",
            "thresholds": list(rate.thresholds),
            "pointed": rate.pointed,
            "samplings": {sid: sampling_to_dict(s) for sid, s in sorted(rate.samplings.items())},
            "table": entries,
        }
    )


@_decoder
def rate_from_dict(doc):
    _expect(doc, "rate")
    if type(doc["thresholds"]) is not list or type(doc["pointed"]) is not bool:
        raise SchemaError("a rate's thresholds must be a JSON list and its pointed flag a JSON bool")
    samplings = {sid: sampling_from_dict(s) for sid, s in doc["samplings"].items()}
    table = {}
    for entry in doc["table"]:
        key = (entry["threshold"], entry["sampling_id"])
        if key in table:
            raise RateError(f"duplicate rate entry at {key}")
        table[key] = _labels(entry["candidates"])
        hash(tuple(table[key]))  # a JSON object is no label: TypeError, a schema fault
    return Rate(tuple(doc["thresholds"]), samplings, table, pointed=doc["pointed"])


# -- reports and certificates ---------------------------------------------


@_decoder
def candidate_sets_from_json(doc):
    """A candidates document: a JSON list of candidate sets, each a list of window labels,
    returned as written for ``meta.refute_uniform`` to check against the family's window."""
    if not isinstance(doc, list):
        raise SchemaError("candidates file must be a JSON list of candidate sets")
    sets = [_labels(s) for s in doc]
    hash(tuple(map(tuple, sets)))  # unhashable labels: TypeError
    return sets


def report_to_dict(report):
    return _versioned(
        {
            "type": "witness-report",
            "eps": report.eps,
            "sampling_id": report.sampling_id,
            "window_size": report.window_size,
            "outcomes": _labels_to_json(report.outcomes),
            "overall": report.overall,
        }
    )


def certificate_to_dict(cert):
    w = cert.member.window
    return _versioned(
        {
            "type": "refutation-certificate",
            "eps": cert.eps,
            "sampling": sampling_to_dict(cert.sampling),
            "member": net_to_dict(cert.member),
            "candidate_set": _labels_to_json(sorted(cert.candidate_set, key=w.index)),
            "pointed_target": _label_to_json(cert.pointed_target),
        }
    )


@_decoder
def certificate_from_dict(doc):
    _expect(doc, "refutation-certificate")
    sampling, labels = sampling_from_dict(doc["sampling"]), _labels(doc["candidate_set"])
    sampling.window._indices(labels)
    return RefutationCertificate(
        eps=doc["eps"],
        sampling=sampling,
        member=net_from_dict(doc["member"]),
        candidate_set=frozenset(labels),
        pointed_target=_label_from_json(doc.get("pointed_target")),
    )


def family_spec_to_dict(spec):
    params = {}
    for key, value in spec.parameters.items():
        params[key] = list(value) if isinstance(value, range) else value
    return _versioned(
        {
            "type": "family-spec",
            "tag": spec.tag,
            "window": window_to_dict(spec.window),
            "parameters": params,
        }
    )


@_decoder
def family_spec_from_dict(doc):
    _expect(doc, "family-spec")
    return FamilySpec(doc["tag"], window_from_dict(doc["window"]), doc.get("parameters", {}))


@_decoder
def family_from_dict(doc):
    """A FamilySpec, or the StackedFamily of a nonempty list of nets on one
    window and one space, whose values are checked once for the whole list."""
    if isinstance(doc, dict) and doc.get("type") == "family-spec":
        return family_spec_from_dict(doc)
    if not isinstance(doc, list):
        raise SchemaError("a family must be a family-spec or a list of nets")
    if not doc:
        raise FamilyError("empty family")
    return _stack_from_dicts(doc)


# -- one-way report encodings ---------------------------------------------


def analysis_report_to_dict(report):
    # Each distinct tuple label converted once, its list shared by the document: all name one window's elements.
    memo = {}

    def label(i):
        return i if type(i) is not tuple else memo[i] if i in memo else memo.setdefault(i, _label_to_json(i))

    return _versioned(
        {
            "type": "analysis-report",
            "window_size": report.window_size,
            "eps_grid": list(report.eps_grid),
            "sampling_ids": list(report.sampling_ids),
            "cells": [
                {
                    "eps": c.eps,
                    "sampling_id": c.sampling_id,
                    "witnesses": [label(w) for w in c.witnesses],
                    "cover_set": [label(i) for i in c.cover_set],
                    "uncovered": list(c.uncovered),
                }
                for c in report.cells
            ],
            "cauchy_indices": [
                [[eps, label(i)] for eps, i in per_net]
                for per_net in report.cauchy_indices
            ],
            "refuted": report.refuted,
        }
    )


def ump_verdict_to_dict(verdict):
    return _versioned(
        {
            "type": "ump-verdict",
            "ok": verdict.ok,
            "window_size": verdict.window_size,
            "non_cauchy_points": [
                [_label_to_json(p), eps] for p, eps in verdict.non_cauchy_points
            ],
            "sets": [
                {"eps": eps, "sampling_id": sid, "cover_set": [_label_to_json(i) for i in cover]}
                for (eps, sid), cover in verdict.sets
            ],
        }
    )

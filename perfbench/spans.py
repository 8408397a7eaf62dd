"""Spans for the traced run, recorded from outside the library.

While tracing, the module globals that ``metastable.cli`` calls through
(``_ser``, ``_meta``, ``_analyze``, ``_families``, ``_mvlogic`` and the
functions it imports by name) are replaced by stand-ins whose public
functions open a span around each call.  Only the calls the command makes
get spans; calls inside the library are untouched.

Where one call hides most of the work (``empirical_rate`` and
``refute_uniform``), probe spans after it repeat its public sub-steps, so
the layer below can be timed without changing the library.

Spans live in memory as lists and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import random
import types
from time import perf_counter

# Span tuple layout.
ID, PARENT, REQUEST, NAME, START, END, BUSY, VALUE = range(8)

PROBE = "probe."


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self._stack = []
        self._request = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._request, name, perf_counter(), None, None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def close(self, span, value=None):
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        span[VALUE] = value
        self._stack.pop()

    def request(self, request_id, fn, *args):
        """Run ``fn(*args)`` inside the root span of request ``request_id``."""
        self._request = request_id
        span = self.open("request")
        try:
            return fn(*args)
        finally:
            self.close(span)
            self._request = None

    def probe(self, name, fn, *args):
        span = self.open(PROBE + name)
        try:
            result = fn(*args)
        finally:
            self.close(span)
        return result

    # -- stand-ins ----------------------------------------------------------

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        value_of = _VALUES.get(name)
        after = _PROBES.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if value_of:
                span[VALUE] = value_of(result)
            if after:
                after(self, inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        # The span runs from the first item requested to exhaustion; BUSY
        # counts only the time spent inside the generator, VALUE the items.
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = None
            try:
                while True:
                    if span is None:
                        span = self.open(name)
                        span[BUSY], span[VALUE] = 0.0, 0
                    else:
                        self._stack.append(span[ID])
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += perf_counter() - t0
                        self._stack.pop()
                    span[VALUE] += 1
                    yield item
            finally:
                if span is not None:
                    span[END] = perf_counter()

        return traced

    def install(self, cli):
        """Swap the library entry points ``cli`` calls for traced stand-ins.

        Returns a function that restores the originals.
        """
        saved = {}
        for attr, value in vars(cli).items():
            if isinstance(value, types.ModuleType) and value.__name__.startswith("metastable."):
                saved[attr] = value
                setattr(cli, attr, self._module_stand_in(value))
            elif inspect.isfunction(value) and _is_library(value) and value.__module__ != cli.__name__:
                saved[attr] = value
                setattr(cli, attr, self.wrap(_span_name(value), value))

        def restore():
            for attr, value in saved.items():
                setattr(cli, attr, value)

        return restore

    def _module_stand_in(self, module):
        stand_in = types.SimpleNamespace(**vars(module))
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                setattr(stand_in, name, self.wrap(_span_name(fn), fn))
        return stand_in


def _is_library(fn):
    return fn.__module__.startswith("metastable.")


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"


_VALUES = {
    "serialize.dumps": len,
    "meta.verify_rate": lambda report: report.overall,
    "meta.refute_uniform": lambda cert: cert is not None,
    "analyze.ingest_csv": lambda nets: len(nets[0].values) if nets else 0,
}


# -- probes ----------------------------------------------------------------


def _probe_empirical_rate(tracer, args, report):
    """Repeat the Cauchy index, witness search and witness table steps."""
    lib = tracer.lib
    family, eps_grid, suite = list(args["family"]), args["eps_grid"], args["sampling_suite"]
    for a in family:
        for eps in eps_grid:
            tracer.probe("net.window_cauchy_index", lib.net.window_cauchy_index, a, eps)
    for eps in eps_grid:
        for eta in suite.values():
            for a in family:
                span = tracer.open(PROBE + "meta.find_witness")
                hit = lib.meta.find_witness(a, eps, eta)
                tracer.close(span, hit is not None)
            span = tracer.open(PROBE + "meta.witness_table")
            elements = family[0].window.elements
            for a in family:
                for i in elements:
                    lib.meta.is_witness(a, eps, eta, i)
            tracer.close(span, len(family) * len(elements))


def _probe_refute_uniform(tracer, args, cert):
    """Repeat the closed-form step on a family spec and time sampling validation."""
    lib = tracer.lib
    family = args["family"]
    union = frozenset().union(*map(frozenset, args["candidate_sets"]))
    if isinstance(family, lib.families.FamilySpec):
        tracer.probe(
            "families.closed_form_refutation",
            lib.families.closed_form_refutation,
            family, union, args["eps"], args.get("pointed", False),
        )
        window = family.window
    else:
        window = list(family)[0].window
    eta = lib.order.random_sampling(window, random.Random(0))
    for _ in range(3):
        tracer.probe("order.validate_sampling", lib.order.validate_sampling, eta)


_PROBES = {
    "analyze.empirical_rate": _probe_empirical_rate,
    "meta.refute_uniform": _probe_refute_uniform,
}


# -- per-layer summary -----------------------------------------------------

PER_REQUEST_TIMES = {
    "serialize.decode_s": lambda n: n.startswith("serialize.") and n.endswith("_from_dict"),
    "serialize.encode_s": lambda n: n.startswith("serialize.") and (n.endswith("_to_dict") or n == "serialize.dumps"),
    "order.sampling_suite_s": lambda n: n == "analyze.build_sampling_suite",
    "net.cauchy_index_s": lambda n: n == PROBE + "net.window_cauchy_index",
    "meta.find_witness_s": lambda n: n == PROBE + "meta.find_witness",
    "meta.witness_table_s": lambda n: n == PROBE + "meta.witness_table",
    "meta.verify_rate_s": lambda n: n == "meta.verify_rate",
    "meta.refute_s": lambda n: n == "meta.refute_uniform",
    "meta.replay_s": lambda n: n == "meta.replay_certificate",
    "families.enumerate_s": lambda n: n == "families.enumerate_family",
    "families.closed_form_s": lambda n: n in (
        "families.refute_C", "families.refute_D_pointed", PROBE + "families.closed_form_refutation"
    ),
    "analyze.ingest_csv_s": lambda n: n == "analyze.ingest_csv",
    "analyze.empirical_rate_s": lambda n: n == "analyze.empirical_rate",
    "analyze.ump_check_s": lambda n: n == "analyze.finite_space_ump_check",
    "mvlogic.approx_half_s": lambda n: n == "mvlogic.approx_half",
}

PER_REQUEST_COUNTS = {
    "serialize.decode_docs": (PER_REQUEST_TIMES["serialize.decode_s"], None),
    "serialize.encode_bytes": (lambda n: n == "serialize.dumps", VALUE),
    "net.cauchy_index_calls": (PER_REQUEST_TIMES["net.cauchy_index_s"], None),
    "meta.find_witness_calls": (PER_REQUEST_TIMES["meta.find_witness_s"], None),
    "meta.witness_table_checks": (PER_REQUEST_TIMES["meta.witness_table_s"], VALUE),
    "meta.verify_cells": (PER_REQUEST_TIMES["meta.verify_rate_s"], None),
    "meta.refute_calls": (PER_REQUEST_TIMES["meta.refute_s"], None),
    "families.members": (PER_REQUEST_TIMES["families.enumerate_s"], VALUE),
    "analyze.ingest_rows": (PER_REQUEST_TIMES["analyze.ingest_csv_s"], VALUE),
    "mvlogic.approx_half_calls": (PER_REQUEST_TIMES["mvlogic.approx_half_s"], None),
}

RATIOS = {  # true-valued span VALUEs over spans
    "meta.witness_hit_ratio": PROBE + "meta.find_witness",
    "meta.verify_pass_ratio": "meta.verify_rate",
    "meta.refute_found_ratio": "meta.refute_uniform",
}

# The probes that repeat parts of empirical_rate; what is left is the cover.
_COVER_PARTS = ("net.cauchy_index_s", "meta.find_witness_s", "meta.witness_table_s")


def summarize(spans, requests, overhead_ratio):
    """Per-layer metrics from the spans of ``requests`` traced requests.

    Times and counts are per request (totals over the traced requests
    divided by their number), so a layer's time reads as its share of the
    mean request.  A ratio with no attempts reads 0.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        if s[PARENT] is not None:
            children[s[PARENT]] = children.get(s[PARENT], 0.0) + s[BUSY]

    def total(match, field):
        out = 0.0
        for name, group in by_name.items():
            if match(name):
                out += len(group) if field is None else sum(s[field] for s in group)
        return out

    metrics = {}
    roots = by_name.get("request", [])
    metrics["cli.overhead_s"] = sum(s[BUSY] - children.get(s[ID], 0.0) for s in roots) / requests
    for metric, match in PER_REQUEST_TIMES.items():
        metrics[metric] = total(match, BUSY) / requests
    for metric, (match, field) in PER_REQUEST_COUNTS.items():
        metrics[metric] = total(match, field) / requests
    probes = by_name.get(PROBE + "order.validate_sampling", [])
    metrics["order.validate_sampling_us"] = (
        1e6 * sum(s[BUSY] for s in probes) / len(probes) if probes else 0.0
    )
    for metric, name in RATIOS.items():
        group = by_name.get(name, [])
        metrics[metric] = sum(1 for s in group if s[VALUE]) / len(group) if group else 0.0
    metrics["analyze.cover_self_s"] = metrics["analyze.empirical_rate_s"] - sum(
        metrics[m] for m in _COVER_PARTS
    )
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics

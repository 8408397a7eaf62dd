"""Command-line front end: verify, refute, analyze, demo.

Exit codes: 0 verified / report written; 2 refutation found (or a verify
report with failures); 3 precondition violation; 4 I/O or schema error (a
file that is not UTF-8, an overlong CSV field, JSON nested too deeply); 5
an answer failed its own re-check (a certificate that does not replay; on
analyze, a cover element that witnesses no net), so nothing was written.
All randomized paths require an explicit --seed and are reproducible:
identical inputs and seed yield byte-identical JSON output.  refute is
exact and draws nothing: it accepts --seed and ignores it.
A family file is a family spec or a nonempty list of nets on one window and
one space, decoded once.  An empty or mixed list, a window past WINDOW_CAP
(2**20) elements and a refute candidate outside the window exit 3.  verify,
analyze and the b-rate and paracompact demos list every member of a spec, so
a spec of more than FAMILY_MEMBER_CAP (4096) members exits 3 before any
member is built; refute reads members lazily and exits 3 only if its answer
needs member 4097 (plain C, pointed D, and pointed C on the window top read none).
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import sys

import numpy as np

from . import analyze as _analyze
from . import families as _families
from . import meta as _meta
from . import mvlogic as _mvlogic
from . import serialize as _ser
from .families import FAMILY_MEMBER_CAP
from .net import CheckError
from .space import euclidean_space, half_line_space, unit_interval_space, binary_space
from .order import make_omega_window

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_CHECK = 5


def _read(path, decode):
    # The JSON document at ``path``, decoded with the cyclic GC paused and then left as it was
    # found: no JSON tree, nor what a decoder builds of it, holds a cycle for the GC to find.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except RecursionError:  # the parser's: each decoder reports its own as a SchemaError
        raise _ser.SchemaError(f"{path}: JSON nested too deeply") from None
    finally:
        if collecting:
            gc.enable()


def _write(doc, out):
    text = _ser.dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family_nets(family):
    # Every member of a spec, stacked (see families.stack_family), or a decoded list as it is.
    return _families.stack_family(family) if isinstance(family, _families.FamilySpec) else family


# The --space choices other than "euclidean", which also reads --dim.
_SPACES = {
    "unit-interval": unit_interval_space,
    "half-line": half_line_space,
    "binary": binary_space,
}


def _space_from_args(args):
    if args.space == "euclidean":
        return euclidean_space(args.dim)
    return _SPACES[args.space]()


def cmd_verify(args):
    rate = _read(args.rate, _ser.rate_from_dict)
    family = _family_nets(_read(args.family, _ser.family_from_dict))
    sids = [args.sampling] if args.sampling else sorted(rate.samplings)
    reports = list(map(_ser.report_to_dict, _meta._verify_reports(family, rate, args.eps, sids)))
    doc = {
        "type": "verify-result",
        "schema_version": _ser.SCHEMA_VERSION,
        "eps": args.eps,
        "reports": reports,
        "overall": all(r["overall"] for r in reports),
    }
    _write(doc, args.out)
    return EXIT_OK if doc["overall"] else EXIT_REFUTED


def cmd_refute(args):
    family = _read(args.family, _ser.family_from_dict)
    sets = _read(args.candidates, _ser.candidate_sets_from_json)
    cert = _meta.refute_uniform(family, sets, args.eps, pointed=args.pointed)
    if cert is None:
        _write(
            {"type": "refute-result", "schema_version": _ser.SCHEMA_VERSION, "result": "exhausted"},
            args.out,
        )
        return EXIT_OK
    _write(_ser.certificate_to_dict(cert), args.out)  # refute_uniform replayed it
    return EXIT_REFUTED


def cmd_analyze(args):
    if args.csv:
        family = _analyze.ingest_csv(args.csv, _space_from_args(args))
    elif args.family:
        family = _family_nets(_read(args.family, _ser.family_from_dict))
    else:
        raise ValueError("analyze needs --csv or --family")
    eps_grid = [float(t) for t in args.eps_grid.split(",")]
    suite = _analyze.build_sampling_suite(family.window, args.suite.split(","), seed=args.seed)
    report = _analyze.empirical_rate(family, eps_grid, suite)
    _write(_ser.analysis_report_to_dict(report), args.out)
    if args.summary_csv:
        with open(args.summary_csv, "w") as fh:
            fh.write("eps,sampling_id,cover_size,uncovered\n")
            for cell in report.cells:
                fh.write(
                    f"{cell.eps},{cell.sampling_id},{len(cell.cover_set)},{len(cell.uncovered)}\n"
                )
    return EXIT_REFUTED if report.refuted else EXIT_OK


def _demo_doc(scenario, size, seed):
    if scenario == "b-rate":
        window = make_omega_window(size)
        family = _family_nets(_families.FamilySpec("B", window))
        suite = _analyze.build_sampling_suite(
            window, ["identity", "successor", "doubling", "random-k"], seed=seed
        )
        rate = _meta.build_rate(suite, lambda t, eta: _families.rate_B(eta, window))
        reports = list(map(_ser.report_to_dict, _meta._verify_reports(family, rate, 0.5, sorted(suite))))
        return {
            "scenario": scenario,
            "rate": _ser.rate_to_dict(rate),
            "reports": reports,
            "overall": all(r["overall"] for r in reports),
        }
    if scenario in ("c-refute", "d-refute"):
        window = make_omega_window(size)
        refute = _families.refute_C if scenario == "c-refute" else _families.refute_D_pointed
        cert = _meta.require_replay(refute(set(range(size // 2)), window, 0.5))
        return {"scenario": scenario, "certificate": _ser.certificate_to_dict(cert)}
    if scenario == "paracompact":
        n_points = max(2, size // 4)
        window = make_omega_window(size)
        spec = _families.FamilySpec("paracompact", window, {"n_points": n_points})
        cert = _meta.refute_uniform(spec, [set(range(n_points - 1))], 0.5, pointed=True)
        if cert is None:
            raise _families.FamilyError("window too small: no point defeats the candidate set")
        nets = _family_nets(spec)
        suite = _analyze.build_sampling_suite(window, ["identity", "successor"])
        verdict = _analyze.finite_space_ump_check(nets, [f"x{p}" for p in range(n_points)], [0.5], suite)
        return {
            "scenario": scenario,
            "plain_uniform": _ser.ump_verdict_to_dict(verdict),
            "pointed_refutation": _ser.certificate_to_dict(cert),
        }
    if scenario == "cesaro":
        nets = _analyze.cesaro_rotation_nets([math.pi / 2, math.pi / 3], size)
        suite = _analyze.build_sampling_suite(nets.window, ["identity", "doubling"])
        report = _analyze.empirical_rate(nets, [0.5, 0.25, 0.05], suite)
        return {"scenario": scenario, "report": _ser.analysis_report_to_dict(report)}
    if scenario == "lukasiewicz":
        grid = np.arange(1001) / 1000
        rows = []
        for n in (4, 8, 16, 32, 64, 128, 256):
            sup = float(np.max(np.abs(_mvlogic.approx_half(grid, n) - grid / 2)))
            rows.append({"n": n, "sup_error": sup, "bound": 1 / (2 * n)})
        return {"scenario": scenario, "convergence": rows}
    raise ValueError(f"unknown demo scenario {scenario!r}")


def cmd_demo(args):
    doc = _demo_doc(args.scenario, args.size, args.seed)
    doc["schema_version"] = _ser.SCHEMA_VERSION
    doc["type"] = "demo"
    if args.scenario == "lukasiewicz" and not args.out:
        print(f"{'n':>6}  {'sup-grid error':>16}  {'bound 1/(2n)':>14}")
        for row in doc["convergence"]:
            print(f"{row['n']:>6}  {row['sup_error']:>16.10f}  {row['bound']:>14.10f}")
        return EXIT_OK
    _write(doc, args.out)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="metastable", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check a rate against a family over its samplings")
    v.add_argument("--family", required=True, help="family-spec JSON or a list of net JSON docs")
    v.add_argument("--rate", required=True, help="rate JSON document")
    v.add_argument("--eps", type=float, required=True)
    v.add_argument("--sampling", help="restrict to one registered sampling id")
    v.add_argument("--out", help="write the verify-result JSON here (default: stdout)")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("refute", help="find the first member a sampling defeats on every candidate set")
    r.add_argument("--family", required=True, help=f"family-spec JSON or a nonempty list of net JSON docs on one window and one "
                   f"space (else exit 3); members are read lazily, an answer needing member {FAMILY_MEMBER_CAP + 1} exits 3, "
                   "and 'exhausted' covers every member")
    r.add_argument("--candidates", required=True, help="JSON list of candidate sets of window labels; "
                   "a candidate outside the window exits 3")
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--seed", type=int, help="ignored: the search is exact and deterministic")
    r.add_argument("--pointed", action="store_true")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_refute)

    a = sub.add_parser("analyze", help="empirical metastability report for a numeric family")
    a.add_argument("--csv", help="rectangular numeric CSV, one row per index")
    a.add_argument("--family", help="family JSON (alternative to --csv)")
    a.add_argument("--space", default="unit-interval", choices=[*_SPACES, "euclidean"])
    a.add_argument("--dim", type=int, default=1, help="dimension for euclidean space")
    a.add_argument("--eps-grid", default="0.5,0.25,0.1")
    a.add_argument("--suite", default="identity,successor,doubling")
    a.add_argument("--seed", type=int, help="required when the suite includes random-k")
    a.add_argument("--out")
    a.add_argument("--summary-csv")
    a.set_defaults(fn=cmd_analyze)

    d = sub.add_parser("demo", help="run a named scenario")
    d.add_argument(
        "scenario",
        choices=["b-rate", "c-refute", "d-refute", "paracompact", "cesaro", "lukasiewicz"],
    )
    d.add_argument("--size", type=int, default=16, help="window size / horizon")
    d.add_argument("--seed", type=int)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_demo)
    return p


@functools.cache
def _parser():
    # Built on the first call, not at import; parse_args leaves it unchanged.
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, csv.Error, json.JSONDecodeError, UnicodeDecodeError, _ser.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # WindowError, SpaceError, RateError and FamilyError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for benchmark requests.

Deterministic outputs (``analyze``, ``verify`` and the ``b-rate``,
``cesaro`` and ``lukasiewicz`` demos) must hash byte-identical to the
references recorded in ``references.json``, with the recorded exit code.

Certificates are checked by meaning, not by bytes, so that a different
but valid certificate still passes: it must carry the requested eps and
candidate union, its member must pass an independent membership test for
the family, an independent replay on the raw JSON must find no witness in
the union, and the library's own ``certificate_from_dict`` +
``replay_certificate`` must accept it.  "exhausted" is accepted only where
the union holds the chain top, because there no certificate can exist.
"""

from __future__ import annotations

import hashlib
import json

from workloads import BINARY, window_doc

EXHAUSTED = {"type": "refute-result", "schema_version": 1, "result": "exhausted"}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def subdoc_sha256(doc):
    return sha256(json.dumps(doc, sort_keys=True).encode())


def check(entry, code, data, ctx):
    """Return None when the output ``data`` (bytes or None) is right, else a reason."""
    ref = ctx.refs[entry.key]
    if data is None:
        return "no output file written"
    chk = entry.check
    if chk["kind"] == "hash":
        if code != ref["exit"]:
            return f"exit code {code}, expected {ref['exit']}"
        if sha256(data) != ref["output_sha256"]:
            return "output differs from the recorded reference"
        return None
    try:
        doc = json.loads(data)
    except ValueError:
        return "output is not JSON"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if "at" in chk:  # a demo document holding a certificate
        if code != 0:
            return f"exit code {code}, expected 0"
        if doc.get("type") != "demo":
            return "not a demo document"
        if "hash_at" in chk and subdoc_sha256(doc.get(chk["hash_at"])) != ref["subdoc_sha256"]:
            return f"{chk['hash_at']} differs from the recorded reference"
        cert = doc.get(chk["at"])
    elif doc.get("type") == "refute-result":
        if doc != EXHAUSTED:
            return "malformed refute-result document"
        if code != 0:
            return f"exit code {code} for an exhausted search, expected 0"
        if chk["n"] - 1 not in chk["union"]:
            return "search exhausted although the union leaves room for a certificate"
        return None
    else:
        if code != 2:
            return f"exit code {code} with a certificate, expected 2"
        cert = doc
    return _check_certificate(cert, chk, ctx)


def _check_certificate(cert, chk, ctx):
    if not isinstance(cert, dict) or cert.get("type") != "refutation-certificate":
        return "not a refutation certificate"
    if cert.get("eps") != chk["eps"]:
        return f"certificate eps {cert.get('eps')!r}, expected {chk['eps']}"
    if cert.get("candidate_set") != chk["union"]:
        return "certificate candidate set is not the requested union"
    member = cert.get("member")
    if not isinstance(member, dict):
        return "certificate has no member"
    target = cert.get("pointed_target")
    if chk["pointed"] and (target is None or target != member.get("target")):
        return "pointed certificate does not measure against the member's target"
    if not chk["pointed"] and target is not None:
        return "plain refutation carries a pointed target"
    reason = _membership(member, chk, ctx) or _replay(cert, member, chk)
    if reason:
        return reason
    lib = ctx.lib
    try:
        ok = lib.meta.replay_certificate(lib.serialize.certificate_from_dict(cert))
    except Exception as exc:  # any decode or replay error is a failed check
        return f"library replay raised {type(exc).__name__}: {exc}"
    return None if ok else "library replay rejects the certificate"


def _membership(member, chk, ctx):
    """Independent test that ``member`` belongs to the family named in ``chk``."""
    n, tag = chk["n"], chk["tag"]
    if member.get("window") != window_doc(n):
        return "member lives on another window"
    values = member.get("values")
    if not isinstance(values, list) or len(values) != n:
        return "member has the wrong number of values"
    if tag == "paracompact":
        if member.get("space", {}).get("kind") != "unit-interval":
            return "paracompact member is not unit-interval valued"
        if any(type(v) is not float or v not in (0.0, 1.0) for v in values):
            return "paracompact member is not 0/1 valued"
        # values[i] == 0 exactly at the odd i <= p, for some point p < n_points
        zeros = [i for i, v in enumerate(values) if v == 0.0]
        if zeros != list(range(1, zeros[-1] + 1, 2) if zeros else []):
            return "member is not a paracompact net"
        if zeros and zeros[-1] >= chk["n_points"]:
            return "member's point lies outside the point set"
        return None
    if member.get("space") != BINARY:
        return "member is not binary"
    if any(type(v) is not int or v not in (0, 1) for v in values):
        return "member is not 0/1 valued"
    if tag in ("B", "B0"):
        if any(values[p] < values[p + 1] for p in range(n - 1)):
            return "member is not non-increasing"
        if tag == "B0" and all(values):
            return "the constant-1 net is not in B0"
    elif tag == "C":
        if values[-1] != 0:
            return "member is not eventually zero"
    elif tag == "D":
        # values[i] == 0 exactly at the even i <= alpha, for some alpha
        zeros = [i for i, v in enumerate(values) if v == 0]
        if not zeros or zeros != list(range(0, zeros[-1] + 1, 2)):
            return "member is not a D net"
    if "members" in chk and tuple(values) not in ctx.members[chk["members"]]:
        return "member is not in the given family list"
    return None


def _replay(cert, member, chk):
    """Independent replay on the raw JSON of a scalar net on a chain window."""
    n, eps = chk["n"], chk["eps"]
    sampling = cert.get("sampling")
    if not isinstance(sampling, dict) or sampling.get("window") != window_doc(n):
        return "certificate sampling lives on another window"
    assign = sampling.get("assign")
    if not isinstance(assign, list) or len(assign) != n:
        return "certificate sampling has the wrong number of entries"
    for i, block in enumerate(assign):
        if not block or any(type(j) is not int or not i <= j < n for j in block):
            return f"sampling entry {i} is not a nonempty subset of its up-set"
    values = member["values"]
    target = cert.get("pointed_target")
    for i in chk["union"]:
        sampled = [values[j] for j in assign[i]]
        if target is None:
            defeated = max(sampled) - min(sampled) > eps
        else:
            defeated = any(abs(v - target) > eps for v in sampled)
        if not defeated:
            return f"candidate {i} is a witness for the certificate's member"
    return None

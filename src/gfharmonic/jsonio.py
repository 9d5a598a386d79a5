"""JSON encodings for scalars and matrices.

Scalars serialise as {"coeffs", "scale_exp", "denom", "N"}; matrices as
{"dim", "backend", "entries"} with row-major entries.  An exact
OperatorMatrix has backend "exact" and scalar entries.  A complex numpy
array (an embedded matrix) has backend "float" and [re, im] entries, and
decodes back to an array.  Decoding an exact matrix takes the target ring,
since a scalar payload pins only the ring order; it checks every entry and
builds the packed triple straight from the coefficients, canonical or not,
by ``CycloRing.from_entries``.

``write_json`` writes ``json.dumps(payload, indent=2, default=str)`` byte for
byte through the stdlib encoder, which leaves the entries of each exact
matrix or state to be streamed from its packed triple: each distinct
packed row (``cyclo.distinct_rows``) is canonicalised and rendered once.
"""

from __future__ import annotations

import json

import numpy as np

from . import cyclo
from .cyclo import CycloRing, CycloScalar
from .errors import BackendMismatch, ConfigError, DimensionMismatch
from .linalg import EXACT, OperatorMatrix, StateVector


def scalar_to_json(x: CycloScalar) -> dict:
    return {
        "coeffs": list(x.coeffs),
        "scale_exp": x.scale_exp,
        "denom": x.denom,
        "N": x.ring.order,
    }


def _require(ok: bool, what: str):
    # decoded payloads come from outside: a malformed one is bad input
    if not ok:
        raise ConfigError(f"malformed payload: {what}")


def _fields(data, keys):
    _require(isinstance(data, dict) and all(k in data for k in keys),
             "expected an object with keys " + ", ".join(keys))
    return [data[k] for k in keys]


def _scalar_parts(data: dict, ring: CycloRing):
    # the checked (coeffs, scale_exp, denom) of one scalar payload
    coeffs, e, den, order = _fields(data, ("coeffs", "scale_exp", "denom", "N"))
    if order != ring.order:
        raise BackendMismatch(f"scalar ring order {order} != target ring order {ring.order}")
    _require(isinstance(coeffs, list) and len(coeffs) == ring.degree
             and all(type(c) is int for c in coeffs), f"coeffs must be {ring.degree} integers")
    _require(type(e) is int and e >= 0, "scale_exp must be a non-negative integer")
    _require(type(den) is int and den != 0, "denom must be a nonzero integer")
    return coeffs, e, den


def matrix_to_json(mat: OperatorMatrix | np.ndarray) -> dict:
    if isinstance(mat, OperatorMatrix):
        entries = [scalar_to_json(x) for row in mat.rows for x in row]
        return {"dim": mat.dim, "backend": EXACT, "entries": entries}
    entries = [[float(z.real), float(z.imag)] for z in mat.flat]
    return {"dim": mat.shape[0], "backend": "float", "entries": entries}


def matrix_from_json(data: dict,
                     ring: CycloRing | None = None) -> OperatorMatrix | np.ndarray:
    dim, backend, entries = _fields(data, ("dim", "backend", "entries"))
    _require(type(dim) is int and dim >= 0 and isinstance(entries, list),
             "dim must be a non-negative integer and entries a list")
    if len(entries) != dim * dim:
        raise DimensionMismatch("entry count does not match dim^2")
    if backend == "float":
        _require(all(isinstance(z, list) and len(z) == 2
                     and all(isinstance(x, (int, float)) for x in z) for z in entries),
                 "float entries must be [re, im] pairs")
        return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    if ring is None:
        raise BackendMismatch("decoding an exact matrix needs a target ring")
    parts = [_scalar_parts(x, ring) for x in entries]
    if not parts:
        return OperatorMatrix.zeros(ring, 0)
    coeffs, exps, denoms = (np.array(x, dtype=object) for x in zip(*parts))
    data, e, q = ring.from_entries(cyclo.compact(coeffs), exps, denoms)
    return OperatorMatrix.from_packed(ring, (data.reshape(dim, dim, ring.degree), e, q))


def write_json(payload, fh) -> None:
    """Write ``json.dumps(payload, indent=2, default=str) + "\n"`` to fh, where
    an exact OperatorMatrix or StateVector stands for its entries'
    ``scalar_to_json`` dicts, streamed from its packed triple, at most
    BLOCK_ENTRIES // degree entries per write.  The encoder calls ``default``
    just before it yields the placeholder, so the chunk after a queued value
    is where it goes."""
    exact, parts = [], []

    def default(o):
        if isinstance(o, (OperatorMatrix, StateVector)):
            exact.append(o)
            return _PLACEHOLDER
        return str(o)

    for chunk in json.JSONEncoder(indent=2, default=default).iterencode(payload):
        if not exact:
            parts.append(chunk)
            continue
        head = "".join(parts)
        line = head[head.rfind("\n") + 1:]  # indent the entries one level past this line
        fh.write(head)
        _write_entries(exact.pop(), "\n  " + line[:len(line) - len(line.lstrip(" "))], fh)
        parts = []
    fh.write("".join(parts) + "\n")


_PLACEHOLDER = "exact value"


def _write_entries(mat: OperatorMatrix | StateVector, pad: str, fh) -> None:
    # the distinct packed rows are canonicalised once each; each block's
    # texts come from the entry template of the distinct rows it uses
    ring = mat.ring
    data, e, q = mat.packed
    distinct, inverse = cyclo.distinct_rows(data.reshape(-1, ring.degree))
    blocks = (ring.canonical(distinct[start:start + cyclo.BLOCK_ENTRIES], e, q)
              for start in range(0, len(distinct), cyclo.BLOCK_ENTRIES))
    values = np.concatenate([cyclo.compact(np.column_stack(b)) for b in blocks])
    key, sep = pad + "  ", "," + pad
    entry = ("{" + key + '"coeffs": [' + ",".join([key + "  %d"] * ring.degree) + key
             + "]," + key + '"scale_exp": %d,' + key + '"denom": %d,' + key
             + f'"N": {ring.order}' + pad + "}")
    # an entry's text grows with the degree, so each write joins
    # BLOCK_ENTRIES / degree of them: about BLOCK_ENTRIES coefficients
    step = max(1, cyclo.BLOCK_ENTRIES // ring.degree)
    fh.write("[" + pad)
    for start in range(0, len(inverse), cyclo.BLOCK_ENTRIES):
        used, local = np.unique(inverse[start:start + cyclo.BLOCK_ENTRIES],
                                return_inverse=True)
        texts = [entry % row for row in map(tuple, values[used].tolist())]
        local = local.tolist()
        for i in range(0, len(local), step):
            fh.write((sep if start + i else "")
                     + sep.join([texts[k] for k in local[i:i + step]]))
    fh.write(pad[:-2] + "]")


"""JSON encodings for scalars and matrices.

Scalars serialise as {"coeffs", "scale_exp", "denom", "N"}; matrices as
{"dim", "backend", "entries"} with row-major entries.  An exact
OperatorMatrix has backend "exact" and scalar entries.  A complex numpy
array (an embedded matrix) has backend "float" and [re, im] entries, and
decodes back to an array.  Decoding exact payloads takes the target ring, since a scalar
payload pins only the ring order.
"""

from __future__ import annotations

import numpy as np

from .cyclo import CycloRing, CycloScalar
from .errors import BackendMismatch, DimensionMismatch
from .linalg import EXACT, OperatorMatrix


def scalar_to_json(x: CycloScalar) -> dict:
    return {
        "coeffs": list(x.coeffs),
        "scale_exp": x.scale_exp,
        "denom": x.denom,
        "N": x.ring.order,
    }


def scalar_from_json(data: dict, ring: CycloRing) -> CycloScalar:
    if data["N"] != ring.order:
        raise BackendMismatch(
            f"scalar ring order {data['N']} != target ring order {ring.order}")
    return ring.scalar(data["coeffs"], data["scale_exp"], data["denom"])


def matrix_to_json(mat: OperatorMatrix | np.ndarray) -> dict:
    if isinstance(mat, OperatorMatrix):
        entries = [scalar_to_json(x) for row in mat.rows for x in row]
        return {"dim": mat.dim, "backend": EXACT, "entries": entries}
    entries = [[float(z.real), float(z.imag)] for z in mat.flat]
    return {"dim": mat.shape[0], "backend": "float", "entries": entries}


def matrix_from_json(data: dict,
                     ring: CycloRing | None = None) -> OperatorMatrix | np.ndarray:
    dim = data["dim"]
    entries = data["entries"]
    if len(entries) != dim * dim:
        raise DimensionMismatch("entry count does not match dim^2")
    if data["backend"] == "float":
        return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    if ring is None:
        raise BackendMismatch("decoding an exact matrix needs a target ring")
    rows = [[scalar_from_json(entries[n * dim + m], ring) for m in range(dim)]
            for n in range(dim)]
    return OperatorMatrix(dim, EXACT, ring, rows)

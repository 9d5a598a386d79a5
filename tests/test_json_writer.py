"""``jsonio.write_json`` against ``json.dumps(indent=2, default=str)``, byte for byte.

The stdlib call is the reference: on nested plain values, on the payload of
every CLI command and on exact matrices, whose entries the writer renders
from the packed triple.  The reference renders each matrix entry through
``ring.scalar``, so it shares no code with the writer's block path.  The
writer canonicalises each distinct packed entry once and writes at most one
block of entries per call; the last two tests pin that down.
"""

import hashlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfharmonic import cli, cyclo, jsonio
from gfharmonic import symplectic as sp
from gfharmonic.cyclo import CycloRing
from gfharmonic.gf import make_field
from gfharmonic.hilbert import point_projector, ring_for
from gfharmonic.jsonio import matrix_to_json, scalar_to_json, write_json
from gfharmonic.linalg import EXACT, OperatorMatrix, StateVector


def reference_entries(mat):
    data, e, q = mat.packed
    vecs = data.reshape(-1, mat.ring.degree)
    return [scalar_to_json(mat.ring.scalar(v.tolist(), e, q)) for v in vecs]


def resolved(value):
    """The payload with every exact matrix or state replaced by its entry
    dicts."""
    if isinstance(value, (OperatorMatrix, StateVector)):
        return reference_entries(value)
    if isinstance(value, dict):
        return {k: resolved(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [resolved(v) for v in value]
    return value


def written(payload) -> str:
    buf = io.StringIO()
    write_json(payload, buf)
    return buf.getvalue()


def reference(payload) -> str:
    return json.dumps(resolved(payload), indent=2, default=str) + "\n"


# -- plain values ------------------------------------------------------------


class Opaque:
    """An object json cannot encode, so default=str decides its bytes."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return f"opaque<{self.tag}>é\n"


big_ints = st.integers(min_value=2 ** 63 - 2, max_value=2 ** 80) | st.integers(
    max_value=-2 ** 63, min_value=-2 ** 80)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), big_ints,
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, math.nan, -math.inf]),
    st.text(), st.text(st.characters(max_codepoint=0x1F) | st.characters(categories=["Cs"])),
    st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=9)),
    st.complex_numbers(allow_nan=False), st.builds(Opaque, st.integers()),
    st.integers(min_value=-2 ** 40, max_value=2 ** 40).map(np.int64),
)
keys = st.one_of(st.text(), st.integers(), big_ints, st.booleans(), st.none(),
                 st.floats(allow_nan=True, allow_infinity=True))
nested = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(keys, inner),
        st.lists(st.integers() | big_ints | st.booleans())),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(nested)
def test_plain_values_match_stdlib(value):
    assert written(value) == reference(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [1, True, 2], [0, -0.0, 2 ** 64], (1, 2, 3),
    {1: "int", 2.5: "float", True: "bool", None: "none"}, "☃\x00\x1f",
    {"nan": math.nan, "inf": [math.inf, -math.inf]}, Opaque(1),
])
def test_edge_values_match_stdlib(value):
    assert written(value) == reference(value)


def test_placeholder_text_in_the_payload_is_written_verbatim(gf9):
    # the writer streams entries where the encoder's default hook ran, not
    # where the placeholder's text happens to appear
    text = jsonio._PLACEHOLDER
    mat = point_projector(gf9, 2)
    for payload in (text, [text], [text, mat, text], {"a": text, "b": mat, "c": [text]}):
        assert written(payload) == reference(payload)


def test_bad_key_raises_type_error():
    with pytest.raises(TypeError):
        written({(1, 2): 0})


# -- exact matrices ----------------------------------------------------------


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def random_matrix(ring, dim, seed, top, zero_share=0.3):
    rng = random.Random(seed)
    rows = [[ring.scalar([rng.randint(-top, top) for _ in range(ring.degree)],
                         rng.randint(0, 3), rng.randint(1, 6))
             if rng.random() > zero_share else ring.zero
             for _ in range(dim)] for _ in range(dim)]
    return OperatorMatrix(dim, EXACT, ring, rows)


def repeated_matrix(ring, dim, seed, top):
    """Entries drawn from three values and zero, so the writer deduplicates."""
    rng = random.Random(seed)
    values = [ring.scalar([rng.randint(-top, top) for _ in range(ring.degree)], e, q)
              for e, q in ((0, 1), (1, 2), (3, 5))] + [ring.zero]
    rows = [[rng.choice(values) for _ in range(dim)] for _ in range(dim)]
    return OperatorMatrix(dim, EXACT, ring, rows)


def exact_matrices(field):
    ring = ring_for(field)
    big = random_matrix(ring, 3, 1, 2 ** 70)
    return {
        "object_dtype": big,
        "repeated_object_dtype": repeated_matrix(ring, 5, 3, 2 ** 70),
        "repeated_small": repeated_matrix(ring, 6, 4, 3),
        "mixed_scale_denom": random_matrix(ring, 4, 2, 5),
        "zero_entries": point_projector(field, 2),
        "all_zero": OperatorMatrix(2, EXACT, ring, [[ring.zero] * 2] * 2),
        "one_entry": OperatorMatrix(1, EXACT, ring, [[ring.rational(-7, 2)]]),
    }


@pytest.mark.parametrize("block", [None, 3, 1])
def test_exact_matrices_match_stdlib(gf9, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cyclo, "BLOCK_ENTRIES", block)
    mats = exact_matrices(gf9)
    assert mats["object_dtype"].packed[0].dtype == object
    assert mats["repeated_object_dtype"].packed[0].dtype == object
    for name, mat in mats.items():
        payload = {"dim": mat.dim, "backend": EXACT, "entries": mat}
        assert written(payload) == reference(payload), name
        assert resolved(payload) == matrix_to_json(mat), name
    # matrices at other nesting depths, and as the whole payload
    for payload in (mats["object_dtype"], [mats["all_zero"], {"m": [mats["one_entry"]]}]):
        assert written(payload) == reference(payload)


# -- every CLI command -------------------------------------------------------


GF9 = ["--p", "3", "--ell", "2"]
GF25 = ["--p", "5", "--ell", "2"]
OPS = [["fourier"], ["fourier", "--d", "1"], ["frobenius"], ["zpow", "--alpha", "1"],
       ["xpow", "--beta", "2"], ["displace", "--alpha", "1", "--beta", "2"],
       ["symplectic", "--r", "1", "--s", "2", "--t", "3"],
       ["projector", "--point", "2"], ["projector", "--subspace", "1"]]
COMMANDS = ([["op", *op, *field] for field in (GF9, GF25) for op in OPS]
            + [["op", "fourier", *GF9, "--backend", "float"],
               ["field", "--p", "3", "--ell", "4"],
               ["verify", "all", *GF9], ["fixtures"]])


def check_command(argv, monkeypatch, capsys):
    payloads = []

    def recording(payload, fh):
        payloads.append(payload)
        write_json(payload, fh)

    monkeypatch.setattr(cli, "write_json", recording)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(payloads) == 1
    want = reference(payloads[0])
    if out != want:  # a plain assert would diff texts of a few hundred kB
        at = next((i for i, (x, y) in enumerate(zip(out, want)) if x != y),
                  min(len(out), len(want)))
        pytest.fail(f"output differs from the stdlib at offset {at} of {len(want)}: "
                    f"{out[at:at + 60]!r} != {want[at:at + 60]!r}", pytrace=False)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_payload_matches_stdlib(argv, monkeypatch, capsys):
    check_command(argv, monkeypatch, capsys)


def test_weyl_payload_matches_stdlib(gf9, tmp_path, monkeypatch, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(matrix_to_json(point_projector(gf9, 2))))
    check_command(["weyl", "--theta", str(theta), *GF9, "--modulus", "2,1,1"],
                  monkeypatch, capsys)


def test_gf25_weyl_payload_matches_stdlib(tmp_path, monkeypatch, capsys):
    # a dense theta, so the rows carry many distinct entries at a common (E, Q)
    theta = tmp_path / "theta.json"
    assert cli.main(["op", "symplectic", *GF25, "--r", "1", "--s", "2", "--t", "3",
                     "--json", str(theta)]) == 0
    check_command(["weyl", "--theta", str(theta), *GF25], monkeypatch, capsys)


# -- pinned exact op outputs -------------------------------------------------


@pytest.mark.parametrize("argv, digest", [
    (["symplectic", "--p", "13", "--ell", "2", "--r", "65", "--s", "133", "--t", "159"],
     "64421ea85edfecf2ee1b51c7a6e3876a70d233911e6c9f49e2abad1feb2ebce9"),
    (["fourier", "--p", "3", "--ell", "3"],
     "82387cbb193160ca4fa4c4ca5117555046b3f1627e032697bc1da35364b633db"),
    (["frobenius", "--p", "3", "--ell", "2"],
     "ce377b922aa295c6e4d1d7ba2c6e1719336f182d00e96338f647e738936000f6"),
    (["projector", "--subspace", "1", "--p", "3", "--ell", "2"],
     "6a52a817262b50785cf756c911d1d8c635cc8b50c9a0d470ce0919e3669d9a85"),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_op_output_is_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "op.json"
    assert cli.main(["op", *argv, "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert cli.main(["op", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -- distinct entries, streamed per block ------------------------------------

PINNED_SYMPLECTIC = ["op", "symplectic", "--p", "13", "--ell", "2",
                     "--r", "65", "--s", "133", "--t", "159"]


class RecordingFile(io.StringIO):
    """A text file that keeps every write as one string."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_writer_canonicalises_each_distinct_entry_once(monkeypatch):
    payloads, rows = [], []
    canonical = CycloRing.canonical

    def spy(ring, vecs, e, q):
        rows.append(len(vecs))
        return canonical(ring, vecs, e, q)

    def recording(payload, fh):
        payloads.append(payload)
        write_json(payload, fh)

    monkeypatch.setattr(CycloRing, "canonical", spy)
    monkeypatch.setattr(cli, "write_json", recording)
    assert cli.main(PINNED_SYMPLECTIC) == 0
    mat = payloads[0]["entries"]
    flat = mat.packed[0].reshape(-1, mat.ring.degree)
    distinct = len(np.unique(flat, axis=0))
    assert len(flat) == 169 ** 2 and distinct == 13
    assert sum(rows) == distinct


def weyl_payload(tmp_path, monkeypatch):
    """The payload of ``weyl`` on the GF(9) op symplectic theta: a list of
    StateVector rows."""
    theta = tmp_path / "theta.json"
    assert cli.main(["op", "symplectic", *GF9, "--r", "1", "--s", "2", "--t", "3",
                     "--json", str(theta)]) == 0
    payloads = []
    monkeypatch.setattr(cli, "write_json", lambda payload, fh: payloads.append(payload))
    assert cli.main(["weyl", "--theta", str(theta), *GF9]) == 0
    return payloads[0]


@pytest.mark.parametrize("block", [None, 3, 1])
def test_no_write_carries_more_than_one_block(gf9, block, tmp_path, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cyclo, "BLOCK_ENTRIES", block)
    field = make_field(13, 2)
    mats = [*exact_matrices(gf9).values(),
            sp.synthesize(field, sp.element_row(field, 65, 133, 159))]
    cases = [({"entries": mat}, mat.ring.degree) for mat in mats]
    cases.append((weyl_payload(tmp_path, monkeypatch), ring_for(gf9).degree))
    for payload, degree in cases:
        fh = RecordingFile()
        write_json(payload, fh)
        want = reference(payload)
        per_write = [text.count('"N": ') for text in fh.writes]
        # an entry's text grows with the degree: a write joins at most
        # BLOCK_ENTRIES // degree of them
        assert max(per_write) <= max(1, cyclo.BLOCK_ENTRIES // degree)
        assert sum(per_write) == want.count('"N": ')
        # a bool, so that a mismatch does not diff two 9 MB texts
        matches = fh.getvalue() == want
        assert matches, len(want)

"""The symplectic group Sp(2, GF(p^ell)) acting on displacement operators.

An element is a quadruple (r, s, t, u) with r*u - s*t = 1.  Its unitary
S satisfies, by definition of the action,

    S Z^alpha S+ = D(u alpha, t alpha)      S X^beta S+ = D(s beta, r beta)

and more generally S D(alpha, beta) S+ = D(u alpha + s beta, t alpha + r beta).
S is synthesised from three generator subgroups: index scaling, a diagonal
quadratic phase, and the Fourier conjugate of the latter.  That conjugate is
a convolution over the additive group (its entry (n, m) depends only on
n - m), so it is built from its q distinct entries, one character sum each.
In the generic chart (r != 0 and 1 + s*t != 0)

    S = [F S(1, -xi1, 0) F+] . S(1, xi2, 0) . S(xi3, 0, 0)
    xi1 = r t (1+s t)^-1,  xi2 = s r^-1 (1+s t),  xi3 = r (1+s t)^-1

(The Fourier-conjugated factor enters with a negated parameter: conjugating
the diagonal quadratic phase by F negates its effective shear, which the
two checks below pin down - the action contract, and exact agreement with
the Gauss-sum closed form for the matrix elements.)  Degenerate parameters
are pushed into the generic chart by composing with the Fourier matrix,
which is itself the symplectic element (u, s, t, r) = (0, 1, -1, 0).

So every unitary is S_x(x) . N: one of at most q conjugated shears times a
monomial N, or a monomial times F+.  :func:`action_sweep` uses this to
check the action law per shear rather than per element: the law reduces
to S_x Y = D S_x with Y = N Lambda N+ monomial, and each entry of that is
one lookup in the root rotations of the q values of S_x, at the field
difference of its row and column, batched over every element and label
that share it; :func:`action_check` is its one-element case.
:func:`closed_form_sweep` compares U with the Gauss-sum closed form the same way.
Every function takes elements as field indices: the sweeps an element
array (:func:`enumerate_group`), the one-element checks one row (r, s, t,
u) of it, which :func:`element_row` builds and validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cyclo import CycloScalar, compact, distinct_rows
from .errors import (ConstraintViolated, DomainRestriction,
                     EvenCharacteristic, ZeroScaling)
from .fourier import fourier_matrix
from .gf import GFField
from .heisenberg import (component_displacement_monomial, displacement,
                         displacement_monomial, label_blocks, marginal_labels,
                         marginals_in_frame, require_gf9_fixture,
                         tensor_factorize_displacement, x_monomial, z_monomial)
from .hilbert import ring_for
from .linalg import (Monomial, OperatorMatrix, blocks_equal, conjugate, proportionality_phase,
                     tensor_list)


def gauss_sum(field: GFField, a) -> CycloScalar:
    """sum over k of omega^(Tr(a k^2)), evaluated by brute force."""
    ring, t = ring_for(field), field.tables()
    return ring.sum_of_roots(
        t.trace[t.mul[field.element(a).index, t.mul.diagonal()]] * (ring.order // field.p))


def generator_scaling(field: GFField, xi) -> Monomial:
    """Index scaling m -> xi m; the element (r, s, t, u) = (xi, 0, 0, xi^-1).
    For an index array of parameters, the family of them."""
    xi = field.indices(xi)
    if (np.asarray(xi) == 0).any():
        raise ZeroScaling("scaling parameter must be nonzero")
    return Monomial.permutation(ring_for(field), field.tables().mul[xi])


def generator_shear_z(field: GFField, xi) -> Monomial:
    """Diagonal quadratic phase omega^(Tr(2^-1 xi m^2)); the element (1, xi, 0, 1).
    For an index array of parameters, the family of them."""
    if field.p == 2:
        raise EvenCharacteristic("quadratic phases need the inverse of 2")
    t = field.tables()
    c = np.asarray(t.mul[field.two_inverse, field.indices(xi)])[..., None]
    return Monomial.diagonal_omega(ring_for(field), t.trace[t.mul[c, t.mul.diagonal()]])


def generator_shear_x(field: GFField, xi) -> OperatorMatrix:
    """Fourier conjugate F S(1, xi, 0) F+ of the diagonal quadratic phase.

    Conjugating a diagonal operator by F gives a convolution over (GF(q), +):
    the result commutes with every shift, so entry (n, m) depends only on
    n - m.  Expanding the triple product, entry (n, m) is g(n - m) with

        g(d) = p^-ell sum_k omega^(Tr(k d) + 2^-1 Tr(xi k^2)),

    because Tr(k n) - Tr(k m) = Tr(k (n - m)).  The q values g(d) are one
    root sum (:func:`_shear_row`, cached), and the matrix is that row
    gathered at n - m on each call, so it costs q character sums instead of
    q^2.  The exponents agree with those of the full triple product mod N,
    so every entry is bit-identical to it; :func:`shear_x_closed_form`
    evaluates that triple product directly.
    """
    if field.p == 2:
        raise EvenCharacteristic("quadratic phases need the inverse of 2")
    g, e, q = _shear_row(field, field.element(xi).index)
    k = np.arange(field.order)
    return OperatorMatrix.from_packed(ring_for(field),
                                      (g[_differences(field, k[:, None], k)], e, q))


@cache
def _shear_row(field: GFField, xi: int) -> tuple:
    """The convolution row of S_x at the field index xi, cached: the packed
    triple of its q values g(d), d = n - m, read-only and compact.  The
    synthesis, the sweeps and the shear laws read it, not the matrix."""
    ring, t = ring_for(field), field.tables()
    c = t.mul[field.two_inverse, xi]
    k = np.arange(field.order)
    roots = (t.trace[t.mul[k[:, None], k]] + t.trace[t.mul[c, t.mul[k, k]]]) * (
        ring.order // field.p)
    slots = np.broadcast_to(k[:, None], roots.shape)
    g, e, q = ring.root_sum(ring.root_coeffs()[0], roots, slots, (field.order,),
                            2 * field.ell)
    g = compact(g)
    g.setflags(write=False)
    return g, e, q


def _differences(field: GFField, rows, cols):
    # the field indices rows - cols, broadcast: where a convolution row is read
    t = field.tables()
    return t.add[rows, t.neg[cols]]


def shear_x_closed_form(field: GFField, xi) -> OperatorMatrix:
    """The conjugated shear by its definition, as a cross-check: F S(1, xi, 0)
    F+, one gather of F by the diagonal shear and one exact product."""
    return conjugate(fourier_matrix(field), generator_shear_z(field, xi))


def fourier_params(field: GFField) -> np.ndarray:
    """The Fourier matrix as a group element: (u, s, t, r) = (0, 1, -1, 0)."""
    return np.array([0, 1, field.neg_index(1), 0], dtype=np.int64)


def synthesize(field: GFField, row) -> OperatorMatrix:
    """Unitary realising the conjugation action of the group element at one
    row (r, s, t, u): the one-row case of :func:`element_factors`, S_x(shear)
    . M, times F+ outside the generic chart.

    S_x . M has entry (n, m) = g(n - perm m) zeta^phase(m), g the shear's
    convolution row, so the row is rotated once per distinct phase (at most
    p of them) and gathered once; units keep its (E, Q)."""
    fac = element_factors(field, np.asarray(row)[None])
    ring, q = ring_for(field), field.order
    g, e, den = _shear_row(field, int(fac.shear[0]))
    perm, phase = fac.monomial.perm[0], fac.monomial.phase[0]
    phases, which = np.unique(phase, return_inverse=True)
    rotated = ring.times_roots(np.broadcast_to(g, (len(phases),) + g.shape),
                               row_roots=phases if phases.any() else None)
    u = OperatorMatrix.from_packed(ring, (
        rotated[which, _differences(field, np.arange(q)[:, None], perm)], e, den))
    return u @ fourier_matrix(field).adjoint() if fac.fourier[0] else u


ACTION_KEYS = ("unitary", "z_action", "x_action", "displacement_action",
               "commutation")


def _complete_rows(field: GFField, rows: np.ndarray) -> np.ndarray:
    """Rows (r, s, t, u) of field indices completed to r u - s t = 1 in their
    chart: u = r^-1 (1 + s t) where r != 0, s = -t^-1 where r = 0 (t != 0)."""
    tb = field.tables()
    r, s, t, u = rows.T
    generic = r != 0
    return np.stack([r, np.where(generic, s, tb.neg[tb.inv[t]]), t,
                     np.where(generic, tb.mul[tb.inv[r], tb.add[tb.mul[s, t], 1]], u)],
                    axis=1)


def determinant(field: GFField, rows) -> np.ndarray:
    """r u - s t of each row (r, s, t, u) of an element array."""
    tb = field.tables()
    r, s, t, u = np.asarray(rows).T
    return tb.add[tb.mul[r, u], tb.neg[tb.mul[s, t]]]


def element_row(field: GFField, r, s, t, u=None) -> np.ndarray:
    """The group element (r, s, t, u) as one row of field indices, each
    parameter an index, text or field element.  Without u the row is
    completed in the chart r != 0; with it, r u - s t = 1 is required."""
    row = np.array([field.element(x).index for x in (r, s, t, 0 if u is None else u)],
                   dtype=np.int64)
    if u is None:
        if row[0] == 0:
            raise ConstraintViolated("r = 0 leaves u undetermined; supply it")
        row = _complete_rows(field, row[None])[0]
    if determinant(field, row) != 1:
        raise ConstraintViolated("parameters do not satisfy r*u - s*t = 1")
    return row


def group_block(field: GFField, r: int) -> np.ndarray:
    """The elements with first entry r (a field index) as an element array,
    ordered by (s, t) where r != 0, and by (t, u) where r = 0 (s = -t^-1)."""
    q = field.order
    a, b = np.indices((q, q) if r else (q - 1, q)).reshape(2, -1)
    z = 0 * a
    return _complete_rows(field, np.stack([z + r, a, b, z] if r else [z, z, a + 1, b], axis=1))


def enumerate_group(field: GFField) -> np.ndarray:
    """All q(q^2 - 1) group elements as a (G, 4) int64 array of field indices
    (r, s, t, u): the blocks r = 1, ..., q - 1 of :func:`group_block`, then 0."""
    return np.concatenate([group_block(field, r) for r in [*range(1, field.order), 0]])


def group_order_count(field: GFField) -> tuple[int, int]:
    """(distinct codes of the determinant-1 rows, rows), summed over the blocks
    of :func:`group_block`; rows count only in the block of their r."""
    q, count, rows = field.order, 0, 0
    for r in range(q):
        block = group_block(field, r)
        keep = (block[:, 0] == r) & (determinant(field, block) == 1)
        codes = np.sort(block[keep] @ q ** np.arange(3, -1, -1))
        count += int(codes.size and 1 + np.count_nonzero(codes[1:] != codes[:-1]))
        rows += len(block)
    return count, rows


def sample_group(field: GFField, rng, count: int) -> np.ndarray:
    """count elements as an element array: each draws the field index r,
    then (s, t) where r != 0 or (t != 0, u) where r = 0, one ``rng.choice``
    each, and is completed in its chart as in :func:`enumerate_group`."""
    q = field.order
    rows = []
    for _ in range(count):
        r = rng.choice(range(q))
        rows.append((r, rng.choice(range(q)), rng.choice(range(q)), 0) if r else
                    (0, 0, rng.choice(range(1, q)), rng.choice(range(q))))
    return _complete_rows(field, np.array(rows, dtype=np.int64).reshape(-1, 4))


def closed_form_rows(field: GFField, ranks) -> np.ndarray:
    """The rows of the given ranks among the (q - 1)^3 elements where
    :func:`closed_form_matrix` is defined (r, t and 1 + s t nonzero), in
    :func:`enumerate_group` order.  Each r holds (q - 1)^2: s = 0 with the q - 1
    values t != 0, then each s != 0 with the q - 2 values t not in {0, -1/s}."""
    q, tb = field.order, field.tables()
    r, j = np.divmod(np.asarray(ranks, dtype=np.int64), (q - 1) ** 2)
    (s, k), generic = np.divmod(j - (q - 1), q - 2), j >= q - 1
    s, t = np.where(generic, s + 1, 0), np.where(generic, k, j) + 1
    t += generic & (t >= tb.neg[tb.inv[s]])
    return _complete_rows(field, np.stack([r + 1, s, t, np.zeros_like(t)], axis=1))


@dataclass(frozen=True)
class ElementFactors:
    """The factors U(g) = S_x(shear) . M . (F+ where fourier) of
    :func:`synthesize`, one row per element.

    M = S(1, xi2, 0) . S(xi3, 0, 0) is monomial, one member per element of
    the family ``monomial``; ``shear`` is the field index of -xi1.
    ``fourier`` marks the elements outside the chart r != 0, 1 + s t != 0,
    whose factors are those of the Fourier-composed element.
    """

    shear: np.ndarray    # (G,)
    monomial: Monomial   # (G, q) family
    fourier: np.ndarray  # (G,) bool


def element_factors(field: GFField, elements) -> ElementFactors:
    """Factors of every element, from gathers on the field's index arrays."""
    if field.p == 2:
        raise EvenCharacteristic("symplectic unitaries need odd characteristic")
    t = field.tables()
    r, s, tt, u = elements.T
    fourier = (r == 0) | (t.add[t.mul[s, tt], 1] == 0)
    # the Fourier-composed element (t, u, -r, -s) lies in the generic chart
    r, s, tt = (np.where(fourier, tt, r), np.where(fourier, u, s),
                np.where(fourier, t.neg[r], tt))
    w = t.add[t.mul[s, tt], 1]
    xi3 = t.mul[r, t.inv[w]]
    xi2 = t.mul[t.mul[s, t.inv[r]], w]
    perm = t.mul[xi3[:, None], np.arange(field.order)]
    half_xi2 = t.mul[field.two_inverse, xi2]
    step = ring_for(field).order // field.p
    phase = t.trace[t.mul[half_xi2[:, None], t.mul[perm, perm]]] * step
    return ElementFactors(shear=t.neg[t.mul[xi3, tt]],
                          monomial=Monomial(ring_for(field), perm, phase), fourier=fourier)


def _fourier_conjugates(field: GFField, la, lb):
    """Whether F is unitary, and the family of W = F+ D(a, b) F over index
    arrays of labels: D(-b, a) wherever F D(-b, a) = D(a, b) F, two gathers
    of F per label, which fixes W because F is unitary; the identity
    elsewhere."""
    f = fourier_matrix(field)
    lam = displacement_monomial(field, la, lb)
    conj = displacement_monomial(field, field.tables().neg[lb], la)
    keep = np.array([(f @ conj[k]).equals(lam[k] @ f) for k in range(len(la))])[:, None]
    return f.is_unitary(), Monomial(ring_for(field), np.where(keep, conj.perm, np.arange(f.dim)),
                                    np.where(keep, conj.phase, 0))


def _rotation_codes(ring, rows):
    """codes[b, k, d]: an integer naming zeta^k rows[b][d], for (q, degree)
    convolution rows and k in [0, 2N), so that equal codes mean equal
    coefficient vectors.  A shear's entry (n, m) is code d = n - m."""
    deg, order = ring.degree, ring.order
    vals, idx = distinct_rows(np.stack(rows).reshape(-1, deg))
    rot = ring.times_roots(np.broadcast_to(vals, (order,) + vals.shape),
                           row_roots=np.arange(order))
    _, rot_id = distinct_rows(rot.reshape(-1, deg))
    codes = rot_id.reshape(order, len(vals))[:, idx.reshape(len(rows), -1)]
    return np.concatenate([codes, codes]).transpose(1, 0, 2).astype(np.int32)


def _difference_codes(field: GFField):
    """(cx, cy, at): codes of the field indices with at[cx[x] + cy[y]] = x - y,
    the field difference add[x, neg[y]], for all x and y.  When that table
    is the digit-wise one of the base-p indices, x + p - y never carries
    in base 2p, so cx and cy are base-2p digit numbers and ``at`` has
    (2p)^ell entries; otherwise cx = q x, cy = y and ``at`` is the q x q
    table itself."""
    p, ell, q = field.p, field.ell, field.order
    k = np.arange(q)
    diff = _differences(field, k[:, None], k)
    place = (2 * p) ** np.arange(ell)
    digits = k[:, None] // p ** np.arange(ell) % p
    cx, cy = digits @ place, (p - digits) @ place
    at = (np.arange(place[-1] * 2 * p)[:, None] // place % (2 * p) % p) @ p ** np.arange(ell)
    if np.array_equal(at[cx[:, None] + cy], diff):
        return cx, cy, at
    return k * q, k, diff.reshape(-1)


def action_sweep(field: GFField, elements, labels=None) -> np.ndarray:
    """The action-law verdicts of many elements, as a (G, 5) bool array
    with columns in ACTION_KEYS order (see :func:`action_check`).

    With the factors U = S_x . N of :func:`element_factors` (N = M, or
    M F+), U Lambda = D(g lambda) U holds exactly when S_x Y = D(g lambda)
    S_x with Y = N Lambda N+ = M Lambda' M+, a monomial: Lambda' is Lambda,
    or W = F+ Lambda F, read once per label, and Y is one family over
    elements and labels.  For each of the at most q bases S_x, codes of
    the root rotations zeta^k g of its convolution row g are built once;
    then entry (j, c) of the law, g(pi_D j - pi_Y c) zeta^(phi_Y c - phi_D
    j) = g(j - c), is one gather at the field difference, whose index is a
    term in j plus a term in c (:func:`_difference_codes`), batched over
    elements and labels.  U is unitary exactly when its base is (N is
    unitary), the verdict of :func:`shear_grid_laws`; a non-unitary U gets
    five False.  The commutation phase is monomial-only.  If F is not
    unitary, the elements that end with F+ get five False.  W is D(-b, a)
    where F D(-b, a) = D(a, b) F (:func:`_fourier_conjugates`), as it is
    for the true F at every label; elsewhere Y = I stands in, so S_x = D
    S_x fails at every label but 0.
    """
    fac = element_factors(field, elements)
    out = np.zeros((len(elements), len(ACTION_KEYS)), dtype=bool)
    if not len(elements):
        return out
    ring = ring_for(field)
    q, order = field.order, ring.order
    t = field.tables()
    els = (np.arange(q) if labels is None else
           np.array([field.element(x).index for x in labels], dtype=np.int64))
    n = len(els)
    zeros = np.zeros(n, dtype=np.int64)
    # labels (a, 0), then (0, b), then (a, b), for a and b in els
    la = np.concatenate([els, zeros, np.repeat(els, n)])
    lb = np.concatenate([zeros, els, np.tile(els, n)])
    lam = displacement_monomial(field, la, lb)
    f_unitary, conj = True, lam
    if fac.fourier.any():
        f_unitary, conj = _fourier_conjugates(field, la, lb)
    # member [0] is Lambda, member [1] is W, for every label
    lams = Monomial(ring, np.stack([lam.perm, conj.perm]), np.stack([lam.phase, conj.phase]))

    bases, base_of = np.unique(fac.shear, return_inverse=True)
    unitary = shear_grid_laws(field, [], [], bases)[1][base_of] & (f_unitary | ~fac.fourier)
    codes = _rotation_codes(ring, [_shear_row(field, int(x))[0] for x in bases])
    cx, cy, at_diff = _difference_codes(field)
    width = len(at_diff)
    flat = codes[:, :, at_diff].reshape(-1)  # codes[b, k, x - y] at (b 2N + k) width + cx + cy
    diff = _differences(field, np.arange(q)[:, None], np.arange(q))

    alpha, beta = label_images(field, elements.T[:, :, None], la, lb)
    shift = t.trace[t.mul[els[:, None], els]] % field.p * (order // field.p)
    # O(G L q) arrays per outer block (about four alive at once), the
    # O(G L q^2) gather per inner block
    for sl in label_blocks(len(elements), 4 * len(la) * q):
        d = displacement_monomial(field, alpha[sl], beta[sl])
        m = fac.monomial[sl, None]
        y = m @ lams[fac.fourier[sl].astype(np.intp)] @ m.adjoint()
        # flat index of codes[b, N + phi_Y(c) - phi_D(j), pi_D(j) - pi_Y(c)],
        # the sum of a term in j and a term in c
        by_j = cx[d.perm] - d.phase * width
        by_c = (base_of[sl][:, None, None] * 2 * order + order + y.phase) * width + cy[y.perm]
        law = np.empty(by_j.shape[:2], dtype=bool)
        for b in label_blocks(len(law), len(la) * q * q):
            rhs = codes[base_of[sl][b], 0][:, diff]
            law[b] = (flat[by_j[b, :, :, None] + by_c[b, :, None, :]]
                      == rhs[:, None]).all(axis=(2, 3))
        # D(g(a, 0)) and D(g(0, b)) keep the Weyl commutation phase
        z, x = d[:, :n, None], d[:, None, n:2 * n]
        comm = (z @ x).matches((x @ z).scaled_by_root(shift)).all(axis=(1, 2))
        verdict = np.stack([law[:, :n].all(1), law[:, n:2 * n].all(1),
                            law[:, 2 * n:].all(1), comm], axis=1)
        out[sl, 0] = unitary[sl]
        out[sl, 1:] = verdict & unitary[sl, None]
    return out


def action_check(field: GFField, row, labels=None) -> dict:
    """The defining conjugation action of the synthesised unitary of one row
    (r, s, t, u), keyed by ACTION_KEYS: S Z^a S+ = D(u a, t a), S X^b S+ =
    D(s b, r b) and S D(a, b) S+ = D(g(a, b)) for every label value, and
    the preserved commutation phase of the transformed pair; the
    one-element :func:`action_sweep`."""
    return dict(zip(ACTION_KEYS, action_sweep(field, np.asarray(row)[None], labels)[0].tolist()))


def _closed_form_parts(field: GFField, elements):
    """(a, b) per element: a the field index of the Gauss-sum multiplier A,
    b the (G, q, q) root exponents of Tr B(n, m)."""
    if field.p == 2:
        raise EvenCharacteristic("closed form needs odd characteristic")
    tb = field.tables()
    r, s, t, _ = elements.T
    w = tb.add[tb.mul[s, t], 1]
    if not ((r != 0) & (t != 0) & (w != 0)).all():
        raise DomainRestriction("closed form needs r != 0, t != 0 and 1 + s*t != 0")
    rt = tb.mul[r, t]
    a = tb.neg[tb.mul[field.two_inverse, tb.mul[tb.inv[w], rt]]]
    coef, r, w = (x[:, None, None] for x in (tb.inv[tb.add[rt, rt]], r, w))
    n, m = np.arange(field.order)[:, None], np.arange(field.order)
    # B(n, m) = coef (w n^2 + r^2 m^2 - 2 r n m), one gather per term
    b_idx = tb.mul[coef, tb.add[tb.add[tb.mul[w, tb.mul[n, n]],
                                       tb.mul[tb.mul[r, r], tb.mul[m, m]]],
                                tb.neg[tb.mul[tb.add[r, r], tb.mul[n, m]]]]]
    return a, tb.trace[b_idx] * (ring_for(field).order // field.p)


def closed_form_matrix(field: GFField, row) -> OperatorMatrix:
    """Gauss-sum closed form for the matrix elements of the generic element
    at one row (r, s, t, u).

    [S](n, m) = p^-ell G(A) omega^(Tr B) with A = -2^-1 (1+s t)^-1 r t and
    B = (2 r t)^-1 ((1+s t) n^2 - 2 n m r + m^2 r^2).  Requires r, t != 0
    and 1 + s t != 0 (the expression divides by all three).
    """
    a, b = _closed_form_parts(field, np.asarray(row)[None])
    ring, q = ring_for(field), field.order
    scale = gauss_sum(field, int(a[0])) * ring.rational(1, q)
    data, e, den = ring.pack(((scale,),))
    return OperatorMatrix.from_packed(ring, ring.root_sum(
        data[0, 0], b[0], np.arange(q * q).reshape(q, q), (q, q), e, den))


def closed_form_sweep(field: GFField, elements) -> list[dict]:
    """The :func:`closed_form_elements_check` result of every element.

    In the generic chart U(n, m) = g(n - perm m) zeta^phase(m), g the
    convolution row of S_x (:func:`element_factors`), and the closed form is
    scale zeta^B(n, m), so they are proportional exactly when the
    root-rotation code of g(n - perm m) by phase(m) - B(n, m) is constant:
    one gather per element, O(G q^2) memory.  The phase U(0, 0)
    zeta^-B(0, 0) / scale must have modulus 1."""
    a, b = _closed_form_parts(field, elements)
    if not len(elements):
        return []
    ring, q = ring_for(field), field.order
    fac = element_factors(field, elements)
    bases, base_of = np.unique(fac.shear, return_inverse=True)
    rows = [_shear_row(field, int(x)) for x in bases]
    perm, phase = fac.monomial.perm, fac.monomial.phase
    rot = (phase[:, None, :] - b) % ring.order
    at = _differences(field, np.arange(q)[:, None], perm[:, None, :])  # n - perm m
    codes = _rotation_codes(ring, [g for g, _, _ in rows])[base_of[:, None, None], rot, at]
    constant = (codes == codes[:, :1, :1]).all(axis=(1, 2))
    inv_scale, out = {}, []
    for k, x in enumerate(a.tolist()):
        if x not in inv_scale:
            scale = gauss_sum(field, x) * ring.rational(1, q)
            inv_scale[x] = scale.inverse() if scale else ring.zero
        data, e, den = rows[base_of[k]]
        # S_x(0, perm 0) = g(-perm 0)
        entry = ring.unpack((data[None, field.tables().neg[perm[k, :1]]], e, den))[0][0]
        phase = entry.times_root(int(rot[k, 0, 0])) * inv_scale[x]
        if not constant[k] or phase * phase.conj() != ring.one:
            phase = None
        out.append({"proportional": phase is not None, "phase": phase,
                    "phase_is_one": phase == ring.one})
    return out


def closed_form_elements_check(field: GFField, row) -> dict:
    """Compare the synthesised unitary against the Gauss-sum closed form.

    Equality is asserted up to one global unit-modulus phase, which is
    extracted exactly and reported; the one-element :func:`closed_form_sweep`.
    """
    return closed_form_sweep(field, np.asarray(row)[None])[0]


def frobenius_action_check(field: GFField, row, subfield_d: int | None = None) -> dict:
    """Frobenius covariance of the synthesised unitary of one row (r, s, t, u).

    Conjugating S by the k-th Frobenius power matches the unitary built
    from the Frobenius-mapped parameters (the row gathered k times from the
    ``frob`` table), up to a reported global phase (hence they induce the
    same conjugation action).  When all parameters lie in GF(p^d), the d-th
    power fixes the operator the same way.
    """
    from .frobenius import frobenius_monomial
    g = frobenius_monomial(field)
    s_op = synthesize(field, row)
    phases = []
    ok = True
    mapped = np.asarray(row)
    for k in range(field.ell):
        conj_op = conjugate(g ** k, s_op)
        phase = proportionality_phase(conj_op, synthesize(field, mapped))
        phases.append(phase)
        if phase is None:
            ok = False
        mapped = field.tables().frob[mapped]
    result = {"covariant": ok, "phases": phases}
    if subfield_d is not None:
        d = subfield_d
        for x in row:
            field.require_in_subfield(
                x, d, "parameters are not all in the requested subfield")
        conj_op = conjugate(g ** d, s_op)
        phase = proportionality_phase(conj_op, s_op)
        result["subfield_fixed"] = phase is not None
        result["subfield_phase"] = phase
    return result


def label_images(field: GFField, row, alpha, beta):
    """The labels g(a, b) = (u a + s b, t a + r b) under g = (r, s, t, u),
    for index arrays (or ints) of labels; the four entries of ``row``
    broadcast against them."""
    t = field.tables()
    r, s, tt, u = row
    return (t.add[t.mul[u, alpha], t.mul[s, beta]], t.add[t.mul[tt, alpha], t.mul[r, beta]])


def transformed_marginals(field: GFField, row, grid) -> dict:
    """Marginal identities transported to a rotated phase-space frame, for
    the element at one row (r, s, t, u).

    The primed displacements D'(a, b) = S D(a, b) S+ are displacements at
    the transformed labels, so the 2q primed sums of :func:`marginal_labels`
    are line sums over their :func:`label_images`, each compared with the
    plain sum's right-hand side conjugated by S, |S x><S y|:
    :func:`marginals_in_frame` with the frame S, on the pair ``grid`` of
    :func:`grid_certificate` (every line fails where it is not certified).
    ``witness`` is None or the first failing (sum, label): ("alpha_sums",
    beta) or ("beta_sums", alpha), as field indices.
    """
    q = field.order
    alpha, beta = label_images(field, row, *marginal_labels(field))
    ok = marginals_in_frame(field, alpha, beta, synthesize(field, row), grid)
    bad = np.flatnonzero(~ok)
    return {"alpha_sums": bool(ok[:q].all()), "beta_sums": bool(ok[q:].all()),
            "witness": (("alpha_sums", "beta_sums")[bad[0] // q], int(bad[0] % q))
            if len(bad) else None}


def shear_grid_laws(field: GFField, xs, ys, units) -> tuple:
    """(additive, unitary): whether S_x(x) S_x(y) = S_x(x + y), one bool
    per pair (xs[i], ys[i]) of field indices, and whether S_x(u)
    S_x(u)^dagger is the identity, one bool per u in units.

    Each law is one batch of exact products compared block by block with
    its targets.  Every factor and target is a convolution: the stack of
    the distinct shear rows in one normal form, their adjoints' rows
    conj g(-d), or the identity's row, gathered at n - m per block.  The
    product expands its right factors by the ring degree, so a batch runs
    in blocks of about LABEL_BLOCK_ENTRIES of those entries (one product
    per block at q = 49).
    """
    ring, q, t = ring_for(field), field.order, field.tables()
    deg = ring.degree
    xs, ys, units = (np.asarray(v, dtype=np.int64) for v in (xs, ys, units))
    if not (len(xs) or len(units)):
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    distinct, at = np.unique(np.concatenate([xs, ys, t.add[xs, ys], units]), return_inverse=True)
    at_x, at_y, at_sum, at_unit = np.split(at, np.cumsum([len(xs)] * 3))
    data, e, den = ring.stack([_shear_row(field, int(x)) for x in distinct])
    rows = data.reshape(len(distinct), q, deg)
    adjoints = ring.conj_coeffs(rows)[:, t.neg]
    ident = np.zeros((1, q, deg), dtype=np.int8)
    ident[0, 0, 0] = 1
    k = np.arange(q)
    diff = _differences(field, k[:, None], k)

    def holds(left, right, target, te, tden):
        # each a (row stack, member indices) pair, one member per product
        out = np.empty(len(left[1]), dtype=bool)
        for s in label_blocks(len(out), q * q * deg * deg):
            a, b, c = (stack[members[s]][:, diff] for stack, members in (left, right, target))
            prod, pe, pden = ring.matmul((a, e, den), (b, e, den))
            out[s] = blocks_equal(ring, [(prod.reshape(-1, q, deg), pe, pden),
                                         (c.reshape(-1, q, deg), te, tden)], len(prod))
        return out
    return (holds((rows, at_x), (rows, at_y), (rows, at_sum), e, den),
            holds((rows, at_unit), (adjoints, at_unit), (ident, np.zeros_like(at_unit)), 0, 1))


GF9_DIAG_IMAGE_FACTORS = ((1, 1), (0, 2))  # tensor factor labels of D(2e, 1+2e)


def _factor_labels(field: GFField, alpha, beta) -> tuple:
    # factor l of D(alpha, beta) is labelled by the l-th dual component of
    # alpha and the l-th standard component of beta
    return tuple(zip(field.components(alpha)[1], field.element(beta).coeffs))


def non_factorization_witness(field: GFField) -> dict:
    """The pinned GF(9) chain showing the example unitary is not a tensor
    product of two single-component operators.

    The example element (r, s, t) = (1, 1+e, e) maps the shift labelled by
    the generator into a displacement both of whose tensor factors are
    non-identity; a pure tensor conjugation would have to keep the factor
    it meets as the identity, so no factorisation exists.  The chain also
    records the conjugate of the diagonal operator labelled by the
    generator, whose image is the displacement at (2e, 1+2e); its factor
    labels come from the field's components (D(1,1) and D(0,2),
    ``GF9_DIAG_IMAGE_FACTORS``), and ``diag_image_split`` checks that the
    factors of :func:`tensor_factorize_displacement` rebuild it.
    """
    require_gf9_fixture(field)
    ring = ring_for(field)
    eps = field.generator.index
    row = element_row(field, 1, field.add_index(1, eps), eps)
    s_op = synthesize(field, row)

    x_eps = x_monomial(field, eps)
    x_fact = x_eps == Monomial.identity(ring, 3).tensor(
        component_displacement_monomial(field, 0, 1))

    # image of the shift under the action: label (0, eps) -> (s eps, r eps)
    img_x = [field.element(int(x)) for x in label_images(field, row, 0, eps)]
    x_img_ok = conjugate(s_op, x_eps).equals(displacement(field, *img_x))
    x_img_factors = _factor_labels(field, *img_x)

    # image of the diagonal operator: label (eps, 0) -> (u eps, t eps)
    img_z = [field.element(int(x)) for x in label_images(field, row, eps, 0)]
    d_img = displacement(field, *img_z)
    pinned = [field.element(x).index for x in ([0, 2], [1, 2])]
    z_img_ok = ([z.index for z in img_z] == pinned
                and conjugate(s_op, z_monomial(field, eps)).equals(d_img))
    z_split = d_img.equals(tensor_list(tensor_factorize_displacement(field, *img_z)))

    return {
        "x_eps_is_identity_tensor_shift": x_fact,
        "x_image_label": (str(img_x[0]), str(img_x[1])),
        "x_image_matches": x_img_ok,
        "x_image_factors": x_img_factors,
        "diag_image_matches": z_img_ok,
        "diag_image_split": z_split,
        "diag_image_factor_pair": _factor_labels(field, *img_z),
        "not_tensor_product": x_fact and x_img_ok and x_img_factors[0] != (0, 0),
    }

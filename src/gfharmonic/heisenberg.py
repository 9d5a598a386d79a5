"""Displacement operators over GF(p^ell), odd characteristic.

Z^alpha is the diagonal phase operator with character exponents Tr(alpha m),
X^beta the shift by beta, and D(alpha, beta) their symmetrised product with
the half-trace phase (the field inverse of 2; undefined for p = 2).  All
three are monomial: :func:`displacement_monomial` gives D for one label,
or for an array of labels the family of them (a ``Monomial`` with leading
axes) in one gather, with a subfield degree d the same on the GF(p^d)
block (D_d, with the subfield trace), and :func:`label_sum` is one
``CycloRing.root_sum`` of zeta^phase into the slots the permutations name.
:func:`grid_certificate` builds D for all q^2 labels, one block of one
entry budget at a time (:func:`label_blocks`), and checks that every
D(a, b) is omega^c Z^a X^b: it moves m to m + b with the phase offset
Tr(a m), so the labels carry only their q^2 phase constants, which it
returns; no q^3 array of all labels is held.  In that form the
composition law, adjoint, Fourier covariance, trace orthogonality and the
two Frobenius label laws are :func:`label_laws`, one relation each on
those constants and the field tables, and the Weyl expansion and
reconstruction, the resolution of the identity and the overcomplete
expansion are Fourier transforms over the field: exact products with the
character table R[a, m] = omega^Tr(a m), plus gathers and entrywise
products, that read the field tables and F, not the displacements.  The
marginal identities, plain or in a symplectic frame, are one integer
relation per line of labels on those constants and the frame's columns
(:func:`marginals_in_frame`), with no line sum built.
So all these checks hold only where the certificate does.
The Weyl table of an operator Theta is one more ``OperatorMatrix``: row
alpha, column beta holds tr(Theta D(alpha, beta)).

Note on the marginal sums: summing D(alpha, beta) over one label yields the
conjugate-basis point projector composed with the parity operator (the
square of the Fourier matrix).  The parity factor is forced by the entry
formula; for beta = 0 it drops out.
"""

from __future__ import annotations

import numpy as np

from . import frobenius as fb
from .errors import (DimensionMismatch, EvenCharacteristic, NotInSubfield,
                     WrongFixture, ZeroTrace)
from .fourier import fourier_matrix
from .gf import GFField
from .hilbert import ring_for
from .linalg import (Monomial, OperatorMatrix, StateVector, blocks_equal,
                     inner_product, root_matrix)


def _require_odd(field: GFField):
    if field.p == 2:
        raise EvenCharacteristic(
            "displacement phases need the inverse of 2; characteristic 2 is unsupported")


def z_monomial(field: GFField, alpha) -> Monomial:
    t = field.tables()
    return Monomial.diagonal_omega(ring_for(field), t.trace[t.mul[field.element(alpha).index]])


def z_power(field: GFField, alpha) -> OperatorMatrix:
    """Diagonal operator with entries omega^(Tr(alpha m))."""
    return z_monomial(field, alpha).to_matrix()


def x_monomial(field: GFField, beta) -> Monomial:
    return Monomial.permutation(ring_for(field), field.tables().add[field.element(beta).index])


def x_power(field: GFField, beta) -> OperatorMatrix:
    """Shift operator: column m maps to row m + beta."""
    return x_monomial(field, beta).to_matrix()


def displacement_monomial(field: GFField, alpha, beta, phase_coeff: int | None = None,
                          d: int | None = None) -> Monomial:
    """D(alpha, beta) for two labels, or the family of them for two index
    arrays of labels.

    D(alpha, beta) has entry omega^(Tr(c*alpha*beta + alpha*m)) at
    (m + beta, m), c = inverse of 2 in Z_p.  A family has the leading shape
    of alpha and beta broadcast, each member's perm and phase rows of the
    field's index arrays, gathered once per label.  With a subfield degree
    d, it is D_d of GF(p^d) on its p^d block, for labels in the subfield:
    the same entries with the subfield trace Tr_d, block position k
    standing for the field index ``field.subfield_indices(d)[k]``.
    ``phase_coeff`` overrides c and exists only so verification suites can
    prove they detect a wrong phase.
    """
    _require_odd(field)
    t, ring = field.tables(), ring_for(field)
    alpha, beta = field.indices(alpha), field.indices(beta)
    c = field.two_inverse if phase_coeff is None else phase_coeff % field.p
    if d is None:
        tr, perm, lin = t.trace, t.add[beta], t.mul[alpha]
    else:
        sub = np.asarray(field.subfield_indices(d))
        pos = np.full(field.order, -1)
        pos[sub] = np.arange(len(sub))
        alpha, beta = np.asarray(alpha), np.asarray(beta)
        if (pos[alpha] < 0).any() or (pos[beta] < 0).any():
            raise NotInSubfield(f"labels are not all in GF({field.p}^{d})")
        tr, perm = field.subfield_traces(d), pos[t.add[beta[..., None], sub]]
        lin = t.mul[alpha[..., None], sub]
    base = tr[t.mul[c, t.mul[alpha, beta]]]
    return Monomial(ring, perm, (tr[lin] + base[..., None]) % field.p * (ring.order // field.p))


def displacement(field: GFField, alpha, beta, d: int | None = None) -> OperatorMatrix:
    """The displacement operator D(alpha, beta), or D_d on the GF(p^d)
    block for a subfield degree d, as a dense exact matrix."""
    return displacement_monomial(field, alpha, beta, d=d).to_matrix()


def parity_monomial(field: GFField) -> Monomial:
    """The parity permutation m -> -m (equals the Fourier matrix squared)."""
    return Monomial.permutation(ring_for(field), field.tables().neg)


def component_displacement_monomial(field: GFField, a: int, b: int) -> Monomial:
    """p-dimensional displacement on a component space, labels in Z_p."""
    _require_odd(field)
    ring, p, m = ring_for(field), field.p, np.arange(field.p)
    phase = (field.two_inverse * a * b + a * m) % p * (ring.order // p)
    return Monomial(ring, (m + b) % p, phase)


def tensor_factorize_displacement(field: GFField, alpha, beta) -> list[OperatorMatrix]:
    """Component factors whose tensor product (component 0 least significant)
    reconstructs D(alpha, beta).

    The factor at position l is the p-dimensional displacement labelled by
    the l-th dual component of alpha and the l-th standard component of
    beta.
    """
    _require_odd(field)
    _, dual_a = field.components(alpha)
    std_b = field.element(beta).coeffs
    return [component_displacement_monomial(field, a, b).to_matrix()
            for a, b in zip(dual_a, std_b)]


# entries per block of a label sum or check and of the symplectic
# action sweep: each block's largest temporary holds about this many
LABEL_BLOCK_ENTRIES = 1 << 13


def label_blocks(count: int, width: int):
    """Slices covering range(count), LABEL_BLOCK_ENTRIES // width rows each,
    ``width`` being the per-row size of the caller's largest temporary."""
    step = max(1, LABEL_BLOCK_ENTRIES // width)
    return (slice(i, i + step) for i in range(0, count, step))


def grid_certificate(field: GFField, phase_coeff: int | None = None):
    """Build D(a, b) for every label, one :func:`label_blocks` block of
    labels l = a * q + b per :func:`displacement_monomial` gather, and check
    that each moves m to m + b (perm == add[b]) with a phase offset
    Tr(a m) N / p from its entry 0 (phase[m] - phase[0], mod N).

    Returns (certificate, C): the certificate is None, or the first failing
    (a, b, m) as field indices; C[a, b] is the phase of entry 0 of D(a, b),
    a (q, q) array, which on a certified label is D's phase constant.  The
    constants are free, so a wrong half-trace coefficient keeps the
    certificate.  No block outlives its check: the peak is one block plus
    the q^2 offsets and constants."""
    q, t = field.order, field.tables()
    n = ring_for(field).order
    offset = t.trace[t.mul] * (n // field.p)  # offset[a, m] = Tr(a m) N / p
    c, cert = np.empty(q * q, dtype=np.int64), None
    for s in label_blocks(q * q, q):
        a, b = np.divmod(np.arange(q * q)[s], q)
        block = displacement_monomial(field, a, b, phase_coeff)
        phase = block.phase
        c[s] = phase[:, 0]
        bad = (block.perm != t.add[b]) | ((phase - phase[:, :1] - offset[a]) % n != 0)
        if cert is None and bad.any():
            row, m = np.argwhere(bad)[0]
            cert = int(a[row]), int(b[row]), int(m)
    return cert, c.reshape(q, q)


def label_laws(field: GFField, c) -> dict:
    """The label laws of certified displacements, each one relation on the
    (q, q) phase constants C of :func:`grid_certificate` and the field
    tables: {law: bool}, and "premise", None or the first table entry where
    a digit premise fails, which fails the first four laws.

    On a certified label D(a, b) = zeta^C X^b Z^a, Z^a = omega^Tr(a m) on
    the diagonal and X^b the shift by b, and Z^a X^b = omega^Tr(a b) X^b Z^a.
    With s = N / p, c = 1/2 in Z_p and tr[x, y] = Tr(x y), all mod N:
    - D(l1) D(l2) = omega^(c Tr(a1 b2) - c Tr(b1 a2)) D(l1 + l2) for all q^4
      pairs exactly when phi = C - s Tr(c a b) is additive on labels: phi =
      sum_k a_k phi(eps^k, 0) + b_k phi(0, eps^k) over the base-p digits,
      with p phi(eps^k, 0) = p phi(0, eps^k) = 0;
    - D(a, b)+ = D(-a, -b) exactly when C[-a, -b] = s Tr(a b) - C[a, b];
    - F D(a, b) = D(b, -a) F, F's root exponents s Tr(n m), exactly when
      C[a, b] = C[b, -a] + s Tr(a b);
    - both read -a from ``neg``, so both also need add[x, neg[x]] = 0;
    - tr(D(l1)+ D(l2)) = q [l1 == l2]: 0 when b1 != b2, else zeta^(C2 - C1)
      sum_m omega^Tr((a2 - a1) m), so exactly when the q character sums
      sum_m omega^Tr(x m) are q [x == 0]: one root sum of q^2 terms.
    These four rest on two premises, checked here on the tables: ``add`` is
    the digit-wise sum mod p, and Tr(x y) is bilinear in the digits.
    The Frobenius laws read G, the permutation m -> f m, and need neither:
    - G^k D(a, b) = D(f^k a, f^k b) G^k for every k < ell exactly when
      ell = 1 (only G^0 is checked) or, for k = 1, f[b + m] = f b + f m,
      delta(a, m) = tr[f a, f m] - tr[a, m] mod p is constant in m, and
      C[a, b] - C[f a, f b] = s delta(a, 0); k >= 2 follows by induction;
    - for each d | ell and h = d mod ell, G^h D(a, b) = D(a, b) G^h on the
      labels of GF(p^d) exactly when f^h[b + m] = b + f^h m and tr[a, m] =
      tr[a, f^h m]: C cancels.
    """
    q, p, t, ring = field.order, field.p, field.tables(), ring_for(field)
    n, idx = ring.order, np.arange(q)
    s, basis = n // p, p ** np.arange(field.ell)
    digits = idx[:, None] // basis % p
    tr = t.trace[t.mul]
    premises = (("add", t.add != (digits[:, None] + digits) % p @ basis),
                ("trace_form", tr != digits @ tr[np.ix_(basis, basis)] @ digits.T % p))
    premise = next((f"{name}{np.argwhere(bad)[0].tolist()}" for name, bad in premises
                    if bad.any()), None)
    phi = (c - field.two_inverse * tr % p * s) % n
    gens = phi[basis, 0], phi[0, basis]
    linear = (digits @ gens[0])[:, None] + digits @ gens[1]
    unit = ring.root_coeffs()[0]
    sums, _, _ = ring.root_sum(unit, s * tr, np.broadcast_to(idx[:, None], (q, q)), (q,))
    inverse = not t.add[idx, t.neg].any()
    laws = {"composition_law": not ((phi - linear) % n).any()
            and not (p * np.concatenate(gens) % n).any(),
            "adjoint_negates_label": inverse
            and not ((c[np.ix_(t.neg, t.neg)] + c - s * tr) % n).any(),
            "fourier_maps_labels": inverse and not ((c - c[idx, t.neg[:, None]] - s * tr) % n).any(),
            "orthogonality_under_trace": np.array_equal(
                sums, np.where((idx == 0)[:, None], q * unit, 0))}
    g = fb.frobenius_monomial(field)
    f = g.perm
    delta = (tr[np.ix_(f, f)] - tr) % p
    fixed = True
    for d in field.divisors():
        sub, fh = np.asarray(field.subfield_indices(d)), (g ** (d % field.ell)).perm
        fixed = (fixed and np.array_equal(fh[t.add[sub]], t.add[sub][:, fh])
                 and np.array_equal(tr[sub], tr[sub][:, fh]))
    return {law: ok and premise is None for law, ok in laws.items()} | {
        "frobenius_maps_labels": field.ell == 1 or (
            np.array_equal(f[t.add], t.add[np.ix_(f, f)]) and not (delta - delta[:, :1]).any()
            and not ((c - c[np.ix_(f, f)] - s * delta[:, :1]) % n).any()),
        "subfield_labels_fixed_by_frobenius": fixed, "premise": premise}


def fourier_intertwines(exps, family: Monomial, image: Monomial) -> np.ndarray:
    """Per member of two ``Monomial`` families of one leading shape and
    dimension s, whether R M = T R, M the member of ``family``, T that of
    ``image`` and R = p^(-k/2) zeta^exps for an (s, s) array of root
    exponents: a bool array over the leading axes.

    Every entry of either side is p^(-k/2) times a unit: (R M)(i, m) =
    R(i, perm_M m) zeta^phase_M(m), and (T R)(i, m) = zeta^phase_T(j)
    R(j, m) with perm_T(j) = i, so the law is one comparison of root
    exponents mod N.  For a unitary R it reads R M R+ = T, as F_d M F_d+ = T
    on a subfield block.
    """
    exps = np.asarray(exps)
    inv = image.adjoint()  # row i: perm_T^-1 i, with the negated phase there
    lhs = (exps[np.arange(len(exps))[:, None], family.perm[..., None, :]]
           + family.phase[..., None, :])
    return ~((lhs + inv.phase[..., :, None] - exps[inv.perm]) % family.ring.order).any(
        axis=(-2, -1))


def label_sum(field: GFField, alpha, beta, weights=None) -> OperatorMatrix:
    """p^-ell sum over l of w_l D(alpha[l], beta[l]), for index arrays of
    labels, as a dense exact matrix: one root sum of the weights (a packed
    triple, one entry per label; None for ones) into the entries (perm_l[m],
    m), zeta^phase_l[m] each, at scale exponent + 2 ell."""
    ring, q = ring_for(field), field.order
    family = displacement_monomial(field, alpha, beta)
    data, e, den = (ring.root_coeffs()[0], 0, 1) if weights is None else weights
    return OperatorMatrix.from_packed(ring, ring.root_sum(
        np.asarray(data).reshape(-1, 1, ring.degree), family.phase,
        family.perm * q + np.arange(q), (q, q), e + 2 * field.ell, den))


def _unscaled(field: GFField, mat: OperatorMatrix):
    """The packed triple of p^(ell/2) mat: on the Fourier matrix F the
    unnormalised character table R[a, m] = omega^Tr(a m), on F+ its adjoint."""
    data, e, den = mat.packed
    return data, e - field.ell, den


def _times(ring, a, b):
    """The entrywise product of two packed triples whose arrays broadcast,
    in normal form: one ``CycloRing.matmul`` of 1 x 1 batch members."""
    (ad, ea, qa), (bd, eb, qb) = a, b
    data, e, den = ring.matmul((ad[..., None, None, :], ea, qa), (bd[..., None, None, :], eb, qb))
    return data[..., 0, 0, :], e, den


def _half_trace_units(field: GFField):
    """Omega[a, b] = omega^Tr(a b / 2) as a packed table of units."""
    t, ring = field.tables(), ring_for(field)
    return root_matrix(ring, t.trace[t.mul[field.two_inverse, t.mul]] * (ring.order // field.p))


def weyl_expand(field: GFField, theta: OperatorMatrix) -> OperatorMatrix:
    """Coefficient table tr(Theta D(alpha, beta)) over all labels, as the
    q x q matrix whose row alpha, column beta holds it (label indices).

    With D = omega^c Z^a X^b as :func:`grid_certificate` states it,
    tr(Theta D(a, b)) = Omega[a, b] sum_m omega^Tr(a m) Theta(m, m + b): the
    table is Omega o (R V), V[m, b] = Theta(m, m + b) gathered once, one
    product with the character table R and one entrywise product.
    """
    _require_odd(field)
    if theta.dim != field.order:
        raise DimensionMismatch("operator dimension does not match the field")
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = theta.packed
    rv = ring.matmul(_unscaled(field, fourier_matrix(field)),
                     (data[np.arange(q)[:, None], t.add], e, den))
    return OperatorMatrix.from_packed(ring, _times(ring, _half_trace_units(field), rv))


def weyl_reconstruct(field: GFField, table: OperatorMatrix) -> OperatorMatrix:
    """Rebuild p^-ell sum_labels D(alpha, beta) W(-alpha, -beta) from the table
    W of :func:`weyl_expand`.  Every term of D(a, b) lands at (m + b, m), so
    Theta(m + b, m) = q^-1 (R W')[m, b] with W'[a, b] = Omega[a, b]
    W(-a, -b): one entrywise product, one product with R at the scale of
    q^-1, and one gather of (m, b) to (m + b, m)."""
    _require_odd(field)
    if table.dim != field.order:
        raise DimensionMismatch("table dimension does not match the field")
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = table.packed
    w = _times(ring, _half_trace_units(field), (data[np.ix_(t.neg, t.neg)], e, den))
    r, re, rq = _unscaled(field, fourier_matrix(field))
    u, e, den = ring.matmul((r, re + 2 * field.ell, rq), w)
    # entry (i, j) is U[j, i - j]
    return OperatorMatrix.from_packed(ring, (u[np.arange(q), t.add[:, t.neg]], e, den))


def resolution_sum(field: GFField, theta: OperatorMatrix):
    """p^-ell sum_labels D Theta D^dagger as a normal-form packed triple, D
    read as :func:`grid_certificate` states it.

    D(a, b) moves entry (i, j) of Theta to (i + b, j + b) times
    omega^(Tr(a i) - Tr(a j)), the phase constant cancelling, so the sum
    over a is M = Theta o K with K = R R+ (a product, not assumed to be
    q 1), and the sum over b is the translation sum T(M)[i, j] =
    sum_b M[i - b, j - b].  That depends on i - j only: it is the diagonal
    sums s(d) = sum_m M[m + d, m], one product of the gathered diagonals
    with a column of ones at the scale of q^-1, gathered at i - j.
    """
    _require_odd(field)
    if theta.dim != field.order:
        raise DimensionMismatch("operator dimension does not match the field")
    q, t, ring = field.order, field.tables(), ring_for(field)
    f = fourier_matrix(field)
    m, e, den = _times(ring, theta.packed, ring.matmul(_unscaled(field, f),
                                                       _unscaled(field, f.adjoint())))
    ones = np.zeros((q, 1, ring.degree), dtype=np.int8)
    ones[:, 0, 0] = 1
    s, e, den = ring.matmul((m[t.add, np.arange(q)], e, den), (ones, 2 * field.ell, 1))
    return s[t.add[:, t.neg], 0], e, den


def resolution_of_identity_check(field: GFField, theta: OperatorMatrix, certificate) -> dict:
    """Check p^-ell sum_labels D Theta D^dagger = tr(Theta) 1, every term
    summed by :func:`resolution_sum`.

    This is the identity for the normalised Theta / tr(Theta) without the
    division; it needs tr(Theta) != 0.  ``certificate`` is the first item
    of :func:`grid_certificate`, None or its witness (a, b, m); the sum
    reads D as the certificate states it, so the check holds only where the
    certificate does.
    """
    total = resolution_sum(field, theta)
    tr = theta.trace()
    if tr.is_zero:
        raise ZeroTrace("resolution of identity needs tr(Theta) != 0")
    want = OperatorMatrix.identity(theta.ring, theta.dim).scaled(tr)
    holds = certificate is None and OperatorMatrix.from_packed(theta.ring, total).equals(want)
    return {"holds": holds, "certificate": certificate}


def overcomplete_sum(field: GFField, psi: StateVector, chi: StateVector):
    """p^-ell sum_labels (D psi, chi) D psi as a normal-form packed triple, D
    read as :func:`grid_certificate` states it.

    The phase constants cancel and D(a, b) psi at n is omega^Tr(a (n - b))
    psi(n - b), so the sum at n is q^-1 sum_m psi(m) U[m, n - m], with
    U = R (R+ V) and V[m, b] = conj psi(m) chi(m + b): one entrywise
    product, two products with the character table, one gather and one
    product with psi.
    """
    _require_odd(field)
    if psi.dim != field.order or chi.dim != field.order:
        raise DimensionMismatch("state dimension does not match the field")
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = psi.packed
    cd, ce, cq = chi.packed
    f = fourier_matrix(field)
    v = _times(ring, (ring.conj_coeffs(data), e, den), (cd[t.add, 0], ce, cq))
    u, ue, uq = ring.matmul(_unscaled(field, f), ring.matmul(_unscaled(field, f.adjoint()), v))
    # row m of the gather is U[m, n - m] over n
    total, e, den = ring.matmul((data.transpose(1, 0, 2), e + 2 * field.ell, den),
                                (u[np.arange(q)[:, None], t.add[t.neg]], ue, uq))
    return total.transpose(1, 0, 2), e, den


def overcomplete_expansion_check(field: GFField, psi: StateVector, chi: StateVector,
                                 certificate) -> dict:
    """Expand chi over the p^(2 ell) displaced copies of a unit vector psi:
    chi = p^-ell sum_labels (D psi, chi) D psi exactly, the sum by
    :func:`overcomplete_sum`; requires (psi, psi) = 1.  As for
    :func:`resolution_of_identity_check`, the check holds only where the
    ``certificate`` does."""
    _require_odd(field)
    if inner_product(psi, psi) != ring_for(field).one:
        raise ZeroTrace("expansion vector must be normalised")
    total = StateVector.from_packed(psi.ring, overcomplete_sum(field, psi, chi))
    return {"holds": certificate is None and total.equals(chi), "certificate": certificate}


def marginal_sum_alpha(field: GFField, beta) -> OperatorMatrix:
    """p^-ell sum over alpha of D(alpha, beta), as a dense exact matrix."""
    q = field.order
    return label_sum(field, np.arange(q), np.full(q, field.element(beta).index))


def marginal_sum_beta(field: GFField, alpha) -> OperatorMatrix:
    """p^-ell sum over beta of D(alpha, beta), as a dense exact matrix."""
    q = field.order
    return label_sum(field, np.full(q, field.element(alpha).index), np.arange(q))


def marginal_labels(field: GFField):
    """Labels (alpha, beta) of the 2q marginal sums, as two (2q, q) index
    arrays: row b < q sums over alpha at beta = b, row q + a sums over
    beta at alpha = a."""
    idx = np.arange(field.order)
    fixed, free = np.broadcast_arrays(idx[:, None], idx)
    return np.concatenate([free, fixed]), np.concatenate([fixed, free])


def marginals_in_frame(field: GFField, alpha, beta, frame: OperatorMatrix | None,
                       grid) -> np.ndarray:
    """Whether each line sum p^-ell sum_l D(alpha[r, l], beta[r, l]), r a row
    of (2q, q) index arrays of labels, equals its rank-one target |x><y| in the
    frame U, a unitary (None: the identity): a (2q,) bool array, all False
    unless ``grid``, the pair of :func:`grid_certificate`, is certified.

    Row b < q targets x = U e_k, y = U e_-k with k = b/2, row q + a targets x =
    U F e_k, y = U F+ e_k with k = a/2: the marginal identities on
    :func:`marginal_labels` and U = 1, conjugated by S on their images under an
    element with unitary S.  No sum is built, as D(a, b) e_m = zeta^(C[a, b] +
    f[a, m]) e_(m + b), f = s Tr(a m).  A line whose beta takes each value once
    has the unit q^-1 zeta^Phi[d, j] at (d + j, j), Phi[d, j] = C[a_d, d] +
    f[a_d, j], a_d its alpha at beta = d; it holds exactly when Phi is additive
    in (i, j) mod N, x[0] conj y[0] is the unit at (0, 0), and x and y are x[0]
    and y[0] rotated by Phi's first column and row.  A line with beta = d and
    alpha each value once has q^-1 (R^T Z)[m, d] at (m + d, m), R = zeta^f and
    Z = zeta^C; it holds exactly when x[m + d] conj y[m] is that column and
    x[i] conj y[j] vanishes off i - j = d.  Any other line fails.
    """
    ring, q, t = ring_for(field), field.order, field.tables()
    n, idx, k = ring.order, np.arange(q), t.mul[field.two_inverse, np.arange(q)]
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    free = np.flatnonzero((np.sort(beta, axis=1) == idx).all(axis=1))
    diagonal = np.flatnonzero((beta == beta[:, :1]).all(axis=1)
                              & (np.sort(alpha, axis=1) == idx).all(axis=1))
    ok = np.zeros(len(alpha), dtype=bool)
    c, f = grid[1], t.trace[t.mul] * (n // field.p)
    if len(diagonal):  # before the frames' columns, which would add to its peak
        rz, *rz_scale = ring.matmul(root_matrix(ring, f.T), root_matrix(ring, c, 2 * field.ell))
    ft = fourier_matrix(field)
    one, fwd, back = ([OperatorMatrix.identity(ring, q), ft, ft.adjoint()] if frame is None
                      else [frame, frame @ ft, frame @ ft.adjoint()])
    # row r: the columns x and y of line r's target
    (xd, *xs), (yd, *ys) = (ring.stack([(m.packed[0].transpose(1, 0, 2)[at], *m.packed[1:])
                                        for m, at in pairs])
                            for pairs in (((one, k), (fwd, k)), ((one, t.neg[k]), (back, k))))
    a_d = alpha[free[:, None], np.argsort(beta[free], axis=1)]
    for s in label_blocks(len(free), q * q):
        r, lines, top = free[s], np.arange(len(free[s])), c[a_d[s, :1], 0]
        phi = c[a_d[s], idx][:, :, None] + f[a_d[s]]
        col, row = phi[:, :, 0], phi[:, t.neg, idx]
        # [e, l]: the first entry of line l's column times zeta^e
        rx, ry = (ring.times_roots(np.broadcast_to(v[r, 0], (n, len(r), ring.degree)),
                                   row_roots=np.arange(n)) for v in (xd, yd))
        ok[r] = (blocks_equal(ring, [
            _times(ring, (xd[r, :1], *xs), (ring.conj_coeffs(yd[r, :1]), *ys)),
            root_matrix(ring, top, 2 * field.ell)], len(r))
            & ~((phi - col[:, t.add] - row[:, None] + top[:, :, None]) % n).any(axis=(1, 2))
            & (rx[(col - top) % n, lines[:, None]] == xd[r]).all(axis=(1, 2))
            & (ry[(top - row) % n, lines[:, None]] == yd[r]).all(axis=(1, 2)))
    if len(diagonal):
        d, lines = beta[diagonal, 0], np.arange(len(diagonal))
        nx, ny = (xd[diagonal] != 0).any(axis=2), (yd[diagonal] != 0).any(axis=2)
        # x conj y vanishes off i - j = d, so off the first m with y[m] != 0
        on, m = nx[lines[:, None], t.add[d]] & ny, ny.argmax(axis=1)
        ok[diagonal] = ((nx.sum(axis=1) * ny.sum(axis=1) == on.sum(axis=1))
                        & ((rz[:, d] != 0).any(axis=2).T == on).all(axis=1)
                        & blocks_equal(ring, [
                            _times(ring, (xd[diagonal, t.add[d, m], None], *xs),
                                   (ring.conj_coeffs(yd[diagonal, m, None]), *ys)),
                            (rz[m, d, None], *rz_scale)], len(diagonal)))
    return ok & (grid[0] is None)


def marginal_projectors(field: GFField, grid) -> dict:
    """Both marginal identities, for every label value: the alpha sum at
    beta = b is |b/2><-b/2|, parity times a point projector, and the beta
    sum at alpha = a is |F e_k><F+ e_k|, k = a/2, its Fourier conjugate: the
    identity frame of :func:`marginals_in_frame`, on the pair ``grid`` of
    :func:`grid_certificate`."""
    _require_odd(field)
    q = field.order
    ok = marginals_in_frame(field, *marginal_labels(field), None, grid)
    return {"alpha_sums": bool(ok[:q].all()), "beta_sums": bool(ok[q:].all())}


def subfield_fourier_intertwining_check(field: GFField, d: int) -> dict:
    """Subfield Fourier conjugation of the subfield displacement generators,
    on the GF(p^d) block, for every subfield label.

    For each subfield label a: F_d Z_d^a F_d+ = X_d^(-a) and
    F_d X_d^a F_d+ = Z_d^a; also the Weyl braiding Z_d^a X_d^b = X_d^b
    Z_d^a omega^(subfield-trace of a b) over all label pairs, one
    :func:`label_blocks` block of first labels a at a time.
    F_d(i, j) = p^(-d/2) zeta^f[i, j] on the block, f[i] the phases of
    Z_d^(sub i).  F_d is unitary on its block (the Fourier suite's
    ``subfield_unitary`` item), so each law F_d M F_d+ = T reads F_d M =
    T F_d: :func:`fourier_intertwines` per block of labels."""
    sub = np.asarray(field.subfield_indices(d))
    s, zero = len(sub), np.zeros_like(sub)
    z = displacement_monomial(field, sub, zero, d=d)
    x = displacement_monomial(field, zero, sub, d=d)
    minus = displacement_monomial(field, zero, field.tables().neg[sub], d=d)
    blocks = list(label_blocks(s, s * s))

    def conjugates_to(mono, target):
        return all(fourier_intertwines(z.phase, mono[b], target[b]).all() for b in blocks)

    # Z_d^a X_d^b for the pairs (a, b), row a and column b; the phase of
    # Z_d^a at the block position of b is that of omega^Tr_d(a b)
    braiding = all((z[b, None] @ x[None]).matches((x[None] @ z[b, None]).scaled_by_root(
        z.phase[b])).all() for b in blocks)
    return {"z_to_shift": conjugates_to(z, minus), "shift_to_z": conjugates_to(x, z),
            "braiding": braiding}


def subfield_power_relation_check(field: GFField, d: int, alpha, beta) -> dict:
    """Entrywise: the subfield block of D(alpha, beta) equals the
    (ell/d)-th power of the subfield displacement, for two labels or two
    index arrays of labels in GF(p^d).  Both are monomial and keep the
    block, so per block column the rows must agree and D's phase must be
    (ell/d) times the subfield phase; off-block entries vanish on both."""
    sub = np.asarray(field.subfield_indices(d))
    small = displacement_monomial(field, alpha, beta, d=d)
    full = displacement_monomial(field, alpha, beta)
    power = field.ell // d
    ok = (np.array_equal(full.perm[..., sub], sub[small.perm])
          and not ((full.phase[..., sub] - power * small.phase) % ring_for(field).order).any())
    return {"holds": ok, "power": power}


GF9_FIXTURE_MODULUS = (2, 1, 1)


def is_gf9_fixture(field: GFField) -> bool:
    """Whether the field is the pinned GF(9) of the worked examples."""
    return (field.p, field.ell, field.modulus) == (3, 2, GF9_FIXTURE_MODULUS)


def require_gf9_fixture(field: GFField):
    if not is_gf9_fixture(field):
        raise WrongFixture(
            "this worked example is pinned to GF(9) with modulus 2,1,1")


def z_spectrum_example(field: GFField) -> dict:
    """Eigenspace decompositions of Z and Z^eps on the pinned GF(9) field.

    Returns the index memberships of the rank-3 eigenprojectors of both
    operators and verifies the spectral decompositions exactly; the two
    projector families must differ as sets.
    """
    require_gf9_fixture(field)
    ring = ring_for(field)
    report = {}
    families = {}
    for key, alpha in (("z", field.one), ("z_eps", field.generator)):
        mono = z_monomial(field, alpha)
        # the eigenspace of omega^r holds the m with Tr(alpha m) = r
        groups = {r: np.flatnonzero(mono.phase == r * (ring.order // 3)).tolist()
                  for r in range(3)}
        projs = [OperatorMatrix.projector(ring, field.order, groups[r]) for r in range(3)]
        recomposed = projs[0]
        for r in (1, 2):
            recomposed = recomposed + projs[r].scaled(ring.omega(r))
        ok = recomposed.equals(mono.to_matrix())
        idempotent = all((pr @ pr).equals(pr) for pr in projs)
        ranks = [len(groups[r]) for r in range(3)]
        report[key] = {
            "memberships": {r: tuple(groups[r]) for r in range(3)},
            "decomposition": ok,
            "idempotent": idempotent,
            "ranks": tuple(ranks),
        }
        families[key] = {frozenset(groups[r]) for r in range(3)}
    report["families_differ"] = families["z"] != families["z_eps"]
    return report

"""Displacement operators over GF(p^ell), odd characteristic.

Z^alpha is the diagonal phase operator with character exponents Tr(alpha m),
X^beta the shift by beta, and D(alpha, beta) their symmetrised product with
the half-trace phase (the field inverse of 2; undefined for p = 2).  All
three are monomial matrices, which keeps the big label sums (operator
expansion, resolution of the identity, marginals) at O(dim^2) per label.

Note on the marginal sums: summing D(alpha, beta) over one label yields the
conjugate-basis point projector composed with the parity operator (the
square of the Fourier matrix).  The parity factor is forced by the entry
formula; for beta = 0 it drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cyclo import CycloScalar, ScalarAccumulator
from .errors import (DimensionMismatch, EvenCharacteristic, WrongFixture,
                     ZeroTrace)
from .fourier import fourier_matrix
from .gf import FieldElement, GFField
from .hilbert import point_projector, ring_for
from .linalg import (EXACT, Monomial, OperatorMatrix, StateVector, conjugate,
                     inner_product, tensor_list)


class DisplacementLabel(NamedTuple):
    """Phase-space point (alpha, beta) labelling a displacement operator."""

    alpha: FieldElement
    beta: FieldElement


def all_labels(field: GFField):
    """All p^(2 ell) displacement labels in canonical order."""
    els = field.elements()
    return [DisplacementLabel(a, b) for a in els for b in els]


def _require_odd(field: GFField):
    if field.p == 2:
        raise EvenCharacteristic(
            "displacement phases need the inverse of 2; characteristic 2 is unsupported")


def z_monomial(field: GFField, alpha) -> Monomial:
    ring = ring_for(field)
    a = field.element(alpha).index
    exps = [field.trace_index(field.mul_index(a, m)) for m in range(field.order)]
    return Monomial.diagonal_omega(ring, exps)


def z_power(field: GFField, alpha) -> OperatorMatrix:
    """Diagonal operator with entries omega^(Tr(alpha m))."""
    return z_monomial(field, alpha).to_matrix()


def x_monomial(field: GFField, beta) -> Monomial:
    ring = ring_for(field)
    b = field.element(beta).index
    perm = [field.add_index(m, b) for m in range(field.order)]
    return Monomial.permutation(ring, perm)


def x_power(field: GFField, beta) -> OperatorMatrix:
    """Shift operator: column m maps to row m + beta."""
    return x_monomial(field, beta).to_matrix()


def displacement_arrays(field: GFField, alpha, beta, phase_coeff: int | None = None):
    """(perm, phase) of D(alpha, beta) for index arrays (or ints) alpha, beta.

    D(alpha, beta) has entry omega^(Tr(c*alpha*beta + alpha*m)) at
    (m + beta, m), c = inverse of 2 in Z_p; ``phase`` holds the root
    exponents.  Both outputs have shape ``shape(alpha) + (q,)``: rows of
    the field's index arrays, gathered once per label.  ``phase_coeff``
    overrides c and exists only so verification suites can prove they
    detect a wrong phase.
    """
    _require_odd(field)
    t = field.tables()
    c = field.two_inverse if phase_coeff is None else phase_coeff % field.p
    base = t.trace[t.mul[c, t.mul[alpha, beta]]]
    phase = ((t.trace[t.mul[alpha]] + base[..., None]) % field.p
             * (ring_for(field).order // field.p))
    return t.add[beta], phase


def displacement_monomial(field: GFField, alpha, beta,
                          phase_coeff: int | None = None) -> Monomial:
    """Monomial form of D(alpha, beta); see :func:`displacement_arrays`."""
    perm, phase = displacement_arrays(field, field.element(alpha).index,
                                      field.element(beta).index, phase_coeff)
    return Monomial(ring_for(field), perm.tolist(), phase.tolist())


def displacement(field: GFField, alpha, beta) -> OperatorMatrix:
    """The displacement operator D(alpha, beta)."""
    return displacement_monomial(field, alpha, beta).to_matrix()


def parity_monomial(field: GFField) -> Monomial:
    """The parity permutation m -> -m (equals the Fourier matrix squared)."""
    ring = ring_for(field)
    return Monomial.permutation(ring, [field.neg_index(m)
                                       for m in range(field.order)])


def component_displacement_monomial(field: GFField, a: int, b: int,
                                    dim: int | None = None) -> Monomial:
    """p-dimensional displacement on a component space, labels in Z_p."""
    _require_odd(field)
    ring = ring_for(field)
    p = field.p
    a %= p
    b %= p
    c = field.two_inverse
    perm = [(m + b) % p for m in range(p)]
    phase = [ring.omega_exponent(c * a * b + a * m) for m in range(p)]
    return Monomial(ring, perm, phase)


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


@dataclass(frozen=True)
class WeylTable:
    """Expansion coefficients tr(Theta D(alpha, beta)) on the label grid."""

    field: GFField
    values: tuple  # values[alpha_index][beta_index]
    source: str = ""

    def value(self, alpha, beta) -> CycloScalar:
        return self.values[self.field.element(alpha).index][
            self.field.element(beta).index]


def _trace_dense_times_monomial(theta: OperatorMatrix, mono: Monomial) -> CycloScalar:
    # tr(theta @ mono) = sum_m theta(m, perm[m]) * zeta^phase[m]
    acc = ScalarAccumulator(mono.ring)
    for m in range(mono.dim):
        x = theta.rows[m][mono.perm[m]]
        if not x.is_zero:
            acc.add(x, root=mono.phase[m])
    return acc.value()


def weyl_expand(field: GFField, theta: OperatorMatrix, source: str = "") -> WeylTable:
    """Coefficient table tr(Theta D(alpha, beta)) over all labels."""
    _require_odd(field)
    if theta.dim != field.order:
        raise DimensionMismatch("operator dimension does not match the field")
    q = field.order
    rows = []
    for a in range(q):
        row = []
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            row.append(_trace_dense_times_monomial(theta, mono))
        rows.append(tuple(row))
    return WeylTable(field=field, values=tuple(rows), source=source)


def weyl_reconstruct(field: GFField, table: WeylTable) -> OperatorMatrix:
    """Rebuild the operator p^-ell sum_labels D(alpha, beta) W(-alpha, -beta)."""
    _require_odd(field)
    ring = ring_for(field)
    q = field.order
    acc = [[ScalarAccumulator(ring) for _ in range(q)] for _ in range(q)]
    for a in range(q):
        na = field.neg_index(a)
        for b in range(q):
            w = table.values[na][field.neg_index(b)]
            if w.is_zero:
                continue
            mono = displacement_monomial(field, a, b)
            for m in range(q):
                acc[mono.perm[m]][m].add(w, root=mono.phase[m])
    inv_q = ring.rational(1, q)
    rows = [[cell.value() * inv_q for cell in row] for row in acc]
    return OperatorMatrix(q, EXACT, ring, rows)


def resolution_of_identity_check(field: GFField, theta: OperatorMatrix) -> dict:
    """Brute-force check of p^-ell sum_labels D (Theta/tr Theta) D^dagger = 1."""
    _require_odd(field)
    if theta.dim != field.order:
        raise DimensionMismatch("operator dimension does not match the field")
    tr = theta.trace()
    if tr.is_zero:
        raise ZeroTrace("resolution of identity needs tr(Theta) != 0")
    ring = ring_for(field)
    q = field.order
    scaled = theta.scaled(tr.inverse())
    acc = [[ScalarAccumulator(ring) for _ in range(q)] for _ in range(q)]
    for a in range(q):
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            inv = [0] * q
            for m, n in enumerate(mono.perm):
                inv[n] = m
            for n in range(q):
                rn = inv[n]
                kn = mono.phase[rn]
                row = scaled.rows[rn]
                arow = acc[n]
                for m in range(q):
                    x = row[inv[m]]
                    if not x.is_zero:
                        arow[m].add(x, root=kn - mono.phase[inv[m]])
    inv_q = ring.rational(1, q)
    rows = [[cell.value() * inv_q for cell in row] for row in acc]
    total = OperatorMatrix(q, EXACT, ring, rows)
    return {"holds": total.equals(OperatorMatrix.identity(ring, q))}


def overcomplete_expansion_check(field: GFField, psi: StateVector,
                                 chi: StateVector) -> dict:
    """Expand chi over the p^(2 ell) displaced copies of a unit vector psi.

    Verifies chi = p^-ell sum_labels (D psi, chi) D psi exactly; requires
    (psi, psi) = 1.
    """
    _require_odd(field)
    ring = ring_for(field)
    q = field.order
    if inner_product(psi, psi) != ring.one:
        raise ZeroTrace("expansion vector must be normalised")
    acc = [ScalarAccumulator(ring) for _ in range(q)]
    for a in range(q):
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            moved = mono.apply(psi)
            u = inner_product(moved, chi)
            if u.is_zero:
                continue
            for n in range(q):
                v = moved.values[n]
                if not v.is_zero:
                    acc[n].add(u * v)
    inv_q = ring.rational(1, q)
    rebuilt = StateVector(q, EXACT, ring, [c.value() * inv_q for c in acc])
    return {"holds": rebuilt.equals(chi)}


def _label_sum(field: GFField, held, label_pair) -> OperatorMatrix:
    """p^-ell sum over k of D(label_pair(h, k)), h the index of the held
    label, as a dense exact matrix."""
    _require_odd(field)
    ring = ring_for(field)
    q = field.order
    h = field.element(held).index
    acc = [[ScalarAccumulator(ring) for _ in range(q)] for _ in range(q)]
    one = ring.one
    for k in range(q):
        mono = displacement_monomial(field, *label_pair(h, k))
        for m in range(q):
            acc[mono.perm[m]][m].add(one, root=mono.phase[m])
    inv_q = ring.rational(1, q)
    rows = [[cell.value() * inv_q for cell in row] for row in acc]
    return OperatorMatrix(q, EXACT, ring, rows)


def marginal_sum_alpha(field: GFField, beta) -> OperatorMatrix:
    """p^-ell sum over alpha of D(alpha, beta), as a dense exact matrix."""
    return _label_sum(field, beta, lambda b, a: (a, b))


def marginal_sum_beta(field: GFField, alpha) -> OperatorMatrix:
    """p^-ell sum over beta of D(alpha, beta), as a dense exact matrix."""
    return _label_sum(field, alpha, lambda a, b: (a, b))


def marginal_projectors(field: GFField) -> dict:
    """Both marginal identities, for every label value.

    The alpha-sum at fixed beta equals parity composed with the point
    projector at -beta/2; the beta-sum at fixed alpha equals the Fourier
    conjugate of the point projector at alpha/2 composed with parity.
    """
    _require_odd(field)
    q = field.order
    par = parity_monomial(field)
    f = fourier_matrix(field)
    half = field.element(field.two_inverse)
    ok_alpha = True
    ok_beta = True
    for idx in range(q):
        el = field.element(idx)
        lhs = marginal_sum_alpha(field, el)
        target = par.left_mul_dense(point_projector(field, -(half * el)))
        if not lhs.equals(target):
            ok_alpha = False
            break
    for idx in range(q):
        el = field.element(idx)
        lhs = marginal_sum_beta(field, el)
        q_tilde = conjugate(f, point_projector(field, half * el))
        if not lhs.equals(par.right_mul_dense(q_tilde)):
            ok_beta = False
            break
    return {
        "alpha_sums": ok_alpha,
        "beta_sums": ok_beta,
        "parity_factor_required": True,
    }


def subfield_z_power(field: GFField, d: int, alpha) -> OperatorMatrix:
    """Subfield diagonal phase operator, embedded on GF(p^d) indices.

    Diagonal entries use the subfield trace; zero off the subfield support.
    """
    field.check_divisor(d)
    ring = ring_for(field)
    a = field.require_in_subfield(alpha, d)
    return OperatorMatrix.from_sparse(ring, field.order, {
        (m, m): ring.root(ring.omega_exponent(
            field.subfield_trace(field.mul_index(a.index, m), d)))
        for m in field.subfield_indices(d)})


def subfield_x_power(field: GFField, d: int, beta) -> OperatorMatrix:
    """Subfield shift operator, embedded on GF(p^d) indices."""
    field.check_divisor(d)
    ring = ring_for(field)
    b = field.require_in_subfield(beta, d)
    return OperatorMatrix.from_sparse(ring, field.order, {
        (field.add_index(m, b.index), m): ring.one
        for m in field.subfield_indices(d)})


def subfield_fourier_intertwining_check(field: GFField, d: int,
                                        labels=None) -> dict:
    """Subfield Fourier conjugation of the subfield displacement generators.

    For each checked subfield label a: F_d Z_d^a F_d+ = X_d^(-a) and
    F_d X_d^a F_d+ = Z_d^a, all as embedded operators; also the Weyl
    braiding Z_d^a X_d^b = X_d^b Z_d^a omega^(subfield-trace of a b) over
    the label pairs.  Defaults to every subfield label.
    """
    from .fourier import subfield_fourier
    sub_f = subfield_fourier(field, d)
    sub_f_adj = sub_f.adjoint()
    idxs = (list(field.subfield_indices(d)) if labels is None else
            [field.element(x).index for x in labels])
    ok_z = True
    ok_x = True
    ok_braid = True
    for a in idxs:
        z_a = subfield_z_power(field, d, a)
        x_a = subfield_x_power(field, d, a)
        if not ((sub_f @ z_a) @ sub_f_adj).equals(
                subfield_x_power(field, d, field.neg_index(a))):
            ok_z = False
        if not ((sub_f @ x_a) @ sub_f_adj).equals(z_a):
            ok_x = False
        for b in idxs:
            x_b = subfield_x_power(field, d, b)
            t = field.subfield_trace(field.mul_index(a, b), d)
            lhs = z_a @ x_b
            rhs = (x_b @ z_a).scaled(ring_for(field).omega(t))
            if not lhs.equals(rhs):
                ok_braid = False
    return {"z_to_shift": ok_z, "shift_to_z": ok_x, "braiding": ok_braid}


def subfield_displacement(field: GFField, d: int, alpha, beta) -> OperatorMatrix:
    """Subfield displacement, embedded with support on GF(p^d) indices.

    Entries omega^(subfield-trace of (c*alpha*beta + alpha*m)) at
    (m + beta, m) for subfield m, with c the inverse of 2; labels must lie
    in the subfield.
    """
    _require_odd(field)
    field.check_divisor(d)
    ring = ring_for(field)
    a = field.require_in_subfield(alpha, d)
    b = field.require_in_subfield(beta, d)
    half = field.element(field.two_inverse)
    base = field.subfield_trace(half * a * b, d)
    return OperatorMatrix.from_sparse(ring, field.order, {
        (field.add_index(m, b.index), m): ring.root(ring.omega_exponent(
            base + field.subfield_trace(field.mul_index(a.index, m), d)))
        for m in field.subfield_indices(d)})


def subfield_power_relation_check(field: GFField, d: int, alpha, beta) -> dict:
    """Entrywise: the subfield block of D(alpha, beta) equals the
    (ell/d)-th power of the subfield displacement.

    Masking D to subfield indices is the product with the subfield-support
    projector on both sides; off-block entries of both sides vanish by
    construction, so only the block is compared.
    """
    dop = displacement(field, alpha, beta)
    small = subfield_displacement(field, d, alpha, beta)
    power = field.ell // d
    sub = field.subfield_indices(d)
    if power == 1:
        ok = all(dop.rows[n][m] == small.rows[n][m] for n in sub for m in sub)
    else:
        ok = all(dop.rows[n][m] == small.rows[n][m] ** power
                 for n in sub for m in sub)
    return {"holds": ok, "power": power}


GF9_FIXTURE_MODULUS = (2, 1, 1)


def _require_gf9_fixture(field: GFField):
    if (field.p, field.ell, field.modulus) != (3, 2, GF9_FIXTURE_MODULUS):
        raise WrongFixture(
            "this worked example is pinned to GF(9) with modulus 2,1,1")


def z_spectrum_example(field: GFField) -> dict:
    """Eigenspace decompositions of Z and Z^eps on the pinned GF(9) field.

    Returns the index memberships of the rank-3 eigenprojectors of both
    operators and verifies the spectral decompositions exactly; the two
    projector families must differ as sets.
    """
    _require_gf9_fixture(field)
    ring = ring_for(field)
    eps = field.generator
    report = {}
    families = {}
    for key, alpha in (("z", field.one), ("z_eps", eps)):
        mono = z_monomial(field, alpha)
        groups = {r: [] for r in range(3)}
        for m in range(field.order):
            t = field.trace_index(field.mul_index(field.element(alpha).index, m))
            groups[t].append(m)
        projs = []
        for r in range(3):
            projs.append(OperatorMatrix.from_sparse(
                ring, field.order, {(m, m): ring.one for m in groups[r]}))
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

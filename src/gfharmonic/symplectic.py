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
one lookup in the root rotations of S_x, batched over every element and
label that share it.  :func:`action_check` is the per-element reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import CycloScalar, ScalarAccumulator
from .errors import (ConstraintViolated, DomainRestriction,
                     EvenCharacteristic, WrongFixture, ZeroScaling)
from .fourier import fourier_matrix
from .gf import FieldElement, GFField
from .heisenberg import (GF9_FIXTURE_MODULUS, _require_gf9_fixture,
                         component_displacement_monomial, displacement,
                         displacement_arrays, displacement_monomial,
                         marginal_sum_alpha,
                         marginal_sum_beta, parity_monomial, x_monomial,
                         z_monomial)
from .hilbert import operator_cache, point_projector, ring_for
from .linalg import (EXACT, Monomial, OperatorMatrix, conjugate,
                     proportionality_phase, tensor_list)


@dataclass(frozen=True)
class SymplecticParams:
    """Group element (r, s, t, u) with r*u - s*t = 1.

    For r != 0 the fourth parameter is determined by the constraint; the
    r = 0 chart leaves u free and needs it supplied.
    """

    r: FieldElement
    s: FieldElement
    t: FieldElement
    u: FieldElement

    def __post_init__(self):
        if self.r * self.u - self.s * self.t != self.r.field.one:
            raise ConstraintViolated("parameters do not satisfy r*u - s*t = 1")

    @classmethod
    def from_rst(cls, field: GFField, r, s, t) -> "SymplecticParams":
        r = field.element(r)
        s = field.element(s)
        t = field.element(t)
        if r.is_zero:
            raise ConstraintViolated("r = 0 leaves u undetermined; supply it")
        u = r.inverse() * (s * t + 1)
        return cls(r, s, t, u)

    def matrix(self):
        """Rows of the label-action matrix ((u, s), (t, r))."""
        return ((self.u, self.s), (self.t, self.r))

    def apply(self, alpha, beta):
        """Image (u a + s b, t a + r b) of a displacement label."""
        return (self.u * alpha + self.s * beta, self.t * alpha + self.r * beta)

    def frobenius(self, k: int = 1) -> "SymplecticParams":
        return SymplecticParams(self.r.frobenius(k), self.s.frobenius(k),
                                self.t.frobenius(k), self.u.frobenius(k))

    def __str__(self):
        return f"(r={self.r}, s={self.s}, t={self.t}, u={self.u})"


@dataclass(frozen=True)
class GaussSumValue:
    """Quadratic character sum over the field for a fixed multiplier."""

    a: FieldElement
    value: CycloScalar


def gauss_sum(field: GFField, a) -> GaussSumValue:
    """sum over k of omega^(Tr(a k^2)), evaluated by brute force."""
    ring = ring_for(field)
    a = field.element(a)
    acc = ScalarAccumulator(ring)
    one = ring.one
    for k in range(field.order):
        t = field.trace_index(field.mul_index(a.index, field.mul_index(k, k)))
        acc.add(one, root=ring.omega_exponent(t))
    return GaussSumValue(a=a, value=acc.value())


def generator_scaling(field: GFField, xi) -> Monomial:
    """Index scaling m -> xi m; the element (r, s, t, u) = (xi, 0, 0, xi^-1)."""
    xi = field.element(xi)
    if xi.is_zero:
        raise ZeroScaling("scaling parameter must be nonzero")
    ring = ring_for(field)
    perm = [field.mul_index(xi.index, m) for m in range(field.order)]
    return Monomial.permutation(ring, perm)


def generator_shear_z(field: GFField, xi) -> Monomial:
    """Diagonal quadratic phase omega^(Tr(2^-1 xi m^2)); the element (1, xi, 0, 1)."""
    if field.p == 2:
        raise EvenCharacteristic("quadratic phases need the inverse of 2")
    xi = field.element(xi)
    ring = ring_for(field)
    c = (field.element(field.two_inverse) * xi).index
    exps = [field.trace_index(field.mul_index(c, field.mul_index(m, m)))
            for m in range(field.order)]
    return Monomial.diagonal_omega(ring, exps)


def generator_shear_x(field: GFField, xi) -> OperatorMatrix:
    """Fourier conjugate F S(1, xi, 0) F+ of the diagonal quadratic phase,
    cached per parameter.

    Conjugating a diagonal operator by F gives a convolution over (GF(q), +):
    the result commutes with every shift, so entry (n, m) depends only on
    n - m.  Expanding the triple product, entry (n, m) is g(n - m) with

        g(d) = p^-ell sum_k omega^(Tr(k d) + 2^-1 Tr(xi k^2)),

    because Tr(k n) - Tr(k m) = Tr(k (n - m)).  The q values g(d) are summed
    once each, so the matrix costs q character sums instead of q^2, and
    entries on one difference share one scalar.  The exponents agree with
    those of the full triple product mod N, so every entry is bit-identical
    to it; :func:`shear_x_closed_form` evaluates that sum independently.
    """
    if field.p == 2:
        raise EvenCharacteristic("quadratic phases need the inverse of 2")
    xi = field.element(xi)
    cache = operator_cache(field)
    key = ("shear_x", xi.index)
    if key not in cache:
        ring = ring_for(field)
        q = field.order
        phase = generator_shear_z(field, xi).phase
        step = ring.order // ring.char
        g = [ring.sum_of_roots(
                (step * field.trace_index(field.mul_index(k, d)) + phase[k]
                 for k in range(q)), 2 * field.ell)
             for d in range(q)]
        sub = field.sub_index
        rows = [[g[sub(n, m)] for m in range(q)] for n in range(q)]
        cache[key] = OperatorMatrix(q, EXACT, ring, rows)
    return cache[key]


def shear_x_closed_form(field: GFField, xi) -> OperatorMatrix:
    """Direct evaluation of the shear's matrix-element sum, as a cross-check."""
    ring = ring_for(field)
    xi = field.element(xi)
    half = field.element(field.two_inverse)
    c = (half * xi).index
    q = field.order
    rows = []
    for n in range(q):
        row = []
        for m in range(q):
            acc = ScalarAccumulator(ring)
            one = ring.one
            for k in range(q):
                e = (field.trace_index(field.mul_index(c, field.mul_index(k, k)))
                     + field.trace_index(field.mul_index(k, n))
                     - field.trace_index(field.mul_index(k, m)))
                acc.add(one, root=ring.omega_exponent(e))
            row.append(acc.value() * ring.rational(1, q))
        rows.append(row)
    return OperatorMatrix(q, EXACT, ring, rows)


def fourier_params(field: GFField) -> SymplecticParams:
    """The Fourier matrix as a group element: (u, s, t, r) = (0, 1, -1, 0)."""
    zero, one = field.zero, field.one
    return SymplecticParams(r=zero, s=one, t=-one, u=zero)


def _compose_with_fourier(params: SymplecticParams) -> SymplecticParams:
    # Right multiplication of the label-action matrix by the Fourier element:
    # ((u, s), (t, r)) . ((0, 1), (-1, 0)) = ((-s, u), (-r, t))
    return SymplecticParams(r=params.t, s=params.u, t=-params.r, u=-params.s)


def synthesize(field: GFField, params: SymplecticParams) -> OperatorMatrix:
    """Unitary realising the conjugation action of a group element."""
    if field.p == 2:
        raise EvenCharacteristic("symplectic unitaries need odd characteristic")
    r, s, t = params.r, params.s, params.t
    w = s * t + 1
    if (not r.is_zero) and (not w.is_zero):
        xi1 = r * t * w.inverse()
        xi2 = s * r.inverse() * w
        xi3 = r * w.inverse()
        mono = generator_shear_z(field, xi2) @ generator_scaling(field, xi3)
        return mono.right_mul_dense(generator_shear_x(field, -xi1))
    shifted = synthesize(field, _compose_with_fourier(params))
    return shifted @ fourier_matrix(field).adjoint()


def action_check(field: GFField, params: SymplecticParams,
                 labels=None, check_unitary: bool = True) -> dict:
    """Verify the defining conjugation action of a synthesised unitary.

    Checks S Z^a = D(u a, t a) S and S X^b = D(s b, r b) S for every label
    value (equivalent to the conjugation form, given unitarity, but O(dim^2)
    per label), the general law on displacement labels, and the preserved
    commutation phase of the transformed pair.

    This is the per-element reference for :func:`action_sweep`, which
    returns the same verdicts for many elements at once: the tests compare
    the two element by element, and the benchmark's tracer patches this
    function by name.
    """
    s_op = synthesize(field, params)
    ring = ring_for(field)
    if check_unitary and not s_op.is_unitary():
        return {"unitary": False, "z_action": False, "x_action": False,
                "displacement_action": False, "commutation": False}
    els = field.elements() if labels is None else [field.element(x) for x in labels]
    ok_z = all(
        z_monomial(field, a).right_mul_dense(s_op).equals(
            displacement_monomial(field, *params.apply(a, field.zero))
            .left_mul_dense(s_op))
        for a in els)
    ok_x = all(
        x_monomial(field, b).right_mul_dense(s_op).equals(
            displacement_monomial(field, *params.apply(field.zero, b))
            .left_mul_dense(s_op))
        for b in els)
    ok_d = all(
        displacement_monomial(field, a, b).right_mul_dense(s_op).equals(
            displacement_monomial(field, *params.apply(a, b))
            .left_mul_dense(s_op))
        for a in els for b in els)
    # transformed pair keeps the Weyl commutation phase
    ok_comm = True
    for a in els:
        for b in els:
            zp = displacement_monomial(field, *params.apply(a, field.zero))
            xp = displacement_monomial(field, *params.apply(field.zero, b))
            lhs = xp @ zp
            rhs = (zp @ xp).scaled_by_omega(
                -field.trace_index(field.mul_index(a.index, b.index)))
            if lhs != rhs:
                ok_comm = False
    return {"unitary": True, "z_action": ok_z, "x_action": ok_x,
            "displacement_action": ok_d, "commutation": ok_comm}


ACTION_KEYS = ("unitary", "z_action", "x_action", "displacement_action",
               "commutation")
SWEEP_ENTRIES = 1 << 15  # gathered entries per block of action_sweep: ~1 MB of temporaries


def _param_indices(elements):
    # the (r, s, t, u) field indices of a list of elements, as four arrays
    return tuple(np.array([getattr(g, k).index for g in elements], dtype=np.int64)
                 for k in "rstu")


@dataclass(frozen=True)
class ElementFactors:
    """The factors U(g) = S_x(shear) . M . (F+ where fourier) that
    :func:`synthesize` multiplies, one row per element.

    M = S(1, xi2, 0) . S(xi3, 0, 0) is monomial, M(perm[m], m) =
    zeta^phase[m]; ``shear`` is the field index of -xi1.  ``fourier`` marks
    the elements outside the chart r != 0, 1 + s t != 0, whose factors are
    those of the Fourier-composed element.
    """

    shear: np.ndarray    # (G,)
    perm: np.ndarray     # (G, q)
    phase: np.ndarray    # (G, q), root exponents
    fourier: np.ndarray  # (G,) bool


def element_factors(field: GFField, elements) -> ElementFactors:
    """Factors of every element, from gathers on the field's index arrays."""
    t = field.tables()
    r, s, tt, u = _param_indices(elements)
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
    return ElementFactors(shear=t.neg[t.mul[xi3, tt]], perm=perm, phase=phase,
                          fourier=fourier)


def _fourier_conjugates(field: GFField, perm, phase):
    """(perm, phase) of W = F+ D F for each label's D, or None unless F is
    unitary and every W is monomial."""
    f = fourier_matrix(field)
    if not f.is_unitary():
        return None
    ring = ring_for(field)
    f_adj = f.adjoint()
    conj = [Monomial.from_dense(f_adj @ Monomial(ring, pm, ph).left_mul_dense(f))
            for pm, ph in zip(perm.tolist(), phase.tolist())]
    if any(w is None for w in conj):
        return None
    return np.array([w.perm for w in conj]), np.array([w.phase for w in conj])


def _rotation_codes(ring, datas):
    """codes[b, k, i, j]: an integer naming zeta^k datas[b][i, j], for k in
    [0, 2N), so that equal codes mean equal coefficient vectors."""
    deg, order = ring.degree, ring.order
    q = datas[0].shape[0]
    vals, idx = np.unique(np.stack(datas).reshape(-1, deg), axis=0,
                          return_inverse=True)
    rot = ring.times_roots(np.broadcast_to(vals, (order,) + vals.shape),
                           row_roots=np.arange(order))
    _, rot_id = np.unique(rot.reshape(-1, deg), axis=0, return_inverse=True)
    codes = rot_id.reshape(order, len(vals))[:, idx.reshape(len(datas), q, q)]
    return np.concatenate([codes, codes]).transpose(1, 0, 2, 3).astype(np.int32)


def action_sweep(field: GFField, elements, labels=None) -> np.ndarray:
    """The :func:`action_check` verdicts of many elements, as a (G, 5) bool
    array with columns in ACTION_KEYS order.

    With the factors U = S_x . N of :func:`element_factors` (N = M, or
    M F+), U Lambda = D(g lambda) U holds exactly when S_x Y = D(g lambda)
    S_x with Y = N Lambda N+ = M Lambda' M+, a monomial: Lambda' is Lambda,
    or W = F+ Lambda F, computed once per label.  For each of the at most q
    bases S_x, codes of its root rotations zeta^k S_x are built once; then
    entry (j, m) of the law, S_x(pi_D j, pi_Y m) zeta^(phi_Y m - phi_D j) =
    S_x(j, m), is one gather, batched over elements and labels.  U is
    unitary exactly when its base is (N is unitary); a non-unitary U gets
    five False, as in action_check.  The commutation phase is
    monomial-only.  If F is not unitary or some W is not monomial, the
    elements that end with F+ go through action_check instead.
    """
    if field.p == 2:
        raise EvenCharacteristic("symplectic unitaries need odd characteristic")
    elements = list(elements)
    out = np.zeros((len(elements), len(ACTION_KEYS)), dtype=bool)
    if not elements:
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
    fac = element_factors(field, elements)
    lam = displacement_arrays(field, la, lb)
    conj = lam
    fallback = np.zeros(len(elements), dtype=bool)
    if fac.fourier.any():
        conj = _fourier_conjugates(field, *lam)
        if conj is None:
            conj, fallback = lam, fac.fourier
    lam_perm, lam_phase = np.stack([lam[0], conj[0]]), np.stack([lam[1], conj[1]])

    bases, base_of = np.unique(fac.shear, return_inverse=True)
    mats = [generator_shear_x(field, int(x)) for x in bases]
    unitary = np.array([m.is_unitary() for m in mats])[base_of]
    codes = _rotation_codes(ring, [m.packed[0] for m in mats])
    flat = codes.reshape(-1)

    r, s, tt, u = _param_indices(elements)
    alpha = t.add[t.mul[u[:, None], la], t.mul[s[:, None], lb]]
    beta = t.add[t.mul[tt[:, None], la], t.mul[r[:, None], lb]]
    shift = -t.trace[t.mul[els[:, None], els]] % field.p * (order // field.p)
    m_idx = np.arange(q)
    block = max(1, SWEEP_ENTRIES // (len(la) * q * q))
    for start in range(0, len(elements), block):
        sl = slice(start, start + block)
        d_perm, d_phase = displacement_arrays(field, alpha[sl], beta[sl])
        chart = fac.fourier[sl].astype(np.intp)
        y_src, y_phase = lam_perm[chart], lam_phase[chart]
        m_perm, m_phase = fac.perm[sl], fac.phase[sl]
        g = np.arange(len(m_perm))[:, None, None]
        # column pi_M m of Y is pi_M(pi_Lambda' m), times zeta^y
        y_col = m_perm[g, y_src]
        y = (y_phase - m_phase[:, None, :] + m_phase[g, y_src]) % order
        # flat index of codes[b, N + y(m) - phi_D(j), pi_D(j), y_col(m)]
        b_off = base_of[sl][:, None, None] * (2 * order * q * q)
        by_m = b_off + (order + y) * (q * q) + y_col
        by_j = d_perm * q - d_phase * (q * q)
        lhs = flat[by_m[:, :, None, :] + by_j[:, :, :, None]]
        rhs = codes[base_of[sl][:, None, None], 0, m_idx[:, None], m_perm[:, None, :]]
        law = (lhs == rhs[:, None]).all(axis=(2, 3))
        # D(g(a, 0)) and D(g(0, b)) keep the Weyl commutation phase
        zp, zph = d_perm[:, :n, None], d_phase[:, :n, None]
        xp, xph = d_perm[:, None, n:2 * n], d_phase[:, None, n:2 * n]
        comm = ((np.take_along_axis(xp, zp, 3) == np.take_along_axis(zp, xp, 3))
                & ((zph + np.take_along_axis(xph, zp, 3) - xph
                    - np.take_along_axis(zph, xp, 3) - shift[:, :, None])
                   % order == 0)).all(axis=(1, 2, 3))
        verdict = np.stack([law[:, :n].all(1), law[:, n:2 * n].all(1),
                            law[:, 2 * n:].all(1), comm], axis=1)
        out[sl, 0] = unitary[sl]
        out[sl, 1:] = verdict & unitary[sl, None]
    for i in np.flatnonzero(fallback):
        res = action_check(field, elements[i], labels=labels)
        out[i] = [res[k] for k in ACTION_KEYS]
    return out


def closed_form_matrix(field: GFField, params: SymplecticParams) -> OperatorMatrix:
    """Gauss-sum closed form for the matrix elements of a generic element.

    [S](n, m) = p^-ell G(A) omega^(Tr B) with A = -2^-1 (1+s t)^-1 r t and
    B = (2 r t)^-1 ((1+s t) n^2 - 2 n m r + m^2 r^2).  Requires r, t != 0
    and 1 + s t != 0 (the expression divides by all three).
    """
    if field.p == 2:
        raise EvenCharacteristic("closed form needs odd characteristic")
    r, s, t = params.r, params.s, params.t
    w = s * t + 1
    if r.is_zero or t.is_zero or w.is_zero:
        raise DomainRestriction(
            "closed form needs r != 0, t != 0 and 1 + s*t != 0")
    ring = ring_for(field)
    half = field.element(field.two_inverse)
    a_val = -(half * w.inverse() * r * t)
    g = gauss_sum(field, a_val).value
    scale = g * ring.rational(1, field.order)
    coef = (field.element(2) * r * t).inverse().index
    q = field.order
    w_i, r_i = w.index, r.index
    rr = field.mul_index(r_i, r_i)
    two_r = field.add_index(r_i, r_i)
    mul, add, sub = field.mul_index, field.add_index, field.sub_index
    rows = []
    for n in range(q):
        wn2 = mul(w_i, mul(n, n))
        row = []
        for m in range(q):
            b_idx = mul(coef, sub(add(wn2, mul(rr, mul(m, m))),
                                  mul(two_r, mul(n, m))))
            row.append(scale.times_root(
                ring.omega_exponent(field.trace_index(b_idx))))
        rows.append(row)
    return OperatorMatrix(q, EXACT, ring, rows)


def closed_form_elements_check(field: GFField, params: SymplecticParams) -> dict:
    """Compare the synthesised unitary against the Gauss-sum closed form.

    Equality is asserted up to one global unit-modulus phase, which is
    extracted exactly and reported.
    """
    built = synthesize(field, params)
    closed = closed_form_matrix(field, params)
    phase = proportionality_phase(built, closed)
    return {
        "proportional": phase is not None,
        "phase": phase,
        "phase_is_one": phase == ring_for(field).one if phase is not None else False,
    }


def frobenius_action_check(field: GFField, params: SymplecticParams,
                           subfield_d: int | None = None) -> dict:
    """Frobenius covariance of the synthesised unitaries.

    Conjugating S by the k-th Frobenius power matches the unitary built
    from the Frobenius-mapped parameters, up to a reported global phase
    (hence they induce the same conjugation action).  When all parameters
    lie in GF(p^d), the d-th power fixes the operator the same way.
    """
    from .frobenius import frobenius_monomial
    g = frobenius_monomial(field)
    s_op = synthesize(field, params)
    ring = ring_for(field)
    phases = []
    ok = True
    for k in range(field.ell):
        conj_op = (g ** k).conjugate_dense(s_op)
        target = synthesize(field, params.frobenius(k))
        phase = proportionality_phase(conj_op, target)
        phases.append(phase)
        if phase is None:
            ok = False
    result = {"covariant": ok, "phases": phases}
    if subfield_d is not None:
        d = subfield_d
        for x in (params.r, params.s, params.t, params.u):
            field.require_in_subfield(
                x, d, "parameters are not all in the requested subfield")
        conj_op = (g ** d).conjugate_dense(s_op)
        phase = proportionality_phase(conj_op, s_op)
        result["subfield_fixed"] = phase is not None
        result["subfield_phase"] = phase
    return result


def _conjugated_matrix_unit(field, s_op: OperatorMatrix, a: int, b: int) -> OperatorMatrix:
    # S E_{a,b} S+ as the outer product of column a of S with column b conjugated
    ring = ring_for(field)
    q = field.order
    col_a = [s_op.rows[n][a] for n in range(q)]
    col_b = [s_op.rows[n][b].conj() for n in range(q)]
    rows = [[col_a[n] * col_b[m] for m in range(q)] for n in range(q)]
    return OperatorMatrix(q, EXACT, ring, rows)


def transformed_marginals(field: GFField, params: SymplecticParams) -> dict:
    """Marginal identities transported to a rotated phase-space frame.

    The primed displacements D'(a, b) = S D(a, b) S+ are displacements at
    the transformed labels, so the primed label sums are evaluated directly
    on those labels; the primed right-hand sides S (parity . projector) S+
    are rank-one and computed as outer products of columns of S.  For small
    fields the fully explicit conjugation is also compared.
    """
    s_op = synthesize(field, params)
    par = parity_monomial(field)
    f = fourier_matrix(field)
    ring = ring_for(field)
    q = field.order
    half = field.element(field.two_inverse)
    explicit = q <= 9
    ok_alpha = True
    ok_beta = True
    for idx in range(q):
        beta = field.element(idx)
        acc = None
        for a_idx in range(q):
            mono = displacement_monomial(field, *params.apply(field.element(a_idx), beta))
            mat = mono.to_matrix()
            acc = mat if acc is None else acc + mat
        lhs = acc.scaled(ring.rational(1, q))
        k = -(half * beta)
        target = _conjugated_matrix_unit(field, s_op, field.neg_index(k.index), k.index)
        if not lhs.equals(target):
            ok_alpha = False
            break
        if explicit:
            direct = conjugate(s_op, marginal_sum_alpha(field, beta))
            ref = conjugate(s_op, par.left_mul_dense(point_projector(field, k)))
            if not (direct.equals(lhs) and direct.equals(ref)):
                ok_alpha = False
                break
    for idx in range(q):
        alpha = field.element(idx)
        acc = None
        for b_idx in range(q):
            mono = displacement_monomial(field, *params.apply(alpha, field.element(b_idx)))
            mat = mono.to_matrix()
            acc = mat if acc is None else acc + mat
        lhs = acc.scaled(ring.rational(1, q))
        k = half * alpha
        q_tilde = conjugate(f, point_projector(field, k))
        target = conjugate(s_op, par.right_mul_dense(q_tilde)) if explicit else None
        if explicit:
            direct = conjugate(s_op, marginal_sum_beta(field, alpha))
            if not (direct.equals(lhs) and direct.equals(target)):
                ok_beta = False
                break
        else:
            # Q~_k P = F Q_k F+ F^2 = F Q_k F is rank one, so the conjugated
            # target is the outer product of (S F) e_k with the k-th row of
            # F composed with S+.
            u = []
            w = []
            frow = f.rows[k.index]
            for n in range(q):
                srow = s_op.rows[n]
                acc_u = ScalarAccumulator(ring)
                acc_w = ScalarAccumulator(ring)
                for j in range(q):
                    acc_u.add_product(srow[j], f.rows[j][k.index])
                    acc_w.add_product(frow[j], srow[j].conj())
                u.append(acc_u.value())
                w.append(acc_w.value())
            target = OperatorMatrix(
                q, EXACT, ring,
                [[u[n] * w[m] for m in range(q)] for n in range(q)])
            if not lhs.equals(target):
                ok_beta = False
                break
    return {"alpha_sums": ok_alpha, "beta_sums": ok_beta}


def enumerate_group(field: GFField):
    """All q(q^2 - 1) group elements: the r != 0 chart plus the r = 0,
    s t = -1 chart with u free."""
    els = field.elements()
    out = []
    for r in els:
        if r.is_zero:
            continue
        for s in els:
            for t in els:
                out.append(SymplecticParams.from_rst(field, r, s, t))
    zero = field.zero
    for t in els:
        if t.is_zero:
            continue
        s = -t.inverse()
        for u in els:
            out.append(SymplecticParams(r=zero, s=s, t=t, u=u))
    return out


def non_factorization_witness(field: GFField) -> dict:
    """The pinned GF(9) chain showing the example unitary is not a tensor
    product of two single-component operators.

    The example element (r, s, t) = (1, 1+e, e) maps the shift labelled by
    the generator into a displacement both of whose tensor factors are
    non-identity; a pure tensor conjugation would have to keep the factor
    it meets as the identity, so no factorisation exists.  The chain also
    records the conjugate of the diagonal operator labelled by the
    generator, whose image is the displacement at (2e, 1+2e) with factors
    D(1,1) and D(0,2).
    """
    _require_gf9_fixture(field)
    ring = ring_for(field)
    eps = field.generator
    params = SymplecticParams.from_rst(field, field.one, field.one + eps, eps)
    s_op = synthesize(field, params)

    ident3 = Monomial.identity(ring, 3)
    x_eps = x_monomial(field, eps).to_matrix()
    x_tensor = ident3.tensor(component_displacement_monomial(field, 0, 1)).to_matrix()
    x_fact = x_eps.equals(x_tensor)

    # image of the shift under the action: label (0, eps) -> (s eps, r eps)
    img_x = params.apply(field.zero, eps)
    x_img_ok = conjugate(s_op, x_eps).equals(displacement(field, *img_x))
    _, dual_a = field.components(img_x[0])
    std_b = img_x[1].coeffs
    x_img_factors = ((dual_a[0], std_b[0]), (dual_a[1], std_b[1]))
    first_factor_identity = x_img_factors[0] == (0, 0)

    # image of the diagonal operator: label (eps, 0) -> (u eps, t eps)
    img_z = params.apply(eps, field.zero)
    two_eps = field.element([0, 2])
    one_two_eps = field.element([1, 2])
    z_img_ok = (img_z[0] == two_eps and img_z[1] == one_two_eps
                and conjugate(s_op, z_monomial(field, eps).to_matrix()).equals(
                    displacement(field, two_eps, one_two_eps)))
    d_fact = displacement(field, two_eps, one_two_eps).equals(tensor_list([
        component_displacement_monomial(field, 1, 1).to_matrix(),
        component_displacement_monomial(field, 0, 2).to_matrix()]))

    return {
        "x_eps_is_identity_tensor_shift": x_fact,
        "x_image_label": (str(img_x[0]), str(img_x[1])),
        "x_image_matches": x_img_ok,
        "x_image_factors": x_img_factors,
        "diag_image_matches": z_img_ok,
        "diag_image_factor_pair": ((1, 1), (0, 2)) if d_fact else None,
        "not_tensor_product": x_fact and x_img_ok and not first_factor_identity,
    }

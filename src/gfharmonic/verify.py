"""Verification suites: every operator identity, checked bit-exactly.

Each suite returns a :class:`SuiteReport` whose items carry a descriptive
name and a pass/fail/skip status.  The exact suites assert equality of
canonical scalars; the float suite re-runs the headline identities on the
embedded complex numpy arrays against a Frobenius-norm tolerance.

Suites that need the inverse of 2 (displacements, symplectic) report a
single skip item in characteristic 2 instead of failing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fourier as fr
from . import frobenius as fb
from . import heisenberg as hb
from . import hilbert as hs
from . import symplectic as sp
from .errors import EvenCharacteristic
from .gf import GFField
from .linalg import (EXACT, Monomial, OperatorMatrix, StateVector, conjugate,
                     inner_product, proportionality_phase)

DEFAULT_GRID = ((3, 1), (3, 2), (5, 1), (3, 3), (5, 2), (7, 1))
SUITE_NAMES = ("gf", "fourier", "frobenius", "heisenberg", "symplectic")


@dataclass
class VerifyConfig:
    tolerance: float = 1e-9
    exhaustive: bool = False
    seed: int = 12345
    # Override for the displacement half-phase coefficient; verification
    # suites must fail when this is not the true inverse of 2 (negative
    # control against vacuous passes).
    displacement_phase_coeff: int | None = None


@dataclass
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    field_desc: str
    items: list = dc_field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append(CheckItem(name, "pass" if ok else "fail", detail))

    def skip(self, name: str, detail: str = ""):
        self.items.append(CheckItem(name, "skip", detail))

    @property
    def passed(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def to_json(self):
        return {
            "suite": self.suite,
            "field": self.field_desc,
            "passed": self.passed,
            "items": [item.to_json() for item in self.items],
        }


def _desc(field: GFField) -> str:
    return f"GF({field.p}^{field.ell}) mod {','.join(map(str, field.modulus))}"


def _random_scalar(ring, rng):
    vec = [rng.randint(-2, 2) for _ in range(ring.degree)]
    if not any(vec):
        vec[0] = 1
    return ring.scalar(vec, rng.choice([0, 0, 1, 2]), rng.choice([1, 1, 2, 3]))


def _random_matrix(field, rng) -> OperatorMatrix:
    ring = hs.ring_for(field)
    q = field.order
    rows = [[_random_scalar(ring, rng) for _ in range(q)] for _ in range(q)]
    return OperatorMatrix(q, EXACT, ring, rows)


def _random_state(field, rng) -> StateVector:
    ring = hs.ring_for(field)
    return StateVector(field.order, EXACT, ring,
                       [_random_scalar(ring, rng) for _ in range(field.order)])


def _random_rank_one(field, rng) -> OperatorMatrix:
    # |u><v| with nonzero trace (v, u)
    ring = hs.ring_for(field)
    q = field.order
    while True:
        u = [_random_scalar(ring, rng) for _ in range(q)]
        v = [_random_scalar(ring, rng) for _ in range(q)]
        tr = ring.zero
        for a, b in zip(u, v):
            tr = tr + b.conj() * a
        if not tr.is_zero:
            break
    return OperatorMatrix(q, EXACT, ring,
                          [[u[n] * v[m].conj() for m in range(q)]
                           for n in range(q)])


# ---------------------------------------------------------------------------
# field suite


def gf_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed)
    rep = SuiteReport("gf", _desc(field))
    q, p = field.order, field.p

    rep.add("frobenius_order",
            all(field.frobenius_index(m, field.ell) == m for m in range(q)))

    pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 81 else
             [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)])
    ok_add = all(field.frobenius_index(field.add_index(a, b))
                 == field.add_index(field.frobenius_index(a), field.frobenius_index(b))
                 for a, b in pairs)
    ok_mul = all(field.frobenius_index(field.mul_index(a, b))
                 == field.mul_index(field.frobenius_index(a), field.frobenius_index(b))
                 for a, b in pairs)
    rep.add("frobenius_is_ring_map", ok_add and ok_mul)

    rep.add("trace_frobenius_invariant",
            all(field.trace_index(m) == field.trace_index(field.frobenius_index(m))
                for m in range(q)))

    ok = True
    for d in field.divisors():
        ratio = (field.ell // d) % p
        for idx in field.subfield_indices(d):
            if field.trace_index(idx) != (ratio * field.subfield_trace(idx, d)) % p:
                ok = False
    rep.add("trace_subfield_ratio", ok)

    ok = True
    for d in field.divisors():
        if all(field.subfield_trace(idx, d) == 0
               for idx in field.subfield_indices(d)):
            ok = False
    rep.add("subfield_trace_not_identically_zero", ok)

    gram = field.dual_basis.gram
    gram_inv = field.dual_basis.gram_inv
    ell = field.ell
    ident = all((sum(gram[i][k] * gram_inv[k][j] for k in range(ell)) % p)
                == (1 if i == j else 0) for i in range(ell) for j in range(ell))
    rep.add("gram_times_inverse_is_identity", ident)

    eps = field.generator
    dual = field.dual_basis.elements
    rep.add("dual_basis_defining_property",
            all(((eps ** k) * dual[l]).trace() == (1 if k == l else 0)
                for k in range(ell) for l in range(ell)))

    ok = True
    for a, b in pairs:
        std_a, dual_a = field.components(a)
        std_b, dual_b = field.components(b)
        t = field.trace_index(field.mul_index(a, b))
        e1 = sum(x * y for x, y in zip(std_a, dual_b)) % p
        e2 = sum(x * y for x, y in zip(dual_a, std_b)) % p
        e3 = sum(gram[i][j] * std_a[i] * std_b[j]
                 for i in range(ell) for j in range(ell)) % p
        e4 = sum(gram_inv[i][j] * dual_a[i] * dual_b[j]
                 for i in range(ell) for j in range(ell)) % p
        if not (t == e1 == e2 == e3 == e4):
            ok = False
    rep.add("trace_bilinear_four_forms", ok)

    ok = True
    for d in field.divisors():
        sub = set(field.subfield_indices(d))
        for a in sub:
            for b in sub:
                if field.add_index(a, b) not in sub or field.mul_index(a, b) not in sub:
                    ok = False
    rep.add("subfields_closed", ok)

    rep.add("multiplicative_inverses",
            all(field.mul_index(a, field.inv_index(a)) == 1 for a in range(1, q)))

    ok = True
    for d in field.divisors():
        exps = field.galois_group_exponents(d)
        if len(exps) != field.ell // d or exps[-1] != field.ell:
            ok = False
        for k in exps:
            if any(field.frobenius_index(m, k) != m
                   for m in field.subfield_indices(d)):
                ok = False
    rep.add("galois_groups_fix_subfields", ok)
    return rep


# ---------------------------------------------------------------------------
# fourier suite


def fourier_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 1)
    rep = SuiteReport("fourier", _desc(field))
    ring = hs.ring_for(field)
    q = field.order
    f = fr.fourier_matrix(field)
    ident = OperatorMatrix.identity(ring, q)

    rep.add("unitary", (f @ f.adjoint()).equals(ident))
    f2 = f @ f
    rep.add("fourth_power_is_identity", (f2 @ f2).equals(ident))

    ok = all(field.trace_index(field.mul_index(n, m))
             == field.trace_index(field.mul_index(field.frobenius_index(n),
                                                  field.frobenius_index(m)))
             for n in range(q) for m in range(q))
    rep.add("entries_frobenius_symmetric", ok)

    spec = fr.fourier_spectrum(field)
    total = spec.projectors[0]
    for pr in spec.projectors[1:]:
        total = total + pr
    rep.add("projectors_resolve_identity", total.equals(ident))
    zero = OperatorMatrix.zeros(ring, q)
    ok = True
    for r in range(4):
        for s in range(4):
            prod = spec.projectors[r] @ spec.projectors[s]
            want = spec.projectors[r] if r == s else zero
            if not prod.equals(want):
                ok = False
    rep.add("projectors_orthogonal_idempotent", ok)
    i_unit = ring.imag_unit()
    recon = spec.projectors[0]
    recon = recon + spec.projectors[1].scaled(i_unit)
    recon = recon - spec.projectors[2]
    recon = recon - spec.projectors[3].scaled(i_unit)
    rep.add("eigen_reconstruction", recon.equals(f))
    rep.add("eigen_equation",
            (f @ spec.projectors[1]).equals(spec.projectors[1].scaled(i_unit)))
    ranks = spec.ranks
    rep.add("projector_ranks_partition", sum(ranks) == q and all(r >= 0 for r in ranks),
            detail=f"ranks={ranks}")

    chi = _random_state(field, rng)
    out = chi
    for _ in range(4):
        out = f.apply(out)
    rep.add("transform_period_four", out.equals(chi))
    rep.add("parseval",
            inner_product(f.apply(chi), f.apply(chi)) == inner_product(chi, chi))

    if field.ell >= 2:
        fac = fr.component_factorization_check(field)
        rep.add("component_factorization",
                fac["factorization_dual_std"] and fac["factorization_std_dual"])
        rep.add("naive_tensor_transform_differs", fac["naive_differs"],
                detail=f"witness={fac['witness']}")
    for d in field.divisors():
        sub_f = fr.subfield_fourier(field, d)
        pi = hs.subspace_projector(field, d)
        rep.add(f"subfield_unitary[d={d}]",
                (sub_f @ sub_f.adjoint()).equals(pi))
        sf2 = sub_f @ sub_f
        rep.add(f"subfield_fourth_power[d={d}]", (sf2 @ sf2).equals(pi))
        rel = fr.subfield_power_relation_check(field, d)
        rep.add(f"subfield_power_relation[d={d}]", rel["holds"],
                detail=f"power={rel['power']}")
    return rep


# ---------------------------------------------------------------------------
# frobenius suite


def frobenius_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rep = SuiteReport("frobenius", _desc(field))
    ring = hs.ring_for(field)
    q, ell = field.order, field.ell
    g = fb.frobenius_monomial(field)
    g_dense = fb.frobenius_matrix(field)
    ident = OperatorMatrix.identity(ring, q)

    rep.add("order_divides_ell", (g ** ell) == Monomial.identity(ring, q))
    rep.add("unitary", (g_dense @ g_dense.adjoint()).equals(ident))
    rep.add("is_permutation", sorted(g.perm) == list(range(q))
            and all(ph == 0 for ph in g.phase))

    f = fr.fourier_matrix(field)
    comm = fb.frobenius_fourier_commutation_check(field)
    rep.add("commutes_with_fourier", comm["commutes_with_fourier"])
    rep.add("commutes_with_fourier_projectors", comm["commutes_with_projectors"])

    ok = True
    for d in field.divisors():
        pi = hs.subspace_projector(field, d)
        if not (g_dense @ pi).equals(pi @ g_dense):
            ok = False
    rep.add("commutes_with_subspace_projectors", ok)

    ok = True
    for d in field.divisors():
        members = fb.galois_group_H(field, d)
        if len(members) != ell // d:
            ok = False
        pi = hs.subspace_projector(field, d)
        for mat in members:
            if not (mat @ pi).equals(pi):
                ok = False
    rep.add("galois_groups_fix_subspaces", ok)

    spec = fb.frobenius_spectrum(field)
    total = spec.projectors[0]
    for pr in spec.projectors[1:]:
        total = total + pr
    rep.add("projectors_resolve_identity", total.equals(ident))
    zero = OperatorMatrix.zeros(ring, q)
    ok = True
    for lam in range(ell):
        for mu in range(ell):
            prod = spec.projectors[lam] @ spec.projectors[mu]
            want = spec.projectors[lam] if lam == mu else zero
            if not prod.equals(want):
                ok = False
    rep.add("projectors_orthogonal_idempotent", ok)
    step = ring.order // ell
    recon = spec.projectors[0]
    for lam in range(1, ell):
        recon = recon + spec.projectors[lam].scaled(ring.root(lam * step))
    rep.add("eigen_reconstruction", recon.equals(g_dense))
    ok = all((f @ pr).equals(pr @ f) for pr in spec.projectors)
    rep.add("projectors_commute_with_fourier", ok)

    ok = True
    for d in field.divisors():
        cont = fb.subfield_containment_check(field, d)
        if not (cont["left"] and cont["right"]):
            ok = False
    rep.add("subspace_inside_combined_eigenspace", ok)

    ranks = spec.ranks
    rep.add("projector_ranks_partition",
            sum(ranks) == q and all(r >= 0 for r in ranks),
            detail=f"ranks={ranks}")
    return rep


# ---------------------------------------------------------------------------
# heisenberg suite


def heisenberg_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 2)
    rep = SuiteReport("heisenberg", _desc(field))
    if field.p == 2:
        rep.skip("all", "characteristic 2: displacement phases undefined")
        return rep
    ring = hs.ring_for(field)
    q = field.order
    coeff = config.displacement_phase_coeff

    def dmono(a, b):
        return hb.displacement_monomial(field, a, b, phase_coeff=coeff)

    exhaustive_pairs = q <= 27
    labels = [(a, b) for a in range(q) for b in range(q)]
    cache = {lab: dmono(*lab) for lab in labels}
    half = field.two_inverse
    n_order = ring.order
    step = n_order // field.p
    tables = field.tables()
    tr_prod = tables.trace[tables.mul]  # Tr(a b)

    if exhaustive_pairs:
        # Vectorised comparison of the constructed monomial data over every
        # pair of labels: perms and phases of the composed operator against
        # the displacement at the summed label with the half-trace phase.
        perm_of = [np.array(cache[(0, b)].perm, dtype=np.int64) for b in range(q)]
        ok = all(cache[(a, b)].perm == cache[(0, b)].perm for a, b in labels)
        # stacked phase tables: phases[b][a, m] is the phase row of D(a, b)
        phases = [np.array([cache[(a, b)].phase for a in range(q)],
                           dtype=np.int64) for b in range(q)]
        for b1 in range(q):
            if not ok:
                break
            p1 = perm_of[b1]
            for b2 in range(q):
                p2 = perm_of[b2]
                b3 = field.add_index(b1, b2)
                if not np.array_equal(p1[p2], perm_of[b3]):
                    ok = False
                    break
                ph_b2 = phases[b2]
                ph_b3 = phases[b3]
                for a1 in range(q):
                    f1_at = phases[b1][a1][p2]
                    base_rows = ph_b3[tables.add[a1]]
                    # shift[a2] = omega exponent of the composition phase
                    shift = (step * ((half * (tr_prod[a1, b2]
                                              - tr_prod[b1])) % field.p)) % n_order
                    delta = (ph_b2 + f1_at[np.newaxis, :]
                             - base_rows - shift[:, np.newaxis]) % n_order
                    if delta.any():
                        ok = False
                        break
                if not ok:
                    break
        rep.add("composition_law", ok, detail=f"pairs={q**4}")
    else:
        ok = True
        for _ in range(400):
            a1, b1, a2, b2 = (rng.randrange(q) for _ in range(4))
            lhs = cache[(a1, b1)] @ cache[(a2, b2)]
            ph = half * (field.trace_index(field.mul_index(a1, b2))
                         - field.trace_index(field.mul_index(b1, a2)))
            rhs = cache[(field.add_index(a1, a2),
                         field.add_index(b1, b2))].scaled_by_omega(ph)
            if lhs != rhs:
                ok = False
                break
        rep.add("composition_law", ok, detail="pairs=400 sampled")

    ok = all(cache[(a, b)].adjoint()
             == cache[(field.neg_index(a), field.neg_index(b))]
             for a, b in labels)
    rep.add("adjoint_negates_label", ok)

    # F D(a, b) = D(b, -a) F compared through the root-exponent tables of
    # both sides (every entry of either side is p^(-ell/2) zeta^e)
    f_exp = (step * tr_prod) % n_order
    ok = True
    for a, b in labels:
        mono = cache[(a, b)]
        perm = np.array(mono.perm, dtype=np.int64)
        phase = np.array(mono.phase, dtype=np.int64)
        lhs = f_exp[:, perm] + phase[np.newaxis, :]
        other = cache[(b, field.neg_index(a))]
        inv = np.empty(q, dtype=np.int64)
        inv[np.array(other.perm)] = np.arange(q)
        oph = np.array(other.phase, dtype=np.int64)
        rhs = oph[inv][:, np.newaxis] + f_exp[inv, :]
        if ((lhs - rhs) % n_order).any():
            ok = False
            break
    rep.add("fourier_maps_labels", ok)

    g = fb.frobenius_monomial(field)
    ok = True
    for lam in range(field.ell):
        gl = g ** lam
        gli = gl.adjoint()
        for a, b in labels:
            lhs = (gl @ cache[(a, b)]) @ gli
            rhs = dmono(field.frobenius_index(a, lam), field.frobenius_index(b, lam))
            if lhs != rhs:
                ok = False
                break
    rep.add("frobenius_maps_labels", ok)

    ok = True
    for d in field.divisors():
        gd = g ** d
        gdi = gd.adjoint()
        for a in field.subfield_indices(d):
            for b in field.subfield_indices(d):
                dd = dmono(a, b)
                if (gd @ dd) @ gdi != dd:
                    ok = False
    rep.add("subfield_labels_fixed_by_frobenius", ok)

    ortho_pairs = ([(x, y) for x in labels for y in labels] if q <= 9 else
                   [(rng.choice(labels), rng.choice(labels)) for _ in range(300)])
    ok = True
    for lab1, lab2 in ortho_pairs:
        tr = (cache[lab1].adjoint() @ cache[lab2]).trace()
        want = ring.from_int(q) if lab1 == lab2 else ring.zero
        if tr != want:
            ok = False
            break
    rep.add("orthogonality_under_trace", ok)

    if coeff is None:
        ok = True
        for _ in range(5):
            theta = _random_matrix(field, rng)
            if not hb.weyl_reconstruct(field, hb.weyl_expand(field, theta)).equals(theta):
                ok = False
        rep.add("weyl_expansion_round_trip", ok)

        ident = OperatorMatrix.identity(ring, q)
        rep.add("resolution_of_identity[theta=identity]",
                hb.resolution_of_identity_check(field, ident)["holds"])
        rep.add("resolution_of_identity[theta=point_projector]",
                hb.resolution_of_identity_check(
                    field, hs.point_projector(field, 0))["holds"])
        rank_one = _random_rank_one(field, rng)
        rep.add("resolution_of_identity[theta=random_rank_one]",
                hb.resolution_of_identity_check(field, rank_one)["holds"])
        chi = _random_state(field, rng)
        psi = hs.phi_basis(field, 0)
        rep.add("overcomplete_expansion",
                hb.overcomplete_expansion_check(field, psi, chi)["holds"])

        marg = hb.marginal_projectors(field)
        rep.add("marginal_alpha_sums", marg["alpha_sums"])
        rep.add("marginal_beta_sums", marg["beta_sums"])

        ok = True
        for d in field.divisors():
            sub = field.subfield_indices(d)
            for a in sub:
                for b in sub:
                    if not hb.subfield_power_relation_check(field, d, a, b)["holds"]:
                        ok = False
        rep.add("subfield_displacement_power_relation", ok)

        ok = True
        for d in field.divisors():
            sub = field.subfield_indices(d)
            if field.p ** d <= 9:
                chosen = list(sub)
            else:
                chosen = [sub[rng.randrange(len(sub))] for _ in range(3)]
            res = hb.subfield_fourier_intertwining_check(field, d, chosen)
            if not (res["z_to_shift"] and res["shift_to_z"] and res["braiding"]):
                ok = False
        rep.add("subfield_generator_fourier_intertwining", ok)

    if field.ell >= 2:
        z_gen = hb.z_monomial(field, field.generator)
        rep.add("frobenius_not_commuting_with_generator_phase",
                (g @ z_gen) != (z_gen @ g))
    if (field.p, field.ell, field.modulus) == (3, 2, hb.GF9_FIXTURE_MODULUS):
        ex = hb.z_spectrum_example(field)
        rep.add("spectrum_example",
                ex["z"]["decomposition"] and ex["z_eps"]["decomposition"]
                and ex["families_differ"]
                and ex["z"]["ranks"] == (3, 3, 3) and ex["z_eps"]["ranks"] == (3, 3, 3))
    return rep


# ---------------------------------------------------------------------------
# symplectic suite


def _sample_params(field: GFField, rng, count: int):
    out = []
    els = field.elements()
    nonzero = els[1:]
    while len(out) < count:
        r = rng.choice(els)
        if r.is_zero:
            t = rng.choice(nonzero)
            out.append(sp.SymplecticParams(r=field.zero, s=-t.inverse(), t=t,
                                           u=rng.choice(els)))
        else:
            out.append(sp.SymplecticParams.from_rst(
                field, r, rng.choice(els), rng.choice(els)))
    return out


def symplectic_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 3)
    rep = SuiteReport("symplectic", _desc(field))
    if field.p == 2:
        rep.skip("all", "characteristic 2: quadratic phases undefined")
        return rep
    ring = hs.ring_for(field)
    q = field.order
    ident = OperatorMatrix.identity(ring, q)
    els = field.elements()
    nonzero = els[1:]

    scale_pairs = ([(x, y) for x in nonzero for y in nonzero] if q <= 9 else
                   [(rng.choice(nonzero), rng.choice(nonzero)) for _ in range(40)])
    ok = all((sp.generator_scaling(field, x) @ sp.generator_scaling(field, y))
             == sp.generator_scaling(field, x * y) for x, y in scale_pairs)
    rep.add("scaling_subgroup_law", ok)

    shear_pairs = ([(x, y) for x in els for y in els] if q <= 9 else
                   [(rng.choice(els), rng.choice(els)) for _ in range(40)])
    ok = all((sp.generator_shear_z(field, x) @ sp.generator_shear_z(field, y))
             == sp.generator_shear_z(field, x + y) for x, y in shear_pairs)
    rep.add("diagonal_shear_additive_law", ok)
    ok = all((sp.generator_shear_z(field, x) ** field.p)
             == Monomial.identity(ring, q) for x in els)
    rep.add("diagonal_shear_char_power_is_identity", ok)

    check_xis = els if q <= 9 else [field.zero, field.one, rng.choice(els)]
    ok = all(sp.generator_shear_x(field, x).equals(sp.shear_x_closed_form(field, x))
             for x in check_xis)
    rep.add("conjugated_shear_matches_element_sum", ok)
    xpairs = shear_pairs if q <= 9 else [(rng.choice(els), rng.choice(els))
                                         for _ in range(6)]
    ok = all((sp.generator_shear_x(field, x) @ sp.generator_shear_x(field, y))
             .equals(sp.generator_shear_x(field, x + y)) for x, y in xpairs)
    rep.add("conjugated_shear_additive_law", ok)
    ok = all(sp.generator_shear_x(field, x).is_unitary() for x in check_xis)
    rep.add("conjugated_shear_unitary", ok)

    nonzero_a = nonzero if q <= 27 else [rng.choice(nonzero) for _ in range(10)]
    ok = all((lambda gv: gv.value * gv.value.conj() == ring.from_int(q))(
        sp.gauss_sum(field, a)) for a in nonzero_a)
    rep.add("gauss_sum_magnitude", ok)
    rep.add("gauss_sum_at_zero", sp.gauss_sum(field, 0).value == ring.from_int(q))

    # action-law labels: the power basis {eps^k : k < ell}, which spans
    # GF(p^ell) over Z_p ({1, eps} does so only for ell <= 2)
    gen_labels = [field.generator ** k for k in range(field.ell)]
    # exhaustive group sweeps by default only at q <= 9; the flag extends
    # the sweep to q <= 27 (beyond that the group is too large to enumerate
    # usefully at desk scale)
    if q <= 9 or (config.exhaustive and q <= 27):
        group = sp.enumerate_group(field)
        rep.add("group_order_count", len(group) == q * (q * q - 1),
                detail=f"count={len(group)}")
        ok = bool(sp.action_sweep(field, group, gen_labels).all())
        rep.add("action_law_exhaustive", ok, detail=f"elements={len(group)}")
    else:
        rep.add("group_order_count",
                len(sp.enumerate_group(field)) == q * (q * q - 1))
        sampled = _sample_params(field, rng, 8)
        sampled.append(sp.fourier_params(field))
        ok = bool(sp.action_sweep(field, sampled, gen_labels).all())
        rep.add("action_law_sampled", ok, detail=f"elements={len(sampled)}")

    # conjugation action is a homomorphism on labels
    hom_pairs = [(rng.choice(_sample_params(field, rng, 1)),
                  rng.choice(_sample_params(field, rng, 1))) for _ in range(6)]
    ok = True
    for p1, p2 in hom_pairs:
        prod = sp.SymplecticParams(
            r=p1.t * p2.s + p1.r * p2.r, s=p1.u * p2.s + p1.s * p2.r,
            t=p1.t * p2.u + p1.r * p2.t, u=p1.u * p2.u + p1.s * p2.t)
        for a in (field.one, field.generator):
            for b in (field.zero, field.one):
                if prod.apply(a, b) != p1.apply(*p2.apply(a, b)):
                    ok = False
    rep.add("label_action_homomorphism", ok)

    # closed form vs synthesis
    valid = [params for params in sp.enumerate_group(field)
             if not (params.r.is_zero or params.t.is_zero
                     or (params.s * params.t + 1).is_zero)]
    if len(valid) > 50:
        valid = [valid[rng.randrange(len(valid))] for _ in range(50)]
    ok = True
    all_unit = True
    for params in valid:
        res = sp.closed_form_elements_check(field, params)
        if not res["proportional"]:
            ok = False
        if not res["phase_is_one"]:
            all_unit = False
    rep.add("closed_form_matches_synthesis", ok,
            detail=f"triples={len(valid)}, phase_one={all_unit}")

    sampled = _sample_params(field, rng, 3)
    ok = all(sp.synthesize(field, params).is_unitary() for params in sampled)
    rep.add("synthesis_unitary", ok)

    ok = True
    for params in _sample_params(field, rng, 2):
        res = sp.frobenius_action_check(field, params)
        if not res["covariant"]:
            ok = False
    base_params = sp.SymplecticParams.from_rst(field, field.one, field.one,
                                               field.element(2))
    res = sp.frobenius_action_check(field, base_params, subfield_d=1)
    ok = ok and res["covariant"] and res["subfield_fixed"]
    rep.add("frobenius_covariance", ok)

    tm_params = [sp.SymplecticParams.from_rst(field, field.one, field.zero,
                                              field.zero)]
    tm_params += _sample_params(field, rng, 1)
    if (field.p, field.ell, field.modulus) == (3, 2, hb.GF9_FIXTURE_MODULUS):
        tm_params.append(sp.SymplecticParams.from_rst(
            field, field.one, field.one + field.generator, field.generator))
    ok = True
    for params in tm_params:
        res = sp.transformed_marginals(field, params)
        if not (res["alpha_sums"] and res["beta_sums"]):
            ok = False
    rep.add("transformed_marginals", ok)

    if (field.p, field.ell, field.modulus) == (3, 2, hb.GF9_FIXTURE_MODULUS):
        wit = sp.non_factorization_witness(field)
        rep.add("non_factorization_witness",
                wit["not_tensor_product"] and wit["x_eps_is_identity_tensor_shift"]
                and wit["diag_image_matches"]
                and wit["diag_image_factor_pair"] == ((1, 1), (0, 2)))
    return rep


# ---------------------------------------------------------------------------
# float suite


def float_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    """Re-run the headline identities on embedded complex numpy arrays."""
    config = config or VerifyConfig()
    tol = config.tolerance
    rng = random.Random(config.seed + 4)
    rep = SuiteReport("float", _desc(field))
    q = field.order
    f = fr.fourier_matrix(field).embed()
    eye = np.eye(q, dtype=complex)

    rep.add("unitary", np.linalg.norm(f @ f.conj().T - eye) <= tol)
    rep.add("fourth_power_is_identity",
            np.linalg.norm(np.linalg.matrix_power(f, 4) - eye) <= tol)

    projs = [pr.embed() for pr in fr.fourier_spectrum(field).projectors]
    ok = np.linalg.norm(sum(projs) - eye) <= tol
    for r in range(4):
        for s in range(4):
            want = projs[r] if r == s else 0
            ok = ok and np.linalg.norm(projs[r] @ projs[s] - want) <= tol
    recon = projs[0] + 1j * projs[1] - projs[2] - 1j * projs[3]
    ok = ok and np.linalg.norm(recon - f) <= tol
    rep.add("fourier_spectral_algebra", ok)

    g = fb.frobenius_matrix(field).embed()
    rep.add("frobenius_order",
            np.linalg.norm(np.linalg.matrix_power(g, field.ell) - eye) <= tol)
    rep.add("frobenius_commutes_with_fourier",
            np.linalg.norm(f @ g - g @ f) <= tol)
    ok = True
    for d in field.divisors():
        pi = hs.subspace_projector(field, d).embed()
        if np.linalg.norm(g @ pi - pi @ g) > tol:
            ok = False
    rep.add("frobenius_commutes_with_subspace_projectors", ok)

    fprojs = [pr.embed() for pr in fb.frobenius_spectrum(field).projectors]
    root = np.exp(2j * np.pi / field.ell)
    recon = sum(fprojs[k] * root ** k for k in range(field.ell))
    rep.add("frobenius_spectral_algebra",
            np.linalg.norm(sum(fprojs) - eye) <= tol
            and np.linalg.norm(recon - g) <= tol)

    if field.p != 2:
        dm = {}

        def dfl(a, b):
            if (a, b) not in dm:
                dm[(a, b)] = hb.displacement(field, a, b).embed()
            return dm[(a, b)]

        half = field.two_inverse
        ok = True
        for _ in range(40):
            a1, b1, a2, b2 = (rng.randrange(q) for _ in range(4))
            ph = half * (field.trace_index(field.mul_index(a1, b2))
                         - field.trace_index(field.mul_index(b1, a2)))
            w = np.exp(2j * np.pi * (ph % field.p) / field.p)
            lhs = dfl(a1, b1) @ dfl(a2, b2)
            rhs = w * dfl(field.add_index(a1, a2), field.add_index(b1, b2))
            if np.linalg.norm(lhs - rhs) > tol:
                ok = False
        rep.add("displacement_composition", ok)

        ok = True
        for _ in range(20):
            a, b = rng.randrange(q), rng.randrange(q)
            lhs = f @ dfl(a, b) @ f.conj().T
            if np.linalg.norm(lhs - dfl(b, field.neg_index(a))) > tol:
                ok = False
        rep.add("fourier_maps_labels", ok)

        par = hb.parity_monomial(field).to_matrix().embed()
        half_el = field.element(half)
        ok = True
        for idx in [0, 1, q - 1]:
            el = field.element(idx)
            lhs = hb.marginal_sum_alpha(field, el).embed()
            proj = hs.point_projector(field, -(half_el * el)).embed()
            if np.linalg.norm(lhs - par @ proj) > tol:
                ok = False
        rep.add("marginal_alpha_sums", ok)

        total = np.zeros((q, q), dtype=complex)
        q0 = hs.point_projector(field, 0).embed()
        for a in range(q):
            for b in range(q):
                d = dfl(a, b)
                total += d @ q0 @ d.conj().T
        rep.add("resolution_of_identity",
                np.linalg.norm(total / q - eye) <= tol)

        params = _sample_params(field, rng, 2)
        ok = True
        for pr in params:
            s_op = sp.synthesize(field, pr).embed()
            if np.linalg.norm(s_op @ s_op.conj().T - eye) > tol:
                ok = False
            za = hb.z_power(field, field.one).embed()
            target = hb.displacement(field, *pr.apply(field.one, field.zero)).embed()
            if np.linalg.norm(s_op @ za @ s_op.conj().T - target) > tol:
                ok = False
        rep.add("symplectic_action", ok)
    return rep


# ---------------------------------------------------------------------------
# runners


_SUITES = {
    "gf": gf_suite,
    "fourier": fourier_suite,
    "frobenius": frobenius_suite,
    "heisenberg": heisenberg_suite,
    "symplectic": symplectic_suite,
    "float": float_suite,
}


def run_suite(field: GFField, name: str, config: VerifyConfig | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITES[name](field, config)


def run_all(field: GFField, config: VerifyConfig | None = None) -> list[SuiteReport]:
    config = config or VerifyConfig()
    return [run_suite(field, name, config) for name in SUITE_NAMES]

"""Extended strong duals built from certificate chains.

For a program  sup <c, x> : b - Ax in K  over PSD blocks, the dual of the
minimal cone can be written as the projection of a conic linear system in
sequences (u_i, v_i), i = 0..L+1: the u_i live in the dual cone, the v_i in
the tangent space of the dual cone at a base point determined by earlier
u_j, and the combinations u_i + v_i are orthogonal to the problem data.
Substituting that projection into the ordinary dual yields a minimization
program whose value always equals the primal value and is attained - a
Ramana-type dual - at the price of L extra variable layers.

Four variants of the tangent encoding are built here.  Each inserts, per
PSD block and layer i >= 2, a bordered block

    [[ S_i, w_i ], [ w_i^T, D_i ]]  psd,   v_i = w_i + w_i^T,

with S_i the running sum u_0 + ... + u_{i-1} ("star") or just u_{i-1}
("simple", "primed", "ramana"), and D_i a free multiple beta_i of the
identity ("star", "simple") or the identity itself ("primed", "ramana").
The "ramana" variant additionally eliminates the v_i, writing every
occurrence as w_i + w_i^T.  Layer 1 carries only u_1: the tangent space at
zero is trivial, so v_1 = w_1 = 0 and they are not materialized.

The equality constraints are eliminated by parameterizing the variable
vector over their solution set, so the emitted program is a plain conic
program in sup-form that the subsolver (or any SDPA-reading solver, via
emit_sdpa) can handle; the parameterization is shifted to make the sup-form
objective carry no constant whenever possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .faces import in_tangent_space, split_on_face
from .linalg import _packed_index, _svec, _unsvec
from .model import ConeBlock, ConicProgram, YElement, adjoint_apply
from .reduction import VerificationReport, compute_ell
from .solver import SolverError, SolverOptions, SolveStatus, solve_conic_lp

VARIANTS = ("star", "simple", "primed", "ramana")


def lift_to_psd(p: ConicProgram) -> ConicProgram:
    """Embed orthant blocks as diagonal PSD blocks (identity on pure-PSD
    programs); the explicit tangent encodings are PSD-specific."""
    if all(blk.kind == "psd" for blk in p.blocks):
        return p
    blocks = tuple(ConeBlock("psd", blk.size) for blk in p.blocks)

    def lift(y):
        parts = []
        for blk, part in zip(p.blocks, y.parts):
            parts.append(np.diag(part) if blk.kind == "orthant" else part)
        return YElement(blocks, parts)

    return ConicProgram(blocks, [lift(ai) for ai in p.a], lift(p.b), p.c,
                        name=(p.name + " lifted").strip())


@dataclass
class ExtendedDualPoint:
    """Candidate for the layered systems: sequences u_i, v_i (elements),
    per-block witness matrices w_i, and scalars beta_i, i = 0..L+1."""

    us: list
    vs: list
    ws: list     # ws[i]: list of per-block square matrices (zeros at i <= 1)
    betas: list  # betas[i]: float

    @property
    def depth(self) -> int:
        return len(self.us) - 2

    def final_dual_point(self) -> YElement:
        return self.us[-1] + self.vs[-1]


class _Layout:
    """Index bookkeeping for the stacked variable vector."""

    def __init__(self):
        self.slices = {}
        self.size = 0

    def add(self, key, length):
        self.slices[key] = slice(self.size, self.size + length)
        self.size += length

    def __contains__(self, key):
        return key in self.slices

    def __getitem__(self, key):
        return self.slices[key]


# The builder's variables hold the plain upper-triangle entries of each
# symmetric block (``_svec`` with off-diagonal weight 1); weight 2 turns a
# matrix g into the functional <g, .> on that packing.
def _packed_len(n):
    return n * (n + 1) // 2


@dataclass
class ExtendedDualProgram:
    """An extended dual, encoded as a solvable sup-form conic program.

    The dual minimizes <b, u_{L+1} + v_{L+1}> over the layered system; after
    eliminating the equality constraints via ``z = z_particular +
    null_basis @ s`` the remaining cone constraints become the slack of
    ``program``.  The dual's value is ``offset - (sup value of program)``.

    The layout, the objective and the elimination are computed by
    build_extended_dual.  The encoded ``program`` (its cone-output maps and
    one constraint element per null-basis column) is built on first read and
    then kept; solving through the assembled point never reads it.
    """

    variant: str
    ell: int
    source: ConicProgram          # lifted problem the dual was built from
    layout: dict
    nz: int
    z_particular: np.ndarray
    null_basis: np.ndarray
    objective: np.ndarray         # q with <q, z> the dual objective
    offset: float
    name: str                     # name of the encoded program

    def z_from_solution(self, s) -> np.ndarray:
        return self.z_particular + self.null_basis @ np.asarray(s, dtype=float)

    def value_of(self, res) -> float:
        return self.offset - res.primal_obj

    @cached_property
    def program(self) -> ConicProgram:
        """The encoded sup-form program: one PSD output per layer and block
        for u_i, and one bordered block per layer i >= 2 and block."""
        sizes = [blk.size for blk in self.source.blocks]
        layout, nz = self.layout, self.nz
        out_blocks, phi_rows, phi0_rows = [], [], []

        def add_output(size):
            """Linear part and constant of one square output, row-major."""
            lin = np.zeros((size * size, nz))
            const = np.zeros(size * size)
            out_blocks.append(ConeBlock("psd", size))
            phi_rows.append(lin)
            phi0_rows.append(const)
            return lin, const

        def put_packed(lin, size, key, n):
            """Add the packed symmetric variable ``key`` to the leading n x n
            corner of a size x size output."""
            cols = np.arange(layout[key].start, layout[key].stop)
            k, l, _ = _packed_index(n, 1.0)
            lin[k * size + l, cols] += 1.0
            off = k != l
            lin[l[off] * size + k[off], cols[off]] += 1.0

        for i in range(1, self.ell + 2):
            for bi, n in enumerate(sizes):
                lin, _ = add_output(n)
                put_packed(lin, n, ("u", i, bi), n)
        for i in range(2, self.ell + 2):
            for bi, n in enumerate(sizes):
                size = 2 * n
                lin, const = add_output(size)
                uppers = range(1, i) if self.variant == "star" else [i - 1]
                for j in uppers:
                    put_packed(lin, size, ("u", j, bi), n)
                # w_i fills the off-diagonal corners, w_i^T mirrored below.
                k, l = np.divmod(np.arange(n * n), n)
                wcols = layout[("w", i, bi)].start + k * n + l
                lin[k * size + (n + l), wcols] += 1.0
                lin[(n + l) * size + k, wcols] += 1.0
                diag = (n + np.arange(n)) * (size + 1)
                if ("beta", i) in layout:
                    lin[diag, layout[("beta", i)].start] += 1.0
                else:
                    const[diag] += 1.0

        phi = np.vstack(phi_rows)
        phi0 = np.concatenate(phi0_rows)
        slack0 = phi0 + phi @ self.z_particular
        cols = phi @ self.null_basis

        def as_parts(flat):
            parts, at = [], 0
            for blk in out_blocks:
                d = blk.size * blk.size
                parts.append(0.5 * (flat[at:at + d].reshape(blk.size, blk.size)
                                    + flat[at:at + d].reshape(blk.size, blk.size).T))
                at += d
            return parts

        b_prog = YElement(out_blocks, as_parts(slack0))
        a_prog = [YElement(out_blocks, as_parts(-cols[:, j]))
                  for j in range(self.null_basis.shape[1])]
        return ConicProgram(tuple(out_blocks), a_prog, b_prog,
                            -(self.null_basis.T @ self.objective),
                            name=self.name)


def build_extended_dual(p: ConicProgram, variant: str = "star",
                        ell_override: int = None) -> ExtendedDualProgram:
    """Construct the chosen extended-dual variant of ``p``.

    Orthant blocks are lifted to diagonal PSD blocks first.  The layer count
    defaults to compute_ell of the lifted program; ell = 0 collapses to the
    ordinary dual.  This lays out the variables, writes the equality rows and
    the objective, and eliminates the equalities (raising SolverError when
    they are inconsistent); the encoded program is left to the first read of
    ``.program``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if ell_override is not None and ell_override < 0:
        raise ValueError("layer count must be nonnegative")
    lifted = lift_to_psd(p)
    ell = compute_ell(lifted) if ell_override is None else int(ell_override)
    blocks = lifted.blocks
    sizes = [blk.size for blk in blocks]
    m = lifted.m
    has_v = variant != "ramana"
    has_beta = variant in ("star", "simple")

    layout = _Layout()
    for i in range(1, ell + 2):
        for bi, n in enumerate(sizes):
            layout.add(("u", i, bi), _packed_len(n))
        if i >= 2:
            for bi, n in enumerate(sizes):
                layout.add(("w", i, bi), n * n)
                if has_v:
                    layout.add(("v", i, bi), _packed_len(n))
            if has_beta:
                layout.add(("beta", i), 1)
    nz = layout.size

    # --- equality rows -----------------------------------------------------
    rows, rhs = [], []

    def data_row(i, g_funcs, target):
        """<g, u_i + v_i> = target, with v_i written through w_i when
        eliminated."""
        row = np.zeros(nz)
        for bi, g in enumerate(g_funcs):
            row[layout[("u", i, bi)]] += _svec(g, "psd", 2.0)
            if i >= 2:
                if has_v:
                    row[layout[("v", i, bi)]] += _svec(g, "psd", 2.0)
                else:
                    row[layout[("w", i, bi)]] += 2.0 * g.reshape(-1)
        rows.append(row)
        rhs.append(target)

    for i in range(1, ell + 1):
        for r in range(m):
            data_row(i, [part for part in lifted.a[r].parts], 0.0)
        data_row(i, [part for part in lifted.b.parts], 0.0)
    for r in range(m):
        data_row(ell + 1, [part for part in lifted.a[r].parts], lifted.c[r])

    if has_v:
        for i in range(2, ell + 2):
            for bi, n in enumerate(sizes):
                # v_i = w_i + w_i^T, one row per packed entry of v_i.
                k, l, _ = _packed_index(n, 1.0)
                at = np.arange(k.size)
                block = np.zeros((k.size, nz))
                block[at, layout[("v", i, bi)].start + at] = 1.0
                block[at, layout[("w", i, bi)].start + k * n + l] -= 1.0
                block[at, layout[("w", i, bi)].start + l * n + k] -= 1.0
                rows.extend(block)
                rhs.extend([0.0] * k.size)

    eq = np.array(rows).reshape(len(rows), nz)
    eq_rhs = np.array(rhs)

    # --- objective ----------------------------------------------------------
    q = np.zeros(nz)
    for bi, n in enumerate(sizes):
        coeffs = _svec(lifted.b.parts[bi], "psd", 2.0)
        q[layout[("u", ell + 1, bi)]] += coeffs
        if ell + 1 >= 2:
            if has_v:
                q[layout[("v", ell + 1, bi)]] += coeffs
            else:
                q[layout[("w", ell + 1, bi)]] += \
                    2.0 * np.asarray(lifted.b.parts[bi]).reshape(-1)

    # --- eliminate equalities ----------------------------------------------
    if eq.shape[0]:
        z_p, *_ = np.linalg.lstsq(eq, eq_rhs, rcond=None)
        resid = np.linalg.norm(eq @ z_p - eq_rhs)
        if resid > 1e-8 * (1.0 + np.linalg.norm(eq_rhs)):
            raise SolverError("extended dual equalities are inconsistent; "
                              "the ordinary dual is infeasible")
        _, svals, vt = np.linalg.svd(eq)
        rank = int(np.sum(svals > 1e-11 * (svals[0] if svals.size else 1.0)))
        null = vt[rank:].T
    else:
        z_p = np.zeros(nz)
        null = np.eye(nz)

    bn = null.T @ q
    offset = float(q @ z_p)
    if bn.size and np.linalg.norm(bn) > 1e-12:
        z_p = z_p - null @ (offset * bn / float(bn @ bn))
        offset = float(q @ z_p)

    return ExtendedDualProgram(variant, ell, lifted, dict(layout.slices), nz,
                               z_p, null, q, offset,
                               f"{p.name} extended-{variant}".strip())


def extract_dual_solution(ext: ExtendedDualProgram, res):
    """Recover the layered point and the dual element u_{L+1} + v_{L+1} from
    a solve of the encoded program."""
    if len(res.x) != ext.null_basis.shape[1]:
        raise ValueError("solution does not match the program layout")
    z = ext.z_from_solution(res.x)
    blocks = ext.source.blocks
    sizes = [blk.size for blk in blocks]
    zeros = YElement.zeros(blocks)
    us, vs, ws, betas = [zeros], [zeros], [[np.zeros((n, n)) for n in sizes]], [0.0]
    has_v = ext.variant != "ramana"
    for i in range(1, ext.ell + 2):
        u_parts = [_unsvec(z[ext.layout[("u", i, bi)]], "psd", n, 1.0)
                   for bi, n in enumerate(sizes)]
        us.append(YElement(blocks, u_parts))
        if i >= 2:
            w_i = [z[ext.layout[("w", i, bi)]].reshape(n, n)
                   for bi, n in enumerate(sizes)]
            if has_v:
                v_parts = [_unsvec(z[ext.layout[("v", i, bi)]], "psd", n, 1.0)
                           for bi, n in enumerate(sizes)]
            else:
                v_parts = [w + w.T for w in w_i]
            beta = float(z[ext.layout[("beta", i)]][0]) \
                if ("beta", i) in ext.layout else 1.0
        else:
            w_i = [np.zeros((n, n)) for n in sizes]
            v_parts = [np.zeros((n, n)) for n in sizes]
            beta = 0.0
        vs.append(YElement(blocks, v_parts))
        ws.append(w_i)
        betas.append(beta)
    pt = ExtendedDualPoint(us, vs, ws, betas)
    return pt, pt.final_dual_point()


def check_extended_point(p: ConicProgram, pt: ExtendedDualPoint,
                         variant: str = "star",
                         tol: float = None) -> VerificationReport:
    """Verify a layered point against the chosen system.

    Checks the zero start, cone membership of every u_i, the data
    orthogonality of the inner layers, the adjoint equation of the final
    layer, tangent membership of every v_i (pattern test plus, when a
    witness is present, the bordered-block certificate), and reports the
    objective value and adjoint residual on the report object.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if tol is None:
        tol = config.DEFAULT_TOL
    lifted = lift_to_psd(p)
    report = VerificationReport()
    blocks = lifted.blocks
    if pt.us[0].blocks != blocks:
        raise ValueError("point structure differs from the (lifted) program")
    depth = len(pt.us) - 2

    report.add("layer 0 is zero",
               pt.us[0].norm() <= tol and pt.vs[0].norm() <= tol)
    for i in range(1, depth + 2):
        report.add(f"u_{i} in the dual cone",
                   pt.us[i].min_eigenvalue() >= -tol,
                   f"min eigenvalue {pt.us[i].min_eigenvalue():.2e}")
    for i in range(1, depth + 1):
        y = pt.us[i] + pt.vs[i]
        resid = float(np.max(np.abs(np.concatenate(
            [adjoint_apply(lifted, y), [lifted.b.inner(y)]])), initial=0.0))
        report.add(f"layer {i} orthogonal to the data",
                   resid <= tol * (1.0 + y.norm()), f"residual {resid:.2e}")
    y_final = pt.final_dual_point()
    adj_resid = float(np.max(np.abs(adjoint_apply(lifted, y_final) - lifted.c),
                             initial=0.0))
    report.add("final layer satisfies the adjoint equation",
               adj_resid <= tol * (1.0 + float(np.max(np.abs(lifted.c),
                                                      initial=0.0))),
               f"residual {adj_resid:.2e}")

    running = YElement.zeros(blocks)
    for i in range(1, depth + 2):
        base = running if variant == "star" else pt.us[i - 1]
        for bi, blk in enumerate(blocks):
            ok = in_tangent_space(base.parts[bi], pt.vs[i].parts[bi],
                                  max(tol, 1e-8))
            report.add(f"v_{i} tangent at block {bi + 1}", ok)
        if pt.ws[i] is not None and i >= 2:
            for bi, blk in enumerate(blocks):
                n = blk.size
                w = np.asarray(pt.ws[i][bi])
                recomposed = float(np.max(np.abs(
                    pt.vs[i].parts[bi] - w - w.T), initial=0.0))
                report.add(f"w_{i} recomposes v_{i} at block {bi + 1}",
                           recomposed <= 1e-10 * (1.0 + np.max(np.abs(w), initial=0.0)),
                           f"residual {recomposed:.2e}")
                lower = pt.betas[i] * np.eye(n) \
                    if variant in ("star", "simple") else np.eye(n)
                bordered = np.block([[base.parts[bi], w], [w.T, lower]])
                lam = float(np.linalg.eigvalsh(bordered)[0])
                report.add(f"bordered block {i}/{bi + 1} psd", lam >= -tol,
                           f"min eigenvalue {lam:.2e}")
        running = running + pt.us[i]

    report.objective = lifted.b.inner(y_final)
    report.adjoint_residual = adj_resid
    return report


def _regularized_dual_solution(lifted, cert, options):
    """Optimal point of  inf <b, y> : A* y = c, y in (minimal cone)*  -
    attained because the face-restricted primal satisfies Slater's
    condition: the dual of the face-restricted solve."""
    from .reducing import solve_restricted_to_face

    res = solve_restricted_to_face(lifted, cert.minimal_face, options)
    if res.status is not SolveStatus.OPTIMAL:
        raise SolverError("face-restricted solve did not reach optimality")
    resid = float(np.max(np.abs(adjoint_apply(lifted, res.y) - lifted.c),
                         initial=0.0))
    if resid > 1e-6 * (1.0 + float(np.max(np.abs(lifted.c), initial=0.0))):
        raise SolverError(f"regularized dual reconstruction residual {resid:.2e}")
    return res.y


def _tangent_witness(base_parts, v_parts, blocks):
    """Per-block certificate (w, beta) for v in the tangent space at base."""
    from .faces import tangent_membership_schur

    ws, beta = [], 1.0
    for blk, base, v in zip(blocks, base_parts, v_parts):
        ok, wit = tangent_membership_schur(base, v, tol=1e-6)
        if not ok:
            raise SolverError("assembled layer leaves the tangent space")
        ws.append(wit[0])
        beta = max(beta, wit[1])
    return ws, beta


class _ChainTooLong(SolverError):
    """The reduction chain needs more layers than the extended dual has."""


def assemble_optimal_point(p: ConicProgram, variant: str = "star",
                           ell: int = None,
                           options: SolverOptions = None) -> ExtendedDualPoint:
    """Construct an optimal point of the chosen extended dual from a facial
    reduction run of the source program.

    The reduction chain, decomposed into cone and complement parts, provides
    the inner layers; the final layer is the attained optimum of the dual
    regularized by the minimal cone.  The "simple" family takes cumulative
    sums of the chain, and the identity-block variants additionally rescale
    the layers so the fixed identity suffices as the bordered block's lower
    corner.  Requires ell at least the chain length.
    """
    from .reduction import decompose_certificates, run_facial_reduction

    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    options = options or SolverOptions()
    lifted = lift_to_psd(p)
    cert = run_facial_reduction(lifted, options=options)
    if ell is None:
        ell = cert.ell
    if cert.steps > ell:
        raise _ChainTooLong(
            f"chain of length {cert.steps} does not fit in {ell} layers")
    dec = decompose_certificates(lifted, cert)
    y_final = _regularized_dual_solution(lifted, cert, options)
    u_fin, v_fin = split_on_face(cert.minimal_face, y_final)

    blocks = lifted.blocks
    zeros = YElement.zeros(blocks)
    if variant == "star":
        us = list(dec.us) + [zeros] * (ell - cert.steps) + [u_fin]
        vs = list(dec.vs) + [zeros] * (ell - cert.steps) + [v_fin]
    else:
        cum_u, cum_v = [zeros], [zeros]
        for i in range(1, cert.steps + 1):
            cum_u.append(cum_u[-1] + dec.us[i])
            cum_v.append(cum_v[-1] + dec.vs[i])
        while len(cum_u) < ell + 1:
            cum_u.append(cum_u[-1])
            cum_v.append(cum_v[-1])
        us = cum_u + [u_fin]
        vs = cum_v + [v_fin]

    # Witnesses per layer (the certificate for v_i at the variant's base).
    bases = []
    running = zeros
    for i in range(1, ell + 2):
        bases.append(running if variant == "star" else us[i - 1])
        running = running + us[i]
    wit_list, beta_list = [[np.zeros((blk.size, blk.size)) for blk in blocks]], [0.0]
    for i in range(1, ell + 2):
        if i == 1:
            wit_list.append([np.zeros((blk.size, blk.size)) for blk in blocks])
            beta_list.append(0.0)
            continue
        w_i, beta_i = _tangent_witness(bases[i - 1].parts, vs[i].parts, blocks)
        wit_list.append(w_i)
        beta_list.append(beta_i)

    if variant in ("primed", "ramana"):
        # Rescale layers backward so each bordered block closes with the
        # fixed identity: if [[u, w], [w^T, beta I]] is psd then so is
        # [[lam^2 beta u, lam w], [lam w^T, I]]; choosing lam_{i-1} =
        # lam_i^2 max(beta_i, 1) makes every layer's certificate exact.
        lam = [1.0] * (ell + 2)
        for i in range(ell + 1, 1, -1):
            lam[i - 1] = lam[i] ** 2 * max(beta_list[i], 1.0)
        for i in range(1, ell + 1):
            us[i] = lam[i] * us[i]
            vs[i] = lam[i] * vs[i]
        for i in range(2, ell + 2):
            wit_list[i] = [lam[i] * w for w in wit_list[i]]
            beta_list[i] = 1.0

    return ExtendedDualPoint(us, vs, wit_list, beta_list)


def solve_extended_dual(ext: ExtendedDualProgram,
                        options: SolverOptions = None):
    """Optimal value and optimal point of the extended dual: (value, point).

    The point is assembled from a facial reduction of the source program:
    the chain supplies the inner layers and the attained optimum of the dual
    regularized by the minimal cone the final layer.  The extended dual is a
    valid dual, so a feasible point of it whose objective reaches the primal
    value is optimal; the point is verified against the variant's system and
    its objective is the value.  A point that fails verification raises
    SolverError.  Only when the chain does not fit in ``ell`` layers (for
    instance ell = 0, the ordinary dual) is the encoded program solved
    directly, and a solve that ends infeasible or unbounded raises
    SolverError.
    """
    options = options or SolverOptions()
    try:
        pt = assemble_optimal_point(ext.source, ext.variant, ext.ell, options)
    except _ChainTooLong:
        res = solve_conic_lp(ext.program, options)
        if res.status not in (SolveStatus.OPTIMAL,
                              SolveStatus.NUMERICAL_FAILURE):
            raise SolverError(f"extended dual solve ended {res.status.value}")
        pt, _ = extract_dual_solution(ext, res)
        return ext.value_of(res), pt
    report = check_extended_point(ext.source, pt, ext.variant)
    if not report.ok:
        failed = ", ".join(c.name for c in report.failures())
        raise SolverError(f"assembled extended dual point fails: {failed}")
    return report.objective, pt


def fmin_membership(p: ConicProgram, s: YElement, tol: float = None) -> bool:
    """Decide membership of ``s`` in the minimal cone of ``p`` without
    running facial reduction: s belongs to it exactly when s is squeezed
    between zero and a scaled feasible slack, which is a conic feasibility
    problem in the original variables plus one scale.

    Solved in a normalized form bounding the squeeze coefficient, so the
    optimal value separates members (1) from non-members (0) cleanly.
    """
    if tol is None:
        tol = config.DEFAULT_TOL
    if s.blocks != p.blocks:
        raise ValueError("point structure differs from program")
    if not s.in_cone(tol):
        return False
    extra = ConeBlock("orthant", 2)
    blocks = p.blocks + (extra,)

    def widen(y, tail):
        return YElement(blocks, list(y.parts) + [np.asarray(tail, dtype=float)])

    a_cols = [widen(ai, [0.0, 0.0]) for ai in p.a]
    a_cols.append(widen(-1.0 * p.b, [-1.0, 0.0]))   # alpha column
    a_cols.append(widen(s, [0.0, 1.0]))             # t column
    b_aug = widen(YElement.zeros(p.blocks), [0.0, 1.0])
    c = np.zeros(p.m + 2)
    c[-1] = 1.0
    prog = ConicProgram(blocks, a_cols, b_aug, c, name="membership")
    res = solve_conic_lp(prog, SolverOptions())
    if res.score > 1e-6 or 0.1 < res.primal_obj < 0.9:
        # The squeeze program has no interior when the original program has
        # none; regularize it with facial reduction and solve on its own
        # minimal cone, where Slater's condition holds.
        from .reducing import AmbiguousOutcome, solve_restricted_to_face
        from .reduction import ReductionError, run_facial_reduction

        try:
            cert = run_facial_reduction(prog)
            res = solve_restricted_to_face(prog, cert.minimal_face)
        except (SolverError, ReductionError, AmbiguousOutcome):
            pass
    if res.status not in (SolveStatus.OPTIMAL, SolveStatus.NUMERICAL_FAILURE) \
            or res.score > 1e-4:
        raise SolverError(f"membership solve unusable: {res.status.value}")
    t_star = res.primal_obj
    if t_star >= 0.5:
        x_star, alpha = res.x[:p.m], res.x[p.m]
        witness = (alpha / t_star) * p.b - p.apply(x_star / t_star) - s
        if witness.min_eigenvalue() >= -1e2 * tol * (1.0 + s.norm()):
            return True
        raise SolverError("membership witness failed verification")
    if t_star <= 0.1:
        return False
    raise SolverError(f"membership value {t_star:.3e} is inconclusive")

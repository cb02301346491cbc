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

The dual is solved through an assembled point, built from a facial
reduction chain and verified against the variant's system; the chain must
fit in the layers.  For other solvers the dual is also encoded as a plain
sup-form conic program (emit_sdpa): the equality constraints are eliminated
by parameterizing the variable vector over their solution set, shifted so
the sup-form objective carries no constant whenever possible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import config
from .faces import (face_contains, in_tangent_space, split_on_face,
                    tangent_membership_schur)
from .linalg import _packed_index, _svec, flatten_element
from .model import ConeBlock, ConicProgram, YElement, adjoint_apply
from .reducing import AmbiguousOutcome, solve_restricted_to_face
from .reduction import (ReductionCertificate, ReductionError,
                        VerificationReport, compute_ell,
                        decompose_certificates, run_facial_reduction)
from .solver import (SolverError, SolverOptions, SolveStatus,
                     dual_affine_point, solve_conic_lp)

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


# The builder's variables hold the plain upper-triangle entries of each
# symmetric block (``_svec`` with off-diagonal weight 1); weight 2 turns a
# matrix g into the functional <g, .> on that packing.
def _packed_len(n):
    return n * (n + 1) // 2


@dataclass
class ExtendedDualProgram:
    """An extended dual, encoded as a solvable sup-form conic program.

    The dual minimizes <b, u_{L+1} + v_{L+1}> over the layered system; after
    eliminating the equality constraints via ``z = z_p + N s`` (N a basis of
    their null space) the remaining cone constraints become the slack of
    ``program`` at s.  The dual's value is ``offset - (sup value of program)``.

    build_extended_dual lays out the variables and computes ``offset``.  The
    equalities, their elimination and the encoded ``program`` are built on
    first read of ``program`` and then kept; solving through the assembled
    point never reads it.  solve_extended_dual assembles its point from
    ``chain`` when set.
    """

    variant: str
    ell: int
    source: ConicProgram          # lifted problem the dual was built from
    layout: dict
    nz: int
    offset: float
    name: str                     # name of the encoded program
    chain: ReductionCertificate = None  # reduction of source, if given

    def _equalities(self):
        """The layered system's equality rows and right-hand side, and q with
        <q, z> the dual objective."""
        lifted, layout, nz, ell = self.source, self.layout, self.nz, self.ell
        sizes = [blk.size for blk in lifted.blocks]
        has_v = self.variant != "ramana"
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
            for r in range(lifted.m):
                data_row(i, lifted.a[r].parts, 0.0)
            data_row(i, lifted.b.parts, 0.0)
        for r in range(lifted.m):
            data_row(ell + 1, lifted.a[r].parts, lifted.c[r])

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
        return np.array(rows).reshape(len(rows), nz), np.array(rhs), q

    @cached_property
    def program(self) -> ConicProgram:
        """The encoded sup-form program: one PSD output per layer and block
        for u_i, and one bordered block per layer i >= 2 and block."""
        sizes = [blk.size for blk in self.source.blocks]
        layout, nz = self.layout, self.nz
        eq, eq_rhs, q = self._equalities()
        if eq.shape[0]:
            z_p, *_ = np.linalg.lstsq(eq, eq_rhs, rcond=None)
            _, svals, vt = np.linalg.svd(eq)
            rank = int(np.sum(svals > 1e-11 * (svals[0] if svals.size else 1.0)))
            null = vt[rank:].T
        else:
            z_p = np.zeros(nz)
            null = np.eye(nz)
        bn = null.T @ q
        if bn.size and np.linalg.norm(bn) > 1e-12:
            z_p = z_p - null @ (float(q @ z_p) * bn / float(bn @ bn))

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
        slack0 = phi0 + phi @ z_p
        cols = phi @ null

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
                  for j in range(null.shape[1])]
        return ConicProgram(tuple(out_blocks), a_prog, b_prog, -(null.T @ q),
                            name=self.name)


def build_extended_dual(p: ConicProgram, variant: str = "star",
                        ell_override: int = None,
                        chain: ReductionCertificate = None
                        ) -> ExtendedDualProgram:
    """Construct the chosen extended-dual variant of ``p``.

    Orthant blocks are lifted to diagonal PSD blocks first.  ``chain``, a
    run_facial_reduction of the lifted program, is kept for
    solve_extended_dual.  The layer count is ``ell_override``, else the
    chain's length (one layer per reducing step suffices), else compute_ell
    of the lifted program; ell = 0 is the ordinary dual.  This lays out the
    variables and computes the objective offset; it raises SolverError when
    the ordinary dual is infeasible (A* y = c has no solution), which is
    exactly when the layered equalities are inconsistent.  The equalities
    and the encoded program are left to the first read of ``.program``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if ell_override is not None and ell_override < 0:
        raise ValueError("layer count must be nonnegative")
    lifted = lift_to_psd(p)
    if chain is not None and chain.ys[0].blocks != lifted.blocks:
        raise ValueError("chain is not a reduction of the lifted program")
    ell = int(ell_override) if ell_override is not None else \
        chain.steps if chain is not None else compute_ell(lifted)
    if dual_affine_point(lifted) is None:
        raise SolverError("extended dual equalities are inconsistent; "
                          "the ordinary dual is infeasible")

    layout = _Layout()
    for i in range(1, ell + 2):
        for bi, blk in enumerate(lifted.blocks):
            layout.add(("u", i, bi), _packed_len(blk.size))
        if i >= 2:
            for bi, blk in enumerate(lifted.blocks):
                layout.add(("w", i, bi), blk.size * blk.size)
                if variant != "ramana":
                    layout.add(("v", i, bi), _packed_len(blk.size))
            if variant in ("star", "simple"):
                layout.add(("beta", i), 1)

    return ExtendedDualProgram(variant, ell, lifted, dict(layout.slices),
                               layout.size, _objective_offset(lifted),
                               f"{p.name} extended-{variant}".strip(), chain)


def _objective_offset(lifted: ConicProgram) -> float:
    """The constant of the encoded program's objective.  The shift removes
    it unless <b, .> is constant on the final layer's affine set, that is
    unless b = sum lam_i a_i; then the dual objective is lam . c."""
    if not lifted.m:
        return 0.0
    rows = np.column_stack([flatten_element(ai) for ai in lifted.a])
    b = flatten_element(lifted.b)
    lam, *_ = np.linalg.lstsq(rows, b, rcond=None)
    if np.linalg.norm(rows @ lam - b) > 1e-12:
        return 0.0
    return float(lam @ lifted.c)


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
    depth = pt.depth

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
    ws, beta = [], 1.0
    for blk, base, v in zip(blocks, base_parts, v_parts):
        ok, wit = tangent_membership_schur(base, v, tol=1e-6)
        if not ok:
            raise SolverError("assembled layer leaves the tangent space")
        ws.append(wit[0])
        beta = max(beta, wit[1])
    return ws, beta


def assemble_optimal_point(p: ConicProgram, variant: str = "star",
                           ell: int = None, options: SolverOptions = None,
                           chain: ReductionCertificate = None
                           ) -> ExtendedDualPoint:
    """Construct an optimal point of the chosen extended dual from a facial
    reduction run of the source program.

    The reduction chain, decomposed into cone and complement parts, provides
    the inner layers; the final layer is the attained optimum of the dual
    regularized by the minimal cone.  The "simple" family takes cumulative
    sums of the chain, and the identity-block variants additionally rescale
    the layers so the fixed identity suffices as the bordered block's lower
    corner.  ``chain`` is a run_facial_reduction of the lifted program, run
    here when not given.  ``ell`` defaults to the chain's bound; below the
    chain length the chain does not fit and ValueError is raised.  The
    layers past the chain length are zero layers placed before the chain.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    options = options or SolverOptions()
    lifted = lift_to_psd(p)
    cert = chain if chain is not None else \
        run_facial_reduction(lifted, options=options)
    if ell is None:
        ell = cert.ell
    if cert.steps > ell:
        raise ValueError(
            f"chain of length {cert.steps} does not fit in {ell} layers; "
            f"the extended dual needs at least one layer per reducing step")
    dec = decompose_certificates(lifted, cert)
    y_final = _regularized_dual_solution(lifted, cert, options)
    u_fin, v_fin = split_on_face(cert.minimal_face, y_final)

    blocks = lifted.blocks
    zeros = YElement.zeros(blocks)
    us, vs = list(dec.us), list(dec.vs)
    if variant != "star":
        for i in range(1, cert.steps + 1):
            us[i] = us[i - 1] + us[i]
            vs[i] = vs[i - 1] + vs[i]
    # Zero layers go first: the rescale of the identity-block variants then
    # squares only through them, not through the chain's layers.
    pad = [zeros] * (ell - cert.steps)
    us = pad + us + [u_fin]
    vs = pad + vs + [v_fin]

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
    """Optimal value and optimal point of the extended dual, with the
    point's verification: (value, point, report).

    The point is assembled from a facial reduction of the source program
    (``ext.chain``, else one run here): the chain supplies the inner layers
    and the attained optimum of the dual regularized by the minimal cone the
    final layer.  The extended dual is a valid dual, so a feasible point of
    it whose objective reaches the primal value is optimal; the point is
    verified against the variant's system and its objective is the value.
    A point that fails verification raises SolverError.  A chain longer
    than ``ext.ell`` raises ValueError: below the chain length the extended
    dual need not be strong, so no value is answered.
    """
    pt = assemble_optimal_point(ext.source, ext.variant, ext.ell, options,
                                ext.chain)
    report = check_extended_point(ext.source, pt, ext.variant)
    if not report.ok:
        failed = ", ".join(c.name for c in report.failures())
        raise SolverError(f"assembled extended dual point fails: {failed}")
    return report.objective, pt, report


def _squeeze_witness(p: ConicProgram, s: YElement, x) -> YElement:
    """w = (alpha/t) b - A(x/t) - s at a point (x, alpha, t) of the squeeze
    program, formed from the data of ``p``: when w lies in K, s is squeezed
    between zero and a scaled feasible slack (or a recession slack), so it
    lies in the minimal cone of a feasible ``p``."""
    x_p, alpha, t = x[:p.m], x[p.m], x[p.m + 1]
    return (alpha / t) * p.b - p.apply(x_p / t) - s


def fmin_membership(p: ConicProgram, s: YElement, tol: float = None,
                    options: SolverOptions = None) -> bool:
    """Decide membership of ``s`` in the minimal cone of ``p``.

    First without facial reduction: s belongs to the minimal cone exactly
    when s is squeezed between zero and a scaled feasible slack, a conic
    feasibility problem in the original variables plus one scale, solved in
    a normalized form bounding the squeeze coefficient so the optimal value
    separates members (1) from non-members (0).  The answer is "yes" at the
    first iterate with scale t >= 0.5 whose witness, formed from the data so
    the iterate's infeasibility cannot help it, is in the cone to ``tol``
    (1 + |s|): a nearly feasible slack of a degenerate program can carry
    mass outside the minimal cone far above its infeasibility (Sturm, SIOPT
    2000).  It is "no" at the first iterate, or the solve's best one, with
    score <= 1e-6 and t <= 0.1.  Anything else (the squeeze program has no
    interior when ``p`` has none, so its solve may stall) is decided
    against the minimal face of the program's own reduction at ``tol``;
    when that reduction fails, SolverError.  ``options`` apply to the solve
    and the reduction.
    """
    if tol is None:
        tol = config.DEFAULT_TOL
    options = options or SolverOptions()
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
    early_bound = -tol * (1.0 + s.norm())
    verdicts = []

    def decides(x, score):
        if x[-1] >= 0.5 and \
                _squeeze_witness(p, s, x).min_eigenvalue() >= early_bound:
            verdicts.append(True)
        elif score <= 1e-6 and x[-1] <= 0.1:
            verdicts.append(False)
        return bool(verdicts)

    res = solve_conic_lp(prog, replace(options, stop=decides))
    if verdicts:
        return verdicts[0]
    if res.score <= 1e-6 and res.primal_obj <= 0.1:
        return False
    try:
        chain = run_facial_reduction(p, tol, options)
    except (ReductionError, AmbiguousOutcome) as exc:
        raise SolverError(f"membership undecided: {exc}") from exc
    return face_contains(chain.minimal_face, s, tol)

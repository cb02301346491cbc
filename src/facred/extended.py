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

The system is written once, as one evaluator (_layered_system).  The dual
is solved through an assembled point, built from a facial reduction chain
(which must fit in the layers) and checked with the evaluator.  For other
solvers it is also encoded as a plain sup-form conic program (emit_sdpa),
from the evaluator on the unit vectors of the variable vector and at zero.
Its equalities are eliminated as the ordinary dual's (solver.standard_dual)
and a face's span equations are: one SVD (linalg.nullspace_basis), and the
particular solution shifted so the objective carries no constant
(linalg.shift_off_objective) unless b lies in the span of the a_i.  Both
tests are relative, to |b| and to the size of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import config
from .faces import (face_contains, in_tangent_space, split_on_face,
                    tangent_membership_schur)
from .linalg import (_sym, flatten_element, nullspace_basis,
                     shift_off_objective)
from .model import ConeBlock, ConicProgram, YElement, cone_margin
from .reducing import (AmbiguousOutcome, restricted_solve_failure,
                       solve_restricted_to_face)
from .reduction import (ReductionCertificate, ReductionError,
                        VerificationReport, compute_ell,
                        decompose_certificates, run_facial_reduction)
from .solver import (SolverError, SolverOptions, dual_equations,
                     solve_conic_lp)

VARIANTS = ("star", "simple", "primed", "ramana")


def lift_to_psd(p: ConicProgram) -> ConicProgram:
    """Embed orthant blocks as diagonal PSD blocks (identity on pure-PSD
    programs); the explicit tangent encodings are PSD-specific."""
    if all(blk.kind == "psd" for blk in p.blocks):
        return p
    stacks = []
    for blk, stack in zip(p.blocks, p.stacks):
        if blk.kind == "orthant":
            # Written onto the diagonal, so every other entry stays +0.0.
            diag = np.arange(blk.size)
            square = np.zeros(stack.shape + (blk.size,))
            square[:, diag, diag] = stack
            stack = square
        stacks.append(stack)
    return ConicProgram.from_stacks(
        tuple(ConeBlock("psd", blk.size) for blk in p.blocks), stacks, p.c,
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


@dataclass
class _SystemValue:
    """The layered system at a point of depth L, batched like the point.

    ``data[i - 1]`` is <a_1, y_i>, ..., <a_m, y_i>, <b, y_i> for y_i =
    u_i + v_i, with c subtracted from the final layer's first m entries, so
    ``data[-1][..., -1]`` is the objective.  ``recompose[i - 2][bi]`` is the
    svec of v_i - (w_i + w_i^T), ``bases[i - 1][bi]`` is S_i, and the cone
    outputs are ``us[i - 1][bi]`` = u_i, then ``bordered[i - 2][bi]`` =
    [[S_i, w_i], [w_i^T, D_i]]."""

    data: list
    recompose: list
    bases: list
    us: list
    bordered: list


def _bases(us, variant):
    """S_1, ..., S_{L+1}, per block, of the layers us[0..L+1]:
    u_1 + ... + u_{i-1} for "star" and u_{i-1} otherwise."""
    bases, running = [], [np.zeros(u.shape[-2:]) for u in us[0]]
    for i in range(1, len(us)):
        bases.append(running if variant == "star" else us[i - 1])
        running = [s + u for s, u in zip(running, us[i])]
    return bases


def _layered_system(lifted: ConicProgram, variant: str, us, vs, ws, betas,
                    constants: bool = True) -> _SystemValue:
    """Evaluate ``variant``'s layered system over ``lifted`` at a point.

    us[i], vs[i] and ws[i] hold one square matrix per block and betas[i] a
    scalar, i = 0..L+1, all batched over the same leading axes (or none).
    S_i comes from _bases; D_i is beta_i I for "star" and "simple" and I
    otherwise.  With ``constants`` false, c and the identity D_i are left
    out: the value is then linear in the point.
    """
    depth = len(us) - 2
    # One product per layer and block with the stacked a_1, ..., a_m, b.
    data = [sum(np.sum(g * (u + v)[..., None, :, :], axis=(-2, -1))
                for g, u, v in zip(lifted.stacks, us[i], vs[i]))
            for i in range(1, depth + 2)]
    if constants:
        data[-1] = data[-1] - np.append(lifted.c, 0.0)
    bases = _bases(us, variant)
    recompose, bordered = [], []
    for i in range(2, depth + 2):
        recompose.append([])
        bordered.append([])
        for bi, blk in enumerate(lifted.blocks):
            n, w, wt = blk.size, ws[i][bi], np.swapaxes(ws[i][bi], -1, -2)
            recompose[-1].append(blk.svec(vs[i][bi] - w - wt))
            lower = np.multiply.outer(betas[i], np.eye(n)) \
                if variant in ("star", "simple") else np.eye(n) * constants
            shape = np.broadcast_shapes(bases[i - 1][bi].shape, w.shape,
                                        lower.shape)[:-2] + (2 * n, 2 * n)
            out = np.empty(shape)
            out[..., :n, :n], out[..., :n, n:] = bases[i - 1][bi], w
            out[..., n:, :n], out[..., n:, n:] = wt, lower
            bordered[-1].append(out)
    return _SystemValue(data, recompose, bases, list(us[1:]), bordered)


@dataclass
class ExtendedDualProgram:
    """An extended dual, encoded as a solvable sup-form conic program.

    The dual minimizes <b, u_{L+1} + v_{L+1}> over the layered system in
    the stacked variable vector z (``layout``, ``nz`` entries).  After the
    equalities are eliminated via ``z = z_p + N s`` (linalg.nullspace_basis),
    the cone outputs become the slack of ``program`` at s.  The dual's value
    is ``offset - (sup value of program)``.

    build_extended_dual lays out the variables and computes ``offset``.  The
    encoded ``program`` is built on first read and then kept; solving
    through the assembled point never reads it.  solve_extended_dual
    assembles its point from ``chain`` when set.
    """

    variant: str
    ell: int
    source: ConicProgram          # lifted problem the dual was built from
    layout: dict
    nz: int
    offset: float
    name: str                     # name of the encoded program
    chain: ReductionCertificate = None  # reduction of source, if given

    def _point(self, z):
        """The layered point held by z, batched over z's leading axes, as
        _layered_system reads it; "ramana" writes v_i as w_i + w_i^T."""
        blocks, at = self.source.blocks, self.layout
        zero = [blk.zero() for blk in blocks]
        us, vs, ws, betas = [zero], [zero, zero], [zero, zero], [0.0, 0.0]
        for i in range(1, self.ell + 2):
            us.append([blk.unsvec(z[..., at["u", i, bi]])
                       for bi, blk in enumerate(blocks)])
            if i == 1:
                continue
            ws.append([z[..., at["w", i, bi]].reshape(z.shape[:-1] + (n, n))
                       for bi, n in enumerate(blk.size for blk in blocks)])
            vs.append([w + np.swapaxes(w, -1, -2) if self.variant == "ramana"
                       else blk.unsvec(z[..., at["v", i, bi]])
                       for bi, (blk, w) in enumerate(zip(blocks, ws[i]))])
            betas.append(z[..., at["beta", i].start]
                         if ("beta", i) in at else 0.0)
        return us, vs, ws, betas

    def _encoding(self):
        """(eq, rhs, q, phi, phi0, sizes): ``eq z = rhs`` are the
        equalities, <q, z> the objective and ``phi z + phi0`` the cone
        outputs, of orders ``sizes``, flattened row-major.  The linear parts
        are the system without constants on the unit vectors of z, the
        constants the system at z = 0: nothing is computed as (x - c) + c."""
        def parts(value):
            rows = value.data[:-1] + [value.data[-1][..., :-1]]
            if self.variant != "ramana":
                rows += [r for layer in value.recompose for r in layer]
            return (np.concatenate(rows, axis=-1),
                    [x for layer in value.us + value.bordered for x in layer])

        lin = _layered_system(self.source, self.variant,
                              *self._point(np.eye(self.nz)), constants=False)
        (eq, outs), (eq0, outs0) = parts(lin), parts(_layered_system(
            self.source, self.variant, *self._point(np.zeros(self.nz))))
        cols = [out.reshape(self.nz, -1).T for out in outs]
        phi = np.concatenate(cols, out=np.empty((sum(map(len, cols)), self.nz)))
        # 0 - x rather than -x keeps the zero rows +0.0.
        return (np.ascontiguousarray(eq.T), 0.0 - eq0,
                np.ascontiguousarray(lin.data[-1][..., -1]), phi,
                np.concatenate([out.reshape(-1) for out in outs0]),
                [out.shape[-1] for out in outs0])

    @cached_property
    def program(self) -> ConicProgram:
        """The encoded sup-form program: one PSD output per layer and block
        for u_i, and one bordered block per layer i >= 2 and block."""
        eq, eq_rhs, q, phi, phi0, sizes = self._encoding()
        null, pinv = nullspace_basis(eq)
        z_p = shift_off_objective(pinv @ eq_rhs, null, q)

        out_blocks = tuple(ConeBlock("psd", size) for size in sizes)
        slack0 = phi0 + phi @ z_p
        cols = phi @ null
        # Per block, the columns -cols[:, j] and then slack0 as symmetric
        # matrices, stacked in C order, the layout of matrices made one by
        # one (BLAS rounds a product by layout); _sym(M) is exactly
        # symmetric: no check needed.
        stacks, at = [], 0
        for size in sizes:
            rows = slice(at, at + size * size)
            flat = np.vstack([-cols[rows].T, slack0[rows]])
            stacks.append(np.ascontiguousarray(
                _sym(flat.reshape(-1, size, size))))
            at += size * size
        return ConicProgram.from_stacks(out_blocks, stacks, -(null.T @ q),
                                        name=self.name)


def build_extended_dual(p: ConicProgram, variant: str = "star",
                        ell_override: int = None,
                        chain: ReductionCertificate = None,
                        lifted: ConicProgram = None) -> ExtendedDualProgram:
    """Construct the chosen extended-dual variant of ``p``.

    Orthant blocks are lifted to diagonal PSD blocks first, unless the
    caller passes that lift as ``lifted``.  ``chain``, a
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
    if lifted is None:
        lifted = lift_to_psd(p)
    if chain is not None and chain.ys[0].blocks != lifted.blocks:
        raise ValueError("chain is not a reduction of the lifted program")
    ell = int(ell_override) if ell_override is not None else \
        chain.steps if chain is not None else compute_ell(lifted)
    rows, _, pinv, sol = dual_equations(lifted)
    if sol is None:
        raise SolverError("extended dual equalities are inconsistent; "
                          "the ordinary dual is infeasible")
    # The objective's constant.  The shift in .program removes it unless
    # <b, .> is constant on the final layer's affine set, that is unless
    # b = sum lam_i a_i (tested relative to |b|); then it is lam . c.
    b = flatten_element(lifted.b)
    lam = pinv.T @ b
    in_span = np.linalg.norm(rows.T @ lam - b) <= 1e-10 * np.linalg.norm(b)
    offset = float(lam @ lifted.c) if in_span else 0.0

    # The variables: u_i and v_i svec-packed, as every internal flattening
    # is (ConeBlock.svec), and w_i row-major.
    keys = []
    for i in range(1, ell + 2):
        keys += [(("u", i, bi), blk.ambient_dim)
                 for bi, blk in enumerate(lifted.blocks)]
        if i >= 2:
            for bi, blk in enumerate(lifted.blocks):
                keys.append((("w", i, bi), blk.size ** 2))
                if variant != "ramana":
                    keys.append((("v", i, bi), blk.ambient_dim))
            if variant in ("star", "simple"):
                keys.append((("beta", i), 1))
    ends = list(accumulate(length for _, length in keys))
    layout = {key: slice(end - length, end)
              for (key, length), end in zip(keys, ends)}
    return ExtendedDualProgram(variant, ell, lifted, layout, ends[-1], offset,
                               f"{p.name} extended-{variant}".strip(), chain)


def check_extended_point(p: ConicProgram, pt: ExtendedDualPoint,
                         variant: str = "star",
                         tol: float = None) -> VerificationReport:
    """Verify a layered point against the chosen system.

    Checks the zero start, cone membership of every u_i, the data
    orthogonality of the inner layers, the adjoint equation of the final
    layer, tangent membership of every v_i (pattern test plus the
    recomposition v_i = w_i + w_i^T and the bordered-block certificate),
    and reports the objective value and adjoint residual on the report
    object.  Residuals, cone blocks and the objective come from the
    system's evaluator, the one the encoded program is built from.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if tol is None:
        tol = config.DEFAULT_TOL
    lifted = lift_to_psd(p)
    report = VerificationReport()
    if pt.us[0].blocks != lifted.blocks:
        raise ValueError("point structure differs from the (lifted) program")
    depth = pt.depth
    ws = [[np.asarray(w) for w in layer] for layer in pt.ws]
    system = _layered_system(lifted, variant, [u.parts for u in pt.us],
                             [v.parts for v in pt.vs], ws, pt.betas)

    report.add("layer 0 is zero",
               pt.us[0].norm() <= tol and pt.vs[0].norm() <= tol)
    for i in range(1, depth + 2):
        lam = min(map(cone_margin, system.us[i - 1]))
        report.add(f"u_{i} in the dual cone", lam >= -tol,
                   f"min eigenvalue {lam:.2e}")
    for i in range(1, depth + 1):
        resid = float(np.max(np.abs(system.data[i - 1]), initial=0.0))
        report.add(f"layer {i} orthogonal to the data",
                   resid <= tol * (1.0 + (pt.us[i] + pt.vs[i]).norm()),
                   f"residual {resid:.2e}")
    adj_resid = float(np.max(np.abs(system.data[-1][:-1]), initial=0.0))
    report.add("final layer satisfies the adjoint equation",
               adj_resid <= tol * (1.0 + float(np.max(np.abs(lifted.c),
                                                      initial=0.0))),
               f"residual {adj_resid:.2e}")

    for i in range(1, depth + 2):
        for bi, base in enumerate(system.bases[i - 1]):
            report.add(f"v_{i} tangent at block {bi + 1}", in_tangent_space(
                base, pt.vs[i].parts[bi], max(tol, 1e-8)))
        for bi, w in enumerate(ws[i] if i >= 2 else []):
            resid = float(np.max(np.abs(system.recompose[i - 2][bi]),
                                 initial=0.0))
            report.add(f"w_{i} recomposes v_{i} at block {bi + 1}",
                       resid <= 1e-10 * (1.0 + np.max(np.abs(w), initial=0.0)),
                       f"residual {resid:.2e}")
            lam = cone_margin(system.bordered[i - 2][bi])
            report.add(f"bordered block {i}/{bi + 1} psd", lam >= -tol,
                       f"min eigenvalue {lam:.2e}")

    report.objective = float(system.data[-1][-1])
    report.adjoint_residual = adj_resid
    return report


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
    A final-layer solve that is not optimal, or that fails
    restricted_solve_failure, raises SolverError naming why.
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
    # The final layer, the attained optimum of the dual regularized by the
    # minimal cone, checked on the program's own data: a feasible y whose
    # <b, y> is not c x would print a value above the primal value.  The
    # run's frame of that face is reused.
    res = solve_restricted_to_face(lifted, cert.minimal_face
                                   if cert.frame is None else cert.frame,
                                   options)
    if not res.optimal:
        raise SolverError("face-restricted solve did not reach optimality: "
                          f"{res.status.value} ({res.message})")
    failure = restricted_solve_failure(lifted, cert.minimal_face, res)
    if failure:
        raise SolverError(f"face-restricted solve unverified ({failure})")
    u_fin, v_fin = split_on_face(cert.minimal_face, res.y)

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
    bases = _bases([u.parts for u in us], variant)
    zero_w = [blk.zero() for blk in blocks]
    wit_list, beta_list = [zero_w, zero_w], [0.0, 0.0]
    for i in range(2, ell + 2):
        w_i, beta_i = _tangent_witness(bases[i - 1], vs[i].parts, blocks)
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

    A point whose cone margin is below -``tol`` (1 + |s|), the witness's
    bar below, is outside.  Then without facial reduction: s belongs to
    the minimal cone exactly when s is squeezed between zero and a scaled
    feasible slack, a conic feasibility problem in the original variables
    plus one scale, solved in a normalized form bounding the squeeze
    coefficient so the optimal value separates members (1) from
    non-members (0).  The answer is "yes" at the first iterate with scale
    t >= 0.5 whose witness, formed from the data so the iterate's
    infeasibility cannot help it, is in the cone to ``tol`` (1 + |s|): a
    nearly feasible slack of a degenerate program can carry mass outside
    the minimal cone far above its infeasibility (Sturm, SIOPT 2000).  It
    is "no" at the first iterate, or the solve's best one, with score
    <= 1e-6 and t <= 0.1.  Anything else (the squeeze program has no
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
    early_bound = -tol * (1.0 + s.norm())
    if s.min_eigenvalue() < early_bound:
        return False
    # Per block a_1, ..., a_m, the alpha column -b, the t column s and the
    # right-hand side 0; the 2-entry orthant holds alpha >= 0 and t <= 1.
    stacks = [np.concatenate([stack[:-1], -stack[-1:], part[None],
                              np.zeros((1,) + part.shape)])
              for stack, part in zip(p.stacks, s.parts)]
    stacks.append(np.zeros((p.m + 3, 2)))
    stacks[-1][-3:] = [[-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    prog = ConicProgram.from_stacks(p.blocks + (ConeBlock("orthant", 2),),
                                    stacks, np.append(np.zeros(p.m + 1), 1.0),
                                    name="membership")
    verdicts = []

    def decides(x, score, *_):
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

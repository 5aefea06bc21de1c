"""Static verifier for compiled execution plans (the PL6xx rule catalogue).

The module-graph checker (:mod:`repro.check.rules`) proves the paper's
deployment invariants *before* tracing; this module proves the compiled
artifact itself — the :class:`~repro.runtime.plan.ExecutionPlan` the engine
actually replays — safe, without running any data through it.  It consumes
only the plan's declared IR (:meth:`ExecutionPlan.summarize`), never
private step state, and emits the same :class:`CheckReport` machinery the
rest of the checker uses, so plan findings merge into CLI output, engine
stats, and JSON exports unchanged.

Rules
-----
PL601
    Worst-case accumulator bounds.  Reproves — via the interval domain's
    affine transfer, independently of the plan's own carrier choice — that
    the integer GEMM's largest possible partial sum fits the declared BLAS
    carrier mantissa (2^24 for float32, 2^53 for float64) and, in shift
    mode, that accumulator + folded offset fits the declared integer
    accumulator dtype.
PL602
    Aliasing safety.  No cached copy-program ``(dst, src)`` pair may
    overlap byte ranges of the same base allocation.  Workspaces share one
    allocation only through the plan's scratch arena: a base claimed by
    several workspaces (``(step, tag)`` pairs) is allowed only when every
    claim is an arena view of a scratch tag, any step output or value
    held for a join that overlaps the arena is flagged, and the scratch
    views of one step at one batch size must be pairwise disjoint.  The
    prefix views one owned workspace hands out for different batch sizes
    share its backing by design — one run claims only one of them.
PL603
    Boundary contracts, tracked per value slot.  The declared layout
    chain must be consistent step-to-step (batch-last ``(C,H,W,B)``
    handoffs land only on steps that accept them, the plan ends
    batch-major or flat), the counts window each step consumes must equal
    the window its producer emitted, a residual join's two inputs must
    agree on layout, counts window and IFC gain (and a projection's
    un-floored affine sum may feed only a projection join), and pooled
    accumulator/output buffers must carry exactly the dtypes the step
    declares (``describe()`` honesty).
PL604
    Shift-epilogue feasibility — the plan-level twin of QS220/QS221:
    every requantize scale sits exactly on the power-of-two grid, shifts
    are within ``[0, 62]``, and the folded integer offsets are finite.
PL605
    Replay purity.  Every pooled allocation must be claimed by a declared
    workspace tag of an existing step, and every arena view by a tag the
    step declares scratch — a semantic complement to the RL002 AST lint:
    not only does no replay body *allocate*, the working set contains
    nothing a step did not declare.

PL600 is reported by ``repro check --plans`` (not by this module) when a
model fails to compile to an integer plan at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.check.abstract import _interval_affine
from repro.check.diagnostics import CheckReport

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from repro.runtime.plan import ExecutionPlan, JoinIR, PlanIR, StepIR

#: Largest magnitude each float BLAS carrier accumulates exactly
#: (its mantissa width): beyond this, integer sums silently round.
CARRIER_EXACT: Dict[str, float] = {
    "float32": float(2 ** 24),
    "float64": float(2 ** 53),
}

#: Exclusive magnitude limit of each shift-mode integer accumulator.
ACC_LIMIT: Dict[str, float] = {
    "int32": float(2 ** 31),
    "int64": float(2 ** 63),
}

#: Layouts a finished plan may end in (what callers are promised).
_TERMINAL_LAYOUTS = ("batch", "flat")


@dataclass(frozen=True)
class PlanCheckConfig:
    """Options for the plan verifier.

    ``suppress`` drops the given rule ids from the returned report (same
    semantics as :class:`~repro.check.rules.CheckConfig.suppress`).
    """

    suppress: Tuple[str, ...] = ()


def accumulator_bound(codes: np.ndarray, in_top: float) -> float:
    """Sound worst-case ``|accumulator|`` of ``counts @ codes.T``.

    Reuses the interval domain's affine transfer — positive/negative
    weight split — with every count in ``[0, in_top]``.  The hypothesis
    suite proves the bound sound against concrete random inputs; it is
    also exact (attained by setting each count to ``in_top`` exactly where
    its code is positive, resp. negative).
    """
    lo, hi = _interval_affine(
        np.asarray(codes, dtype=np.float64), None, 0.0, float(in_top)
    )
    return max(abs(lo), abs(hi))


def _where(step: "StepIR") -> str:
    return f"step{step.index}:{step.kind}"


def _rule_pl601(report: CheckReport, ir: "PlanIR") -> None:
    """Accumulator-bound proofs for every declared integer GEMM."""
    for step in ir.steps:
        if step.codes is None or step.consumes_top is None:
            continue
        bound = accumulator_bound(step.codes, step.consumes_top)
        limit = CARRIER_EXACT.get(step.carrier or "")
        if limit is None:
            report.add(
                "PL601", "error", _where(step),
                f"undeclared or unknown BLAS carrier {step.carrier!r}; "
                "cannot prove the accumulator exact",
                carrier=step.carrier,
            )
        elif bound >= limit:
            report.add(
                "PL601", "error", _where(step),
                f"worst-case |accumulator| {bound:.4g} (K={step.reduction_k}, "
                f"counts ≤ {step.consumes_top}, N={step.weight_bits}) reaches "
                f"the {step.carrier} mantissa limit {limit:.4g}; partial sums "
                "can round silently",
                hint="the carrier must widen to float64 (or the reduction shrink)",
                bound=bound, limit=limit, carrier=step.carrier,
            )
        if step.shift is None:
            continue
        worst = bound + (step.shift_offsets_absmax or 0.0)
        acc_limit = ACC_LIMIT.get(step.acc_dtype or "")
        if acc_limit is None:
            report.add(
                "PL601", "error", _where(step),
                f"shift epilogue declares no integer accumulator dtype "
                f"(got {step.acc_dtype!r})",
                acc_dtype=step.acc_dtype,
            )
        elif worst >= acc_limit:
            report.add(
                "PL601", "error", _where(step),
                f"pre-shift accumulator + offset {worst:.4g} overflows the "
                f"declared {step.acc_dtype} accumulator (limit {acc_limit:.4g})",
                hint="the shift accumulator must widen to int64",
                worst=worst, limit=acc_limit, acc_dtype=step.acc_dtype,
            )


def _rule_pl602(report: CheckReport, ir: "PlanIR") -> None:
    """Aliasing: copy-program views, arena sharing and pooled ownership."""
    for step in ir.steps:
        for pair_index, (dst, src) in enumerate(step.copy_views or ()):
            if dst.overlaps(src):
                report.add(
                    "PL602", "error", _where(step),
                    f"copy-program pair {pair_index} writes bytes "
                    f"[{dst.lo}, {dst.hi}) of the buffer it reads "
                    f"[{src.lo}, {src.hi}) from — replay order becomes "
                    "value-changing",
                    dst=(dst.lo, dst.hi), src=(src.lo, src.hi),
                    shape=list(dst.shape),
                )
    for buf in ir.buffers:
        if not buf.scratch and buf.base == ir.arena:
            report.add(
                "PL602", "error", f"step{buf.owner}",
                f"{buf.tag or 'base'!r} ({buf.shape}, {buf.dtype}) overlaps the "
                "scratch arena; the next step's scratch would overwrite it "
                "while it is still live",
                hint="step outputs and values held for a join need their own "
                     "allocation",
                tag=buf.tag, owner=str(buf.owner),
            )
    claims_by_base: Dict[int, list] = {}
    for buf in ir.buffers:
        claims_by_base.setdefault(buf.base, []).append(buf)
    for claims in claims_by_base.values():
        workspaces = {(buf.owner, buf.tag) for buf in claims}
        if len(workspaces) > 1 and not all(buf.scratch for buf in claims):
            names = ", ".join(sorted(
                f"step{owner}[{tag or 'base'}]" for owner, tag in workspaces))
            report.add(
                "PL602", "error", "<pool>",
                f"one pooled allocation is claimed by multiple workspaces "
                f"({names}) and not every claim is scratch; one would "
                "clobber the other's live data",
                owners=sorted({str(owner) for owner, _ in workspaces}),
            )
    # Arena views live in the same step run — one step at one batch size —
    # must be pairwise disjoint.
    groups: Dict[Tuple[Optional[int], Optional[int]], list] = {}
    for buf in ir.buffers:
        if buf.scratch:
            groups.setdefault((buf.owner, buf.rows), []).append(buf)
    for (owner, rows), views in groups.items():
        views = sorted(views, key=lambda v: v.lo)
        for prev, cur in zip(views, views[1:]):
            if cur.lo < prev.hi:
                report.add(
                    "PL602", "error", f"step{owner}",
                    f"scratch views {prev.tag!r} and {cur.tag!r} overlap in the "
                    f"arena (bytes [{cur.lo}, {min(prev.hi, cur.hi)})) within "
                    f"one run at {rows} rows",
                    tags=[prev.tag, cur.tag], rows=rows,
                )


def _rule_pl603(report: CheckReport, ir: "PlanIR") -> None:
    """Layout, counts-window and join contracts along the value slots, and
    workspace-dtype honesty."""
    # Per slot: (layout, counts top or None, counts gain, partial sum?).
    float_batch = ("batch", None, None, False)
    slots: Dict[int, Tuple[str, Optional[int], Optional[float], bool]] = {0: float_batch}
    for step in ir.steps:
        layout, top, gain, partial = slots.get(step.inputs[0], float_batch)
        if step.layouts_in is not None and layout not in step.layouts_in:
            report.add(
                "PL603", "error", _where(step),
                f"step accepts layouts {list(step.layouts_in)} but its "
                f"predecessor hands off {layout!r}",
                hint="the compiler must insert a layout-restore step",
                got=layout, accepts=list(step.layouts_in),
            )
        if partial:
            report.add(
                "PL603", "error", _where(step),
                "step reads an un-floored affine partial sum as its main "
                "input; only a projection join may consume one",
            )
        if step.consumes_top is not None and top != step.consumes_top:
            report.add(
                "PL603", "error", _where(step),
                f"step consumes a counts window of top={step.consumes_top} "
                f"but the incoming representation is "
                f"{'float values' if top is None else f'top={top}'}",
                expected=step.consumes_top, got=top,
            )
        if step.join is not None:
            _check_join(report, step, step.join,
                        slots.get(step.inputs[-1], float_batch))
        if not step.rep_passthrough:
            top, gain, partial = step.produces_top, step.produces_gain, step.partial
        slots[step.output] = (step.layout_out or layout, top, gain, partial)
    layout, top, _, _ = slots.get(ir.steps[-1].output, float_batch) if ir.steps \
        else float_batch
    if layout not in _TERMINAL_LAYOUTS:
        report.add(
            "PL603", "error", "<plan>",
            f"plan ends in internal layout {layout!r}; callers are promised "
            f"one of {list(_TERMINAL_LAYOUTS)}",
            final_layout=layout,
        )
    if top is not None:
        report.add(
            "PL603", "error", "<plan>",
            f"plan output is still a counts window (top={top}); the final "
            "dequantize step is missing",
            final_top=top,
        )

    steps_by_index = {step.index: step for step in ir.steps}
    for buf in ir.buffers:
        step = steps_by_index.get(buf.owner) if buf.owner is not None else None
        if step is None:
            continue  # ownership itself is PL605's finding
        declared = step.workspaces.get(buf.tag)
        if declared is not None and declared != buf.dtype:
            report.add(
                "PL603", "error", _where(step),
                f"workspace {buf.tag or 'base'!r} declares dtype {declared} "
                f"but the traced pool holds {buf.dtype} — describe() and "
                "replay disagree",
                tag=buf.tag, declared=declared, actual=buf.dtype,
            )


def _check_join(report: CheckReport, step: "StepIR", join: "JoinIR",
                skip: tuple) -> None:
    """The shortcut input of a join agrees with the join's contract."""
    layout, top, gain, partial = skip
    if len(step.inputs) != 2:
        report.add("PL603", "error", _where(step),
                   f"join step reads {len(step.inputs)} value slot(s), not 2")
    if layout not in join.layouts:
        report.add(
            "PL603", "error", _where(step),
            f"join expects its shortcut in layouts {list(join.layouts)} but "
            f"receives {layout!r}",
            got=layout, accepts=list(join.layouts),
        )
    if top != join.top or partial != (join.kind == "projection"):
        got = "float values" if top is None else f"top={top}"
        report.add(
            "PL603", "error", _where(step),
            f"{join.kind} join expects its shortcut as "
            f"{'float values' if join.top is None else f'top={join.top}'}"
            f"{' (affine partial)' if join.kind == 'projection' else ''} but "
            f"receives {got}{' (affine partial)' if partial else ''}",
            expected=join.top, got=top,
        )
    elif join.gain is not None and gain != join.gain:
        report.add(
            "PL603", "error", _where(step),
            f"{join.kind} join adds a shortcut counted at gain {gain!r} to "
            f"outputs counted at gain {join.gain!r}; the sum is not in one unit",
            expected=join.gain, got=gain,
        )


def _rule_pl604(report: CheckReport, ir: "PlanIR") -> None:
    """Shift-epilogue feasibility (plan-level QS220/QS221)."""
    for step in ir.steps:
        if ir.int_path == "shift" and step.q_scale is not None and step.shift is None:
            report.add(
                "PL604", "error", _where(step),
                "plan was compiled for int_path='shift' but this requantize "
                "step carries no shift epilogue",
                q_scale=step.q_scale,
            )
        if step.shift is None:
            continue
        if not 0 <= step.shift <= 62:
            report.add(
                "PL604", "error", _where(step),
                f"shift amount {step.shift} falls outside the provable "
                "[0, 62] range",
                shift=step.shift,
            )
        scale = step.q_scale
        if scale is None or scale <= 0 or not math.isfinite(scale):
            report.add(
                "PL604", "error", _where(step),
                f"shift epilogue with non-positive requantize scale {scale!r}",
                q_scale=scale,
            )
        elif abs(-math.log2(scale) - step.shift) > 1e-9:
            report.add(
                "PL604", "error", _where(step),
                f"requantize scale {scale!r} is not 2^-{step.shift}; the "
                "arithmetic right shift would compute a different quantizer",
                hint="snap the layer scales (repro.core.pow2.snap_scales_pow2)"
                     " before tracing in shift mode",
                q_scale=scale, shift=step.shift,
            )
        absmax = step.shift_offsets_absmax
        if absmax is None or not math.isfinite(absmax):
            report.add(
                "PL604", "error", _where(step),
                f"shift epilogue offsets are not finite (max |offset| = {absmax!r})",
                offsets_absmax=absmax,
            )


def _rule_pl605(report: CheckReport, ir: "PlanIR") -> None:
    """Replay purity: the traced pool holds only declared workspaces."""
    steps_by_index = {step.index: step for step in ir.steps}
    for buf in ir.buffers:
        step = steps_by_index.get(buf.owner) if buf.owner is not None else None
        if step is None:
            report.add(
                "PL605", "error", "<pool>",
                f"pooled buffer {buf.tag!r} ({buf.shape}, {buf.dtype}) is "
                f"keyed to step index {buf.owner!r}, which no plan step "
                "declares",
                owner=str(buf.owner), tag=buf.tag, dtype=buf.dtype,
            )
        elif buf.tag not in step.workspaces:
            report.add(
                "PL605", "error", _where(step),
                f"pooled buffer carries undeclared workspace tag "
                f"{buf.tag or 'base'!r} ({buf.shape}, {buf.dtype}); the step "
                f"declares only {sorted(repr(t or 'base') for t in step.workspaces)}",
                tag=buf.tag, dtype=buf.dtype,
            )
        elif buf.scratch and buf.tag not in step.scratch:
            report.add(
                "PL605", "error", _where(step),
                f"arena view {buf.tag or 'base'!r} ({buf.shape}, {buf.dtype}) "
                "is not a declared scratch tag; the step's data would be "
                "overwritten by the next step's scratch",
                tag=buf.tag, dtype=buf.dtype,
            )


_RULE_PASSES = (_rule_pl601, _rule_pl602, _rule_pl603, _rule_pl604, _rule_pl605)


def check_plan_ir(
    ir: "PlanIR",
    config: Optional[PlanCheckConfig] = None,
    target: str = "plan",
) -> CheckReport:
    """Run every PL6xx rule over an already-summarized plan IR."""
    report = CheckReport(target)
    for rule_pass in _RULE_PASSES:
        rule_pass(report, ir)
    if config is not None and config.suppress:
        report = report.suppressed(config.suppress)
    return report


def check_plan(
    plan: "ExecutionPlan",
    config: Optional[PlanCheckConfig] = None,
    target: Optional[str] = None,
) -> CheckReport:
    """Summarize ``plan`` into its declared IR and statically verify it.

    Returns a :class:`CheckReport`; ``report.ok`` means every PL6xx rule
    holds and the plan is safe to replay.
    """
    ir = plan.summarize()
    if target is None:
        target = (
            f"plan[{len(ir.steps)} steps, int={ir.int_steps}, "
            f"path={ir.int_path}]"
        )
    return check_plan_ir(ir, config, target)


__all__: List[str] = [
    "ACC_LIMIT",
    "CARRIER_EXACT",
    "PlanCheckConfig",
    "accumulator_bound",
    "check_plan",
    "check_plan_ir",
]

"""Structured diagnostics for the static deployment verifier.

Every rule violation the checker can prove (or suspect) becomes one
:class:`Diagnostic` — a rule id, a severity, the layer path it anchors to,
a human-readable message and a fix hint.  A :class:`CheckReport` collects
the diagnostics for one check target (a module graph or a
:class:`~repro.models.specs.NetworkSpec`) and is what the CLI renders,
what :func:`~repro.core.deployment.deploy_model` gates on, and what
:class:`~repro.runtime.engine.InferenceEngine` consults before tracing.

Severity policy
---------------
``error``
    A proven violation of a deployment invariant: the network cannot be
    (or must not be) programmed onto the SNC as-is.  Deployment refuses.
``warning``
    A property that degrades the deployment (silent float64 fallback on
    the integer fast path, exhausted spare-tile headroom) but does not
    make it incorrect.
``info``
    Worst-case observations that are by-design acceptable (e.g. signal
    saturation under adversarial inputs — calibration deliberately trades
    clipping for resolution).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Recognised severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

#: One-line description of every rule the checker can emit, keyed by rule
#: id.  ``docs/static_analysis.md`` documents each in full; a test keeps
#: the two in sync.
RULES: Dict[str, str] = {
    "QS101": "layer shapes are inconsistent (channel/feature mismatch or empty output)",
    "QS102": "module type unknown to the verifier; treated as identity",
    "QS103": "stochastic/normalization layer left in training mode",
    "QS201": "signal range overflow: every output provably saturates the M-bit window",
    "QS202": "worst-case signals may clip at the top of the M-bit window",
    "QS210": "inter-layer signal quantizers are not uniform (mixed M or gain)",
    "QS220": "requantize scale is off the power-of-two grid required by shift mode",
    "QS221": "requantize shift falls outside the provable [0, 62] range",
    "QW301": "weights are off the N-bit fixed-point grid (Eq. 6) or exceed ±2^(N−1)",
    "QW302": "weight bit widths are not uniform across layers",
    "QI401": "integer fast path exceeds the float32 mantissa; falls back to float64 carrier",
    "QI402": "layer cannot take the integer fast path; runs through the float path",
    "QC501": "crossbar budget overrun (Eq. 1 tile count exceeds the configured maximum)",
    "QC502": "weight codes are not representable in the memristor conductance range",
    "QC503": "no spare-tile headroom remains for remediation",
    "PL600": "model does not compile to an integer execution plan (graph fallback)",
    "PL601": "worst-case integer GEMM accumulator can overflow its declared carrier",
    "PL602": "copy program or pooled buffers alias (overlapping live memory)",
    "PL603": "step boundary breaks a layout, counts-window, or dtype contract",
    "PL604": "shift epilogue infeasible (scale off the pow2 grid or shift out of range)",
    "PL605": "plan touches buffers outside its declared pre-allocated working set",
    "QT701": "temporal window configuration invalid (stride exceeds window, events dropped)",
    "QT702": "event counts saturate the M-bit window within some sliding window",
    "QT703": "stream stride outpaces the simulated pipeline (real-time violation)",
    "QT704": "temporal binning bits disagree with the deployed input quantizer",
    "QN801": "NIR archive carries the wrong format tag or an unsupported version",
    "QN802": "NIR node kind is outside the documented vocabulary",
    "QN803": "NIR node arrays are missing or inconsistent with declared attributes",
    "QN804": "NIR graph is malformed (dangling child/edge references or missing root)",
    "QN805": "NIR quantized activations are not uniform (mixed M bits or gain)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verifier.

    Attributes
    ----------
    rule:
        Rule id (key of :data:`RULES`), e.g. ``"QS201"``.
    severity:
        ``"error"`` | ``"warning"`` | ``"info"``.
    layer:
        Dotted module path (or spec layer name) the finding anchors to;
        empty string for network-wide findings.
    message:
        What was proven/suspected, with the concrete numbers.
    hint:
        How to fix or silence it.
    details:
        Machine-readable extras (bounds, tile counts, dtypes, …).
    """

    rule: str
    severity: str
    layer: str
    message: str
    hint: str = ""
    details: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    def format(self) -> str:
        """Render as one (possibly two) human-readable lines."""
        where = self.layer or "<network>"
        line = f"[{self.severity}] {self.rule} @ {where}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        """JSON-serializable form (details coerced to plain types)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "layer": self.layer,
            "message": self.message,
            "hint": self.hint,
            "details": {k: _plain(v) for k, v in dict(self.details).items()},
        }


def _plain(value):
    """Coerce numpy scalars and odd types to JSON-friendly ones."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):  # pragma: no cover - arrays in details
            return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class CheckReport:
    """All diagnostics for one check target, with severity accessors.

    ``target`` names what was checked (``"lenet (spec)"``,
    ``"deployed:LeNet"``, …); ``facts`` optionally carries the per-layer
    analysis records (:class:`~repro.check.abstract.LayerFact`) that the
    rules were evaluated on, for verbose rendering.
    """

    def __init__(self, target: str, diagnostics: Iterable[Diagnostic] = (), facts=None) -> None:
        self.target = target
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        self.facts = list(facts) if facts is not None else []

    # -- construction -------------------------------------------------------
    def add(
        self,
        rule: str,
        severity: str,
        layer: str,
        message: str,
        hint: str = "",
        **details,
    ) -> Diagnostic:
        """Append a diagnostic and return it."""
        diag = Diagnostic(rule, severity, layer, message, hint, details)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "CheckReport") -> None:
        """Absorb another report's diagnostics and facts."""
        self.diagnostics.extend(other.diagnostics)
        self.facts.extend(other.facts)

    def suppressed(self, rules: Iterable[str]) -> "CheckReport":
        """A copy of this report with the given rule ids removed."""
        drop = set(rules)
        kept = [d for d in self.diagnostics if d.rule not in drop]
        return CheckReport(self.target, kept, self.facts)

    # -- accessors ----------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity diagnostics."""
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity diagnostics."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        """Info-severity diagnostics."""
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def has_errors(self) -> bool:
        """True when any error-severity diagnostic is present."""
        return any(d.severity == "error" for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """True when the target passed (no errors; warnings allowed)."""
        return not self.has_errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        """All diagnostics carrying the given rule id."""
        return [d for d in self.diagnostics if d.rule == rule]

    # -- rendering ----------------------------------------------------------
    def summary(self, verbose: bool = False) -> str:
        """Human-readable report: one header plus one block per finding."""
        verdict = "OK" if self.ok else "FAIL"
        header = (
            f"check {self.target}: {verdict} — {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info"
        )
        lines = [header]
        order = {severity: i for i, severity in enumerate(SEVERITIES)}
        for diag in sorted(self.diagnostics, key=lambda d: order[d.severity]):
            lines.append("  " + diag.format().replace("\n", "\n  "))
        if verbose and self.facts:
            lines.append("  layer facts:")
            for fact in self.facts:
                lines.append(f"    {fact.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form of the whole report."""
        return {
            "target": self.target,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"CheckReport({self.target!r}, errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, infos={len(self.infos)})"
        )

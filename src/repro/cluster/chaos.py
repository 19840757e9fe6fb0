"""Seeded chaos sweeps: crash schedules x presets x schemes.

The node-failure machinery (``repro.faults.NodeFaultPlan`` +
:class:`repro.cluster.session.ScenarioRuntime`) claims that residency
conservation and the deputy ledgers survive *every* crash/abort/repair
interleaving.  This module turns that claim into a harness: it runs a
matrix of scenario presets under randomly drawn (but fully seeded) crash
schedules with the invariant checker forced on, and reports every run's
reliability outcome.

Three run outcomes are *modelled behaviour*, not failures:

``completed``
    every migrant ran its trace to the end (possibly after aborts,
    re-targets, and chain repairs);
``killed``
    a home-node crash killed at least one migrant (openMosix's home
    dependency, with a clean ledger teardown);
``exhausted``
    the retry budget ran out against a long destination outage and the
    run raised :class:`repro.errors.MigrationError`.

Only :class:`repro.errors.InvariantViolation` counts as a chaos failure:
it means some interleaving corrupted the modelled state.  ``repro chaos``
exits non-zero iff the violation list is non-empty.

A preset may reject a scheme up front (``three-hop-lossy`` injects link
faults, which the FFA file-server protocol cannot retransmit through).
:func:`run_chaos` checks every preset x scheme pair before running any
cell and reports the rejected pairs as ``unsupported`` instead of dying
on the first one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CheckSpec, NodeFaultSpec
from ..errors import InvariantViolation, MigrationError
from .topology import build_preset

#: Default sweep axes: every deputy-backed recovery path (abort, repair,
#: kill) is reachable from these presets, and FFA exercises the
#: file-server-protected variant.
DEFAULT_PRESETS = ("pair", "three-hop", "contention")
DEFAULT_SCHEMES = ("AMPoM", "openMosix", "FFA", "NoPrefetch")


@dataclass(frozen=True, slots=True)
class ChaosRun:
    """Outcome record of one seeded chaos cell."""

    preset: str
    scheme: str
    seed: int
    outcome: str  # "completed" | "killed" | "exhausted"
    crashes: int
    restarts: int
    migration_aborts: int
    retargets: int
    chain_repairs: int
    pages_rehomed: int
    kills: int
    suspicions: int
    detections: int
    false_suspicions: int
    mean_detection_latency_s: float
    deep_audits: int
    error: str = ""
    #: Mean detection latency per crashed node (empty when no node was
    #: both crashed and detected) — surfaced in the chaos report/JSON.
    detection_latency_by_node: dict = field(default_factory=dict)

    def slo_metrics(self) -> dict[str, float]:
        """Numeric fields as an SLO metric mapping for this cell."""
        return {
            "crashes": float(self.crashes),
            "restarts": float(self.restarts),
            "migration_aborts": float(self.migration_aborts),
            "retargets": float(self.retargets),
            "chain_repairs": float(self.chain_repairs),
            "pages_rehomed": float(self.pages_rehomed),
            "kills": float(self.kills),
            "suspicions": float(self.suspicions),
            "detections": float(self.detections),
            "false_suspicions": float(self.false_suspicions),
            "mean_detection_latency_s": self.mean_detection_latency_s,
        }

    @property
    def survived(self) -> bool:
        return self.outcome == "completed"


@dataclass(slots=True)
class ChaosReport:
    """Aggregate of one :func:`run_chaos` sweep."""

    runs: list[ChaosRun] = field(default_factory=list)
    violations: list[tuple[ChaosRun, InvariantViolation]] = field(default_factory=list)
    #: Structured SLO breach records (``{"cell": ..., "metric": ...}``)
    #: when the sweep ran with ``slos=...``; a breached sweep is not
    #: ``ok`` and flips ``repro chaos`` to exit 1.
    slo_breaches: list[dict] = field(default_factory=list)
    #: Preset x scheme pairs the preset rejected before the sweep ran
    #: (``{"preset": ..., "scheme": ..., "reason": ...}``); their cells
    #: were skipped.
    unsupported: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.slo_breaches

    def counts(self) -> dict[str, int]:
        out = {"completed": 0, "killed": 0, "exhausted": 0}
        for run in self.runs:
            out[run.outcome] = out.get(run.outcome, 0) + 1
        return out

    def to_text(self) -> str:
        lines = []
        counts = self.counts()
        header = (
            f"chaos sweep: {len(self.runs)} runs — "
            f"{counts['completed']} completed, {counts['killed']} killed, "
            f"{counts['exhausted']} retry-exhausted, "
            f"{len(self.violations)} invariant violations, "
            f"{len(self.slo_breaches)} SLO breaches"
        )
        if self.unsupported:
            header += f", {len(self.unsupported)} unsupported preset/scheme pairs"
        lines.append(header)
        for run in self.runs:
            detail = (
                f"crashes={run.crashes} aborts={run.migration_aborts} "
                f"retargets={run.retargets} repairs={run.chain_repairs} "
                f"kills={run.kills} detections={run.detections} "
                f"det_lat={run.mean_detection_latency_s:.4f}s"
            )
            if run.error:
                detail += f"  [{run.error}]"
            lines.append(
                f"  {run.preset:12s} {run.scheme:10s} seed={run.seed:<3d} "
                f"{run.outcome:10s} {detail}"
            )
        for pair in self.unsupported:
            lines.append(
                f"  {pair['preset']:12s} {pair['scheme']:10s} unsupported  "
                f"[{pair['reason']}]"
            )
        for run, violation in self.violations:
            lines.append(
                f"VIOLATION {run.preset}/{run.scheme}/seed={run.seed}: {violation}"
            )
        for breach in self.slo_breaches:
            lines.append(
                f"SLO BREACH {breach['cell']}: {breach['metric']}="
                f"{breach['observed']:g} violates "
                f"{breach['metric']}{breach['op']}{breach['limit']:g}"
            )
        return "\n".join(lines)


def chaos_cell(
    preset: str,
    scheme: str,
    seed: int,
    scale: float = 1 / 32,
    crash_rate_hz: float = 1.0,
    mean_downtime_s: float = 0.25,
    horizon_s: float = 3.0,
    obs=None,
) -> tuple[ChaosRun, InvariantViolation | None]:
    """Run one preset/scheme cell under a seeded random crash schedule.

    The crash schedule is drawn per node from ``child_rng(seed,
    "nodefaults:<node>")`` inside the runtime — the same seed always
    yields the same chaos, so every cell is replayable from its record.
    ``obs`` attaches an observability bundle (pure observers: the cell's
    record is identical with or without it, gated by the test suite).
    """
    from .session import ScenarioRuntime

    spec = build_preset(preset, scheme, scale=scale, seed=seed)
    spec.config = spec.config.with_(
        node_faults=NodeFaultSpec(
            crash_rate_hz=crash_rate_hz,
            mean_downtime_s=mean_downtime_s,
            horizon_s=horizon_s,
        ),
        checks=CheckSpec(enabled=True),
    )
    runtime = ScenarioRuntime(spec, obs=obs)
    outcome = "completed"
    error = ""
    violation: InvariantViolation | None = None
    try:
        results = runtime.execute()
        if any(r.extra.get("killed") for r in results if r is not None):
            outcome = "killed"
    except InvariantViolation as exc:
        outcome = "violation"
        error = str(exc).splitlines()[0]
        violation = exc
    except MigrationError as exc:
        outcome = "exhausted"
        error = str(exc).splitlines()[0]
    stats = runtime.node_stats
    run = ChaosRun(
        preset=preset,
        scheme=scheme,
        seed=seed,
        outcome=outcome,
        crashes=stats.crashes,
        restarts=stats.restarts,
        migration_aborts=stats.migration_aborts,
        retargets=stats.retargets,
        chain_repairs=stats.chain_repairs,
        pages_rehomed=stats.pages_rehomed,
        kills=stats.kills,
        suspicions=stats.suspicions,
        detections=stats.detections,
        false_suspicions=stats.false_suspicions,
        mean_detection_latency_s=stats.mean_detection_latency_s,
        deep_audits=sum(c.deep_audits for c in runtime.checkers if c is not None),
        error=error,
        detection_latency_by_node=stats.detection_latency_by_node(),
    )
    return run, violation


def unsupported_pairs(presets, schemes, scale: float = 1 / 32) -> list[dict]:
    """The preset x scheme pairs whose preset rejects the scheme.

    Each pair's scenario is built once (no simulation runs); a preset
    that raises :class:`repro.errors.MigrationError` marks the pair
    unsupported, with the error's first line as the reason.
    """
    out = []
    for preset in presets:
        for scheme in schemes:
            try:
                build_preset(preset, scheme, scale=scale)
            except MigrationError as exc:
                out.append(
                    {
                        "preset": preset,
                        "scheme": scheme,
                        "reason": str(exc).splitlines()[0],
                    }
                )
    return out


def run_chaos(
    presets=DEFAULT_PRESETS,
    schemes=DEFAULT_SCHEMES,
    seeds=(0, 1, 2),
    scale: float = 1 / 32,
    crash_rate_hz: float = 1.0,
    mean_downtime_s: float = 0.25,
    horizon_s: float = 3.0,
    progress=None,
    slos=(),
) -> ChaosReport:
    """Sweep ``presets x schemes x seeds`` under seeded crash schedules.

    Pairs a preset rejects are skipped and listed on
    :attr:`ChaosReport.unsupported` (checked before any cell runs).

    Every cell runs with :class:`repro.check.InvariantChecker` forced on;
    the defaults give 36 independent seeded schedules (the acceptance
    floor is 20).  ``progress``, if given, is called with each finished
    :class:`ChaosRun`.  ``slos`` — expressions (``"kills<=4"``) or
    :class:`repro.obs.slo.SLOSpec` objects — are evaluated against every
    cell's reliability metrics; breaches make the report not-``ok``.
    """
    monitor = None
    if slos:
        from ..obs.slo import SLOMonitor, SLOSpec

        monitor = SLOMonitor(
            [s if isinstance(s, SLOSpec) else SLOSpec.parse(s) for s in slos]
        )
    report = ChaosReport(unsupported=unsupported_pairs(presets, schemes, scale))
    skipped = {(pair["preset"], pair["scheme"]) for pair in report.unsupported}
    for preset in presets:
        for scheme in schemes:
            if (preset, scheme) in skipped:
                continue
            for seed in seeds:
                run, violation = chaos_cell(
                    preset,
                    scheme,
                    seed,
                    scale=scale,
                    crash_rate_hz=crash_rate_hz,
                    mean_downtime_s=mean_downtime_s,
                    horizon_s=horizon_s,
                )
                report.runs.append(run)
                if violation is not None:
                    report.violations.append((run, violation))
                if monitor is not None:
                    cell = f"{run.preset}/{run.scheme}/seed={run.seed}"
                    for breach in monitor.evaluate(0.0, run.slo_metrics()):
                        report.slo_breaches.append(
                            {"cell": cell, **breach.as_dict()}
                        )
                if progress is not None:
                    progress(run)
    return report


__all__ = [
    "ChaosReport",
    "ChaosRun",
    "DEFAULT_PRESETS",
    "DEFAULT_SCHEMES",
    "chaos_cell",
    "run_chaos",
    "unsupported_pairs",
]

"""Graded fault campaigns: one scenario table, one case runner, one grader.

Every named scenario is data — a :class:`Scenario` row in
:data:`SCENARIOS` naming its campaign ``kind``, its
:class:`~repro.faults.plan.FaultPlan`, the protection both runs carry
(checkpoints, an integrity ledger, result certification), the recovery
object the faulted run gets, and the counts a healthy recovery must
produce.  The four kinds (:data:`KINDS`) are

``basic``
    crash-and-resume, transient retries, checksum-caught wire
    corruption, stragglers;
``elastic``
    permanent rank loss, regridded onto the survivors or a hot spare;
``autoscale``
    the health watchdog demotes chronic stragglers and the grid grows
    back onto arriving spares;
``sdc``
    silent memory bit flips caught by the integrity ledger and
    repaired by checkpoint rollback.

:func:`run_case` runs one (scenario, algorithm) pair twice on
identically configured engines — once fault-free, once faulted, both
with the scenario's protection so checkpoint-drain, digest-exchange
and certifier charges cancel out of the comparison — and grades it:

``completed``
    The run absorbed its faults (retries, stalls, held spares) without
    a resume, regrid or repair.
``recovered``
    The run resumed from a checkpoint after a crash or a detected
    corruption, or regridded onto a new rank set, and finished.
``unrecovered``
    The run could not come back: no checkpoint to resume from, or a
    regrid / repair budget ran out.  Always a failing grade.
``diverged``
    The faulted run finished with different values — the fault
    machinery corrupted the computation.  Always a bug.

A case is ``ok`` when it completed or recovered, every ``expect``
count matches, and — on ``exact`` scenarios — communication counters
and every lane of :meth:`~repro.comm.clocks.VirtualClocks.per_rank_lanes`
equal the reference.  Exactness holds for crash-resume and memflip
repair because a crash aborts a collective *before* it charges
anything and restore rewinds to a superstep boundary exactly.  Values
must match bit-for-bit, except that PageRank may match within
``rtol=1e-9`` after regridding onto a *different* grid: its sum
reductions are sensitive to the operand grouping a new grid induces
(see ``docs/ROBUSTNESS.md``).  A spare adoption keeps the grid, so it
stays exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from ..algorithms import bfs, connected_components, pagerank, sssp
from .checkpoint import CheckpointManager
from .elastic import ElasticRecovery, ElasticUnrecoverable
from .health import AutoscalePolicy, AutoscaleRecovery, HealthMonitor
from .injector import RankFailure
from .integrity import IntegrityFailure, IntegrityLedger
from .plan import FaultPlan, FaultSpec

__all__ = [
    "KINDS",
    "SCENARIOS",
    "RUNNERS",
    "WEIGHTED_ALGOS",
    "REPORT_SCHEMA",
    "Scenario",
    "CaseResult",
    "select_cases",
    "run_case",
    "run_campaign",
]

REPORT_SCHEMA = "repro.faults.campaign.v2"

#: Default algorithms and grid size per campaign kind.  Elastic runs
#: default to 12 ranks so a 3x4 grid can lose ranks and still factor
#: usefully; autoscale runs to 4 so demote-then-grow-back round-trips
#: 2x2 -> 1x3 -> 2x2; SDC runs to 4 because the integrity ledger needs
#: replicated windows on both grid axes (R >= 2 and C >= 2).
KINDS: dict[str, dict] = {
    "basic": {"algos": ("BFS", "CC", "PR"), "ranks": 4},
    "elastic": {"algos": ("BFS", "CC", "PR"), "ranks": 12},
    "autoscale": {"algos": ("BFS", "CC", "PR"), "ranks": 4},
    "sdc": {"algos": ("BFS", "CC", "PR", "SSSP"), "ranks": 4},
}


@dataclass(frozen=True)
class Scenario:
    """One graded scenario.

    ``recovery`` and ``ledger`` are zero-argument factories (each run
    needs fresh objects); ``expect`` maps :class:`CaseResult` count
    fields (``regrids``, ``rank_delta``, ``detected``) to the values a
    healthy recovery produces.
    """

    kind: str
    plan: FaultPlan
    checkpointed: bool = True
    recovery: Optional[Callable[[], ElasticRecovery]] = None
    ledger: Optional[Callable[[], IntegrityLedger]] = None
    certify: bool = False
    exact: bool = False
    expect: dict = field(default_factory=dict)


_sdc = partial(
    Scenario,
    "sdc",
    ledger=partial(IntegrityLedger, repair_budget=2),
    certify=True,
    exact=True,
)

#: Every named scenario.  Supersteps are 1-based; ranks assume at least
#: a 2x2 grid.  The autoscale rows are tuned to the campaign dataset on
#: a 4-rank grid, where BFS — the shortest run — finishes in 3
#: supersteps: two 2 s stalls against ~0.1 s/superstep natural deltas
#: make a straggler chronic by boundary 2 at ``chronic_after=2``, and
#: spares arrive by superstep 3, the last boundary every algorithm
#: reaches.  SDC flips fire at superstep >= 2 with checkpoints at every
#: boundary, so a verified-good checkpoint always exists to roll back to.
SCENARIOS: dict[str, Scenario] = {
    # Resumed from the superstep-1 checkpoint; bit-identical.
    "crash-recover": Scenario(
        "basic", FaultPlan([FaultSpec("crash", 2, rank=1)]), exact=True
    ),
    "transient-retry": Scenario(
        "basic", FaultPlan([FaultSpec("transient", 1, count=2)])
    ),
    "bitflip-detect": Scenario(
        "basic", FaultPlan([FaultSpec("corruption", 2, bit=7)])
    ),
    "straggler-drag": Scenario(
        "basic",
        FaultPlan(
            [
                FaultSpec("straggler", 1, rank=0, delay_s=5e-4),
                FaultSpec("straggler", 2, rank=2, delay_s=1e-3),
            ]
        ),
    ),
    # The deliberate failure: no checkpoints, so the crash is final.
    # Unprotected scenarios stay out of default campaigns (select it
    # explicitly to verify the failing exit path).
    "crash-unrecovered": Scenario(
        "basic", FaultPlan([FaultSpec("crash", 2, rank=0)]), checkpointed=False
    ),
    # One permanent loss mid-run; the survivors regrid to the most
    # square factor pair.
    "crash-shrink": Scenario(
        "elastic",
        FaultPlan([FaultSpec("crash", 2, rank=1)]),
        recovery=partial(ElasticRecovery, policy="prefer-square"),
        expect={"regrids": 1},
    ),
    # The same loss absorbed by a hot spare: the grid never changes.
    "crash-spare": Scenario(
        "elastic",
        FaultPlan([FaultSpec("crash", 2, rank=1)]),
        recovery=partial(ElasticRecovery, policy="spare-pool:1"),
        expect={"regrids": 1},
    ),
    # The second crash hits the already-shrunk grid.
    "double-crash-cascade": Scenario(
        "elastic",
        FaultPlan([FaultSpec("crash", 2, rank=1), FaultSpec("crash", 3, rank=2)]),
        recovery=partial(ElasticRecovery, policy="prefer-square"),
        expect={"regrids": 2},
    ),
    # Loss close to convergence: the regrid cost dominates what is left.
    "crash-at-convergence-tail": Scenario(
        "elastic",
        FaultPlan([FaultSpec("crash", 3, rank=2)]),
        recovery=partial(ElasticRecovery, policy="prefer-square"),
        expect={"regrids": 1},
    ),
    # Suspect at boundary 1, chronic at boundary 2, demoted; the run
    # continues on the squarest 3-rank grid.
    "chronic-straggler-demote": Scenario(
        "autoscale",
        FaultPlan(
            [
                FaultSpec("straggler", 1, rank=1, delay_s=2.0),
                FaultSpec("straggler", 2, rank=1, delay_s=2.0),
            ]
        ),
        recovery=lambda: AutoscaleRecovery(monitor=HealthMonitor(chronic_after=2)),
        expect={"regrids": 1, "rank_delta": -1},
    ),
    # A hard crash shrinks the grid; a replacement arrives one superstep
    # later and the run grows back to full strength.
    "spare-arrival-grow": Scenario(
        "autoscale",
        FaultPlan([FaultSpec("crash", 2, rank=1), FaultSpec("recover", 3)]),
        recovery=AutoscaleRecovery,
        expect={"regrids": 2, "rank_delta": 0},
    ),
    # Demote, grow back onto the arriving spare, then shrug off a new
    # straggler on the grown grid: the demotion budget is spent, so the
    # oscillation guard holds the grid steady.
    "demote-then-grow-back": Scenario(
        "autoscale",
        FaultPlan(
            [
                FaultSpec("straggler", 1, rank=1, delay_s=2.0),
                FaultSpec("straggler", 2, rank=1, delay_s=2.0),
                FaultSpec("recover", 3),
                FaultSpec("straggler", 3, rank=0, delay_s=2.0),
            ]
        ),
        recovery=lambda: AutoscaleRecovery(monitor=HealthMonitor(chronic_after=2)),
        expect={"regrids": 2, "rank_delta": 0},
    ),
    # Extreme hysteresis models "the migration would cost more than the
    # remaining work": the policy records a hold and never grows.
    "grow-at-convergence-tail": Scenario(
        "autoscale",
        FaultPlan([FaultSpec("recover", 2)]),
        recovery=lambda: AutoscaleRecovery(policy=AutoscalePolicy(hysteresis=1000)),
        expect={"regrids": 0, "rank_delta": 0},
    ),
    # One bit in rank 1's state, early in the run.
    "memflip-single": _sdc(
        FaultPlan([FaultSpec("memflip", 2, rank=1, bit=137)]),
        expect={"detected": 1},
    ),
    # A 3-bit burst late in the run (DRAM row disturbance model).
    "memflip-burst": _sdc(
        FaultPlan([FaultSpec("memflip", 3, rank=2, bit=4099, count=3)]),
        expect={"detected": 1},
    ),
    # Two flips on different ranks and supersteps: two round trips.
    "memflip-double": _sdc(
        FaultPlan(
            [
                FaultSpec("memflip", 2, rank=1, bit=7),
                FaultSpec("memflip", 3, rank=2, bit=513),
            ]
        ),
        expect={"detected": 2},
    ),
}

#: ``runner(engine, resume=, elastic=, certify=)`` keyed by the paper's
#: abbreviations.  SSSP needs an edge-weighted graph.
RUNNERS: dict[str, Callable[..., Any]] = {
    "BFS": lambda engine, **kw: bfs(engine, root=0, **kw),
    "PR": lambda engine, **kw: pagerank(engine, iterations=10, **kw),
    "CC": lambda engine, **kw: connected_components(engine, **kw),
    "SSSP": lambda engine, **kw: sssp(engine, root=0, **kw),
}

#: Algorithms that need an edge-weighted graph.
WEIGHTED_ALGOS = ("SSSP",)

#: Backstop on resume attempts per case.  Every crash spec fires once
#: and the ledger bounds repairs itself, so a healthy run never hits it.
MAX_RESUMES = 8

#: Per-case counts summed into the campaign report.
COUNTS = ("regrids", "demotions", "grows", "holds", "repairs", "detected")

STATUSES = ("completed", "recovered", "unrecovered", "diverged")


@dataclass
class CaseResult:
    """Outcome of one (scenario, algorithm) pair."""

    scenario: str
    kind: str
    algo: str
    status: str  # completed | recovered | unrecovered | diverged
    exact: bool = False
    expect: dict = field(default_factory=dict)
    values_equal: Optional[bool] = None
    values_close: Optional[bool] = None
    counters_equal: Optional[bool] = None
    #: Clock lanes that differ from the reference (None: not compared).
    lanes_differ: Optional[list] = None
    regrids: int = 0
    rank_delta: int = 0
    detected: int = 0
    demotions: int = 0
    grows: int = 0
    holds: int = 0
    repairs: int = 0
    grid_trail: list = field(default_factory=list)
    recovery_s: float = 0.0
    regrid_s: float = 0.0
    certify_s: float = 0.0
    fault_events: list = field(default_factory=list)
    error: str = ""

    @property
    def clocks_equal(self) -> Optional[bool]:
        return None if self.lanes_differ is None else not self.lanes_differ

    @property
    def ok(self) -> bool:
        if self.status not in ("completed", "recovered"):
            return False
        if self.exact and not (self.counters_equal and self.clocks_equal):
            return False
        return all(getattr(self, k) == v for k, v in self.expect.items())

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "ok": self.ok,
            "clocks_equal": self.clocks_equal,
            "n_fault_events": len(self.fault_events),
        }


def differing_lanes(ref, other) -> list[str]:
    """Names of the :class:`VirtualClocks` lanes where ``other`` differs
    from ``ref`` (rank counts differing counts as a difference)."""
    theirs = other.per_rank_lanes()
    return [
        lane
        for lane, values in ref.per_rank_lanes().items()
        if not np.array_equal(values, theirs[lane])
    ]


def _check_algo(algo: str) -> None:
    if algo not in RUNNERS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {sorted(RUNNERS)}")


def _resolve(scenario: Union[str, Scenario], plan: Optional[FaultPlan]):
    """``(name, Scenario)`` for a table name, a custom name plus
    ``plan`` (a checkpointed basic scenario), or a Scenario object."""
    if isinstance(scenario, Scenario):
        spec, name = scenario, "custom"
    elif scenario in SCENARIOS:
        spec, name = SCENARIOS[scenario], scenario
    elif plan is not None:
        spec, name = Scenario("basic", plan), scenario
    else:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    return name, spec if plan is None else replace(spec, plan=plan)


def _protected(make_engine, spec: Scenario, checkpoint_interval: int):
    """A fresh engine carrying the scenario's protection."""
    engine = make_engine()
    ledger = spec.ledger() if spec.ledger is not None else None
    if ledger is not None:
        engine.attach_integrity(ledger)
    if spec.checkpointed:
        engine.attach_checkpoints(CheckpointManager(interval=checkpoint_interval))
    return engine, ledger


def run_case(
    make_engine: Callable[[], Any],
    algo: str,
    scenario: Union[str, Scenario],
    plan: Optional[FaultPlan] = None,
    checkpoint_interval: int = 1,
    max_retries: int = 4,
) -> CaseResult:
    """Run one (scenario, algorithm) pair and grade the outcome.

    ``scenario`` is a :data:`SCENARIOS` name or a :class:`Scenario`;
    ``plan`` overrides its fault plan (with an unknown name it makes a
    checkpointed ``basic`` scenario).  A :class:`RankFailure` escaping
    the run — a crash past its retries, or a detected corruption —
    resumes from the latest checkpoint, up to :data:`MAX_RESUMES`
    times; no checkpoint, or an exhausted regrid / repair budget,
    grades ``unrecovered``.
    """
    _check_algo(algo)
    name, spec = _resolve(scenario, plan)
    runner = RUNNERS[algo]

    ref_engine, _ = _protected(make_engine, spec, checkpoint_interval)
    ref = runner(ref_engine, certify=spec.certify)

    engine, ledger = _protected(make_engine, spec, checkpoint_interval)
    engine.attach_faults(spec.plan, max_retries=max_retries)
    recovery = spec.recovery() if spec.recovery is not None else None
    start = (engine.grid.R, engine.grid.C)

    result, error, resumes = None, "", 0
    while result is None:
        try:
            result = runner(
                engine, resume=resumes > 0, elastic=recovery, certify=spec.certify
            )
        except RankFailure as exc:
            # The failure consumed its fault spec, so the same injector
            # stays attached and any remaining faults hit the resumed run.
            mgr = engine.checkpoints
            if mgr is None or mgr.latest() is None or resumes == MAX_RESUMES:
                error = str(exc)
                break
            resumes += 1
        except (ElasticUnrecoverable, IntegrityFailure) as exc:
            error = str(exc)
            break

    # Regrid history and the injector are shared across rebuilt
    # engines, so the original engine sees every event.
    events = engine.fault_events
    kinds = [e["kind"] for e in events]
    moves = [e for e in events if "to_grid" in e]
    trail = [start] + [tuple(e["to_grid"]) for e in moves]
    flips = {e["superstep"] for e in events if e["kind"] == "memflip"}
    caught = {e["superstep"] for e in events if e["kind"] == "integrity"}
    case = CaseResult(
        scenario=name,
        kind=spec.kind,
        algo=algo,
        status="unrecovered",
        exact=spec.exact,
        expect=dict(spec.expect),
        regrids=len(moves),
        rank_delta=trail[-1][0] * trail[-1][1] - start[0] * start[1],
        detected=len(flips & caught),
        demotions=kinds.count("demote"),
        grows=kinds.count("grow"),
        holds=kinds.count("hold"),
        repairs=ledger.repairs if ledger is not None else 0,
        grid_trail=trail,
        fault_events=events,
        error=error,
    )
    final = engine
    if result is not None:
        final = result.extra.get("elastic", {}).get("engine", engine)
        case.values_equal = bool(np.array_equal(ref.values, result.values))
        case.values_close = bool(
            np.allclose(ref.values, result.values, rtol=1e-9, atol=1e-12)
        )
        moved = any(e["from_grid"] != e["to_grid"] for e in moves)
        if not (case.values_equal or (algo == "PR" and moved and case.values_close)):
            case.status = "diverged"
        else:
            case.status = "recovered" if resumes or moves else "completed"
        case.counters_equal = (
            ref_engine.counters.summary() == final.counters.summary()
        )
        case.lanes_differ = differing_lanes(ref_engine.clocks, final.clocks)
    case.recovery_s = float(final.clocks.recovery_total)
    case.regrid_s = float(final.clocks.regrid_total)
    case.certify_s = float(final.clocks.certify_total)
    return case


def select_cases(
    kind: str,
    algos: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Validate and default a campaign's ``(algos, scenarios)``.

    Defaults are the kind's :data:`KINDS` algorithms and every
    checkpointed scenario of that kind.  Raises ``ValueError`` naming
    the valid choices for an unknown kind or algorithm, or a scenario
    from another kind.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown campaign kind {kind!r}; choose from {sorted(KINDS)}")
    algos = tuple(algos) if algos is not None else KINDS[kind]["algos"]
    for algo in algos:
        _check_algo(algo)
    own = [n for n, s in SCENARIOS.items() if s.kind == kind]
    if scenarios is None:
        scenarios = [n for n in own if SCENARIOS[n].checkpointed]
    for name in scenarios:
        if name not in own:
            raise ValueError(
                f"scenario {name!r} is not in the {kind} campaign; choose from {own}"
            )
    return algos, tuple(scenarios)


def run_campaign(
    make_engine: Callable[[], Any],
    kind: str = "basic",
    algos: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    checkpoint_interval: int = 1,
    max_retries: int = 4,
    make_weighted_engine: Optional[Callable[[], Any]] = None,
) -> dict:
    """Run one kind's scenario x algorithm grid; return the report.

    ``report["failed"]`` counts cases that are not ``ok`` — the
    ``python -m repro faults`` CLI turns it into the exit code.
    Weighted algorithms (SSSP) use ``make_weighted_engine`` and are
    skipped — *loudly*, via the ``skipped`` list — without one.
    """
    algos, scenarios = select_cases(kind, algos, scenarios)
    cases, skipped = [], []
    for scenario in scenarios:
        for algo in algos:
            factory = make_engine
            if algo in WEIGHTED_ALGOS:
                if make_weighted_engine is None:
                    skipped.append({"scenario": scenario, "algo": algo})
                    continue
                factory = make_weighted_engine
            cases.append(
                run_case(
                    factory,
                    algo,
                    scenario,
                    checkpoint_interval=checkpoint_interval,
                    max_retries=max_retries,
                )
            )
    return {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "cases": [c.as_dict() for c in cases],
        "skipped": skipped,
        "total": len(cases),
        "failed": sum(1 for c in cases if not c.ok),
        **{s: sum(1 for c in cases if c.status == s) for s in STATUSES},
        **{k: sum(getattr(c, k) for c in cases) for k in COUNTS},
    }

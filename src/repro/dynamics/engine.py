"""Churn simulation engine.

Drives repeated churn epochs over a scenario and records, for each epoch and
each algorithm, the paper's measurement points (before / after / re-executed)
plus the repair policies added by this reproduction.  A single epoch with the
default :class:`~repro.dynamics.churn.ChurnSpec` reproduces the paper's
Table 3; running many epochs turns it into a longitudinal study of how
assignments age under sustained churn.

The engine is built for long runs:

* **Delta backend** (default) — each epoch advances a mutable
  :class:`SimulationState` with :meth:`~repro.world.scenario.DVEScenario.apply_churn_delta`
  and :meth:`~repro.core.problem.CAPInstance.apply_delta`, reusing the
  surviving clients' delay rows instead of rebuilding the full client×server
  matrix and re-validating every array.  ``backend="rebuild"`` keeps the
  original full-rebuild path as the executable specification; the two are
  bit-identical for any seed and epoch count.
* **Policies** — :class:`~repro.dynamics.policies.PolicySchedule` decides per
  epoch whether to re-execute the algorithm from scratch, repair
  incrementally (contact phase only), warm-start the local search from the
  carried-over assignment, or re-execute only every k-th epoch;
  :class:`~repro.dynamics.policies.RebalancePolicy` (the rebalance
  controller's) reacts to the carried-over pQoS instead.
* **Streaming records** — :meth:`ChurnSimulator.stream` is a generator, so a
  thousand-epoch run can be consumed (CSV row by CSV row, streaming summary
  statistics) without ever holding all records in memory.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.core.assignment import Assignment
from repro.core.local_search import warm_start_refine
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnBatch, ChurnSpec, generate_churn
from repro.dynamics.degradation import AdmissionPolicy, AdmissionStats
from repro.dynamics.events import ChurnResult, apply_churn
from repro.dynamics.infrastructure import (
    ServerChurnResult,
    ServerChurnSpec,
    apply_server_churn,
    generate_server_churn,
)
from repro.dynamics.measurement import (
    MEASUREMENT_BACKENDS,
    carried_qos_count,
    ensure_measures,
    measured_pqos,
    measured_utilization,
    stash_for,
)
from repro.dynamics.migration import MigrationCharge, MigrationCostModel, charge_zone_moves
from repro.dynamics.policies import (
    PolicySchedule,
    RebalancePolicy,
    carry_over_assignment,
    incremental_reassign,
    make_policy,
    reassign,
    remap_assignment_servers,
)
from repro.dynamics.scenarios import ScenarioRuntime, ScenarioTimeline, build_timeline
from repro.utils.arena import EpochArena
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.distributions import ZoneSamplingPlan
from repro.world.scenario import DVEScenario
from repro.world.servers import ServerSet

__all__ = ["EpochRecord", "SimulationState", "ChurnSimulator", "EpochSession", "BACKENDS"]

#: World-advance backends: delta updates vs full rebuild (the executable spec).
BACKENDS = ("delta", "rebuild")

_NAN = float("nan")


@dataclass(frozen=True)
class EpochRecord:
    """Per-algorithm pQoS (and utilisation) around one churn epoch.

    ``pqos_before`` is measured on the pre-churn population, ``pqos_after`` on
    the post-churn population with the stale assignment, ``pqos_reexecuted``
    after running the algorithm from scratch, and ``pqos_incremental`` after
    the cheap contact-only repair.  ``pqos_adopted`` / ``utilization_adopted``
    describe the assignment the policy actually kept for the next epoch;
    measurement points the epoch's policy action did not compute are NaN.

    ``zones_migrated`` / ``clients_migrated`` / ``migration_cost`` charge the
    adopted assignment's zone moves relative to the pre-churn assignment
    (including evacuations forced by departing servers) under the engine's
    :class:`~repro.dynamics.migration.MigrationCostModel`, so disruption can
    be compared across policies from the CSV stream alone.

    ``shard_id`` addresses the record within a federated multi-shard run
    (:class:`~repro.dynamics.federation_engine.FederatedSimulator`); the
    default ``-1`` means "whole system / unsharded" and is deliberately NOT
    part of :data:`FIELDS`, so the classic ``simulate --csv`` stream stays
    byte-identical — federated consumers use :data:`FEDERATED_FIELDS`.

    ``clients_degraded`` / ``capacity_deficit`` report the scenario layer's
    graceful degradation (:mod:`repro.dynamics.degradation`): how many clients
    sit in the degraded pool after this epoch's admission control, and the
    pre-shedding demand overshoot in bits/s.  Like ``shard_id`` they are
    additive — absent from :data:`FIELDS` so classic CSV headers stay frozen;
    scenario consumers use :data:`SCENARIO_FIELDS`.
    """

    epoch: int
    algorithm: str
    pqos_before: float
    pqos_after: float
    pqos_reexecuted: float
    pqos_incremental: float
    utilization_before: float
    utilization_reexecuted: float
    num_clients_before: int
    num_clients_after: int
    policy: str = "reexecute"
    pqos_adopted: float = _NAN
    utilization_adopted: float = _NAN
    num_servers_after: int = 0
    zones_migrated: int = 0
    clients_migrated: int = 0
    migration_cost: float = 0.0
    shard_id: int = -1
    clients_degraded: int = 0
    capacity_deficit: float = 0.0

    #: CSV / JSON column order used by the ``simulate`` CLI and benchmarks.
    #: Frozen for backward compatibility: ``shard_id`` is intentionally absent
    #: (unsharded output predates federation and must not change).
    FIELDS = (
        "epoch",
        "algorithm",
        "policy",
        "num_clients_before",
        "num_clients_after",
        "num_servers_after",
        "pqos_before",
        "pqos_after",
        "pqos_reexecuted",
        "pqos_incremental",
        "pqos_adopted",
        "utilization_before",
        "utilization_reexecuted",
        "utilization_adopted",
        "zones_migrated",
        "clients_migrated",
        "migration_cost",
    )

    #: Column order for federated streams: the shard address, then the classic
    #: measurement columns (so a federated CSV is the classic CSV plus one
    #: leading shard column).
    FEDERATED_FIELDS = ("shard_id", *FIELDS)

    #: Column order for scenario streams: the classic measurement columns plus
    #: the trailing degradation columns (so a scenario CSV is the classic CSV
    #: with two extra columns on the right).
    SCENARIO_FIELDS = (*FIELDS, "clients_degraded", "capacity_deficit")

    def row(self) -> list:
        """The record as a flat list in :data:`FIELDS` order."""
        return [getattr(self, name) for name in self.FIELDS]

    def federated_row(self) -> list:
        """The record as a flat list in :data:`FEDERATED_FIELDS` order."""
        return [getattr(self, name) for name in self.FEDERATED_FIELDS]

    def scenario_row(self) -> list:
        """The record as a flat list in :data:`SCENARIO_FIELDS` order."""
        return [getattr(self, name) for name in self.SCENARIO_FIELDS]


@dataclass
class SimulationState:
    """Mutable state of a longitudinal churn simulation.

    Holds the current scenario / instance snapshot, each algorithm's live
    assignment, and reusable scratch buffers so per-epoch transients (the
    carried-over contact array) do not allocate afresh every epoch.
    """

    scenario: DVEScenario
    instance: CAPInstance
    assignments: Dict[str, Assignment]
    #: Cached (pQoS, utilisation) of each algorithm's current assignment on the
    #: current instance — the next epoch's "before" measurement, carried
    #: forward so it is never recomputed (it is bit-identical by construction).
    measures: Dict[str, tuple] = field(default_factory=dict)
    epoch: int = 0
    #: Per-session scratch arena generalising the old contacts buffer: all
    #: recurring per-epoch buffers (delay matrix double-buffer, population
    #: arrays, demand vectors, repair work arrays) recycle through it when
    #: the simulator runs with ``arena=True``.
    arena: Optional[EpochArena] = field(default=None, repr=False)
    _contacts_scratch: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False
    )

    def contacts_buffer(self, num_clients: int) -> np.ndarray:
        """A reusable int64 scratch buffer with at least ``num_clients`` slots.

        Grows geometrically and is recycled across epochs; only valid for
        transient assignments that are dropped before the next request.
        """
        if self.arena is not None:
            return self.arena.scratch("carry_contacts", num_clients, dtype=np.int64)
        if self._contacts_scratch.shape[0] < num_clients:
            self._contacts_scratch = np.empty(
                max(num_clients, 2 * self._contacts_scratch.shape[0]), dtype=np.int64
            )
        return self._contacts_scratch

    @property
    def num_clients(self) -> int:
        """Clients in the current snapshot."""
        return self.instance.num_clients


@dataclass
class ChurnSimulator:
    """Simulates repeated churn epochs for a set of algorithms.

    Parameters
    ----------
    scenario:
        The initial scenario (typically built with correlation 0, as in the
        paper's dynamics experiment).
    algorithms:
        Names of registered CAP solvers to track.
    churn_spec:
        Amount of client churn per epoch.
    server_churn_spec:
        Optional infrastructure churn per epoch (servers joining / leaving,
        capacity drift).  ``None`` (or an all-zero spec) keeps the paper's
        fixed fleet — and keeps every record bit-identical to the
        pre-elastic engine, because the extra RNG sub-stream is only spawned
        when infrastructure churn is active.
    migration_cost:
        Price model for zone moves; every adopted assignment is charged
        relative to the previous epoch's assignment and the bill is streamed
        in the records.  The default model is free.
    seed:
        Master seed; every epoch and every algorithm's randomised choices get
        independent sub-streams.
    policy:
        Per-epoch decision — a name accepted by
        :func:`~repro.dynamics.policies.make_policy` (``"reexecute"``,
        ``"incremental"``, ``"warm_start"``, ``"every_k_epochs"`` with
        ``policy_period``), a :class:`~repro.dynamics.policies.PolicySchedule`,
        or a :class:`~repro.dynamics.policies.RebalancePolicy` (a controlled
        run, as :class:`~repro.dynamics.controller.RebalanceController`
        drives it).
    policy_period:
        Period for the ``every_k_epochs`` policy (ignored otherwise).
    backend:
        ``"delta"`` (default) advances the world with delta updates;
        ``"rebuild"`` recomputes scenario and instance from scratch each
        epoch.  Records are bit-identical between the two.
    solver_backend:
        Max-regret placement backend used by every from-scratch and
        incremental solve (``"vectorized"`` / ``"loop"``; ``None`` uses the
        library default).  The backends are bit-identical, so this only
        affects epoch cost.
    measurement_backend:
        ``"full"`` (default) recomputes every measurement point from the
        assignment arrays — the executable specification.  ``"incremental"``
        serves points from the solvers' measurement stash
        (:mod:`repro.core.measures`) and produces the carried-over "after"
        point by delta-updating the previous epoch's within-bound count from
        the churn batch alone (:mod:`repro.dynamics.measurement`), skipping
        the O(clients) carried-assignment build on epochs whose action does
        not need it.  Records are bit-identical between the two.
    scenario_timeline:
        Optional incident timeline (:mod:`repro.dynamics.scenarios`) — a
        :class:`~repro.dynamics.scenarios.ScenarioTimeline`, a spec string /
        library name, or a sequence of them (normalised via
        :func:`~repro.dynamics.scenarios.build_timeline`).  When set, each
        epoch's churn, fleet capacities and delays follow the timeline, and
        every churn batch passes through admission control so infeasible
        epochs shed clients to a degraded pool instead of raising.  The
        scenario RNG stream is only spawned when a timeline is active, so
        classic runs stay byte-identical.  Mutually exclusive with an active
        ``server_churn_spec`` (the timeline owns the fleet's capacity story).
    admission_policy:
        Shedding/re-admission thresholds for the scenario layer
        (:class:`~repro.dynamics.degradation.AdmissionPolicy`); ``None`` uses
        the defaults.  Ignored without a timeline.
    arena:
        ``True`` (default) gives the session an :class:`EpochArena` so the
        recurring per-epoch buffers (delay matrix, population arrays, demand
        vector, carried contacts, repair work arrays) are recycled instead of
        reallocated, and churn generation reuses a precomputed
        :class:`~repro.world.distributions.ZoneSamplingPlan`.  Records are
        bit-identical with the arena on or off; ``False`` keeps the
        allocate-per-epoch executable specification.  With the arena on,
        external code must not retain references to a state's scenario /
        instance arrays across epochs (they are recycled once the state has
        advanced past them) — snapshot with ``.copy()`` or run ``arena=False``.
    """

    scenario: DVEScenario
    algorithms: List[str]
    churn_spec: ChurnSpec = field(default_factory=ChurnSpec)
    server_churn_spec: Optional[ServerChurnSpec] = None
    migration_cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    seed: SeedLike = None
    policy: Union[str, PolicySchedule, RebalancePolicy] = "reexecute"
    policy_period: int = 0
    policy_migration_budget: Optional[float] = None
    backend: str = "delta"
    solver_backend: Optional[str] = None
    measurement_backend: str = "full"
    scenario_timeline: Union[None, str, Iterable, ScenarioTimeline] = None
    admission_policy: Optional[AdmissionPolicy] = None
    arena: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.measurement_backend not in MEASUREMENT_BACKENDS:
            raise ValueError(
                f"unknown measurement_backend {self.measurement_backend!r}; "
                f"expected one of {MEASUREMENT_BACKENDS}"
            )
        if self.scenario_timeline is not None and not isinstance(
            self.scenario_timeline, ScenarioTimeline
        ):
            self.scenario_timeline = build_timeline(self.scenario_timeline)
        if self._scenario_active and self._server_churn_active:
            raise ValueError(
                "scenario_timeline cannot be combined with an active "
                "server_churn_spec: the timeline owns the fleet's capacity story"
            )

    @property
    def _server_churn_active(self) -> bool:
        """True when the epoch loop must generate infrastructure churn."""
        return self.server_churn_spec is not None and not self.server_churn_spec.is_static

    @property
    def _scenario_active(self) -> bool:
        """True when an incident timeline disturbs the epochs."""
        return self.scenario_timeline is not None and not self.scenario_timeline.is_empty

    # ------------------------------------------------------------------ #
    def initial_state(self, seed: SeedLike) -> SimulationState:
        """Solve every algorithm on the initial scenario."""
        solve_rngs = spawn_generators(seed, len(self.algorithms))
        instance = CAPInstance.from_scenario(self.scenario)
        assignments = {
            name: registry_solve(
                instance, name, seed=solve_rngs[i], backend=self.solver_backend
            )
            for i, name in enumerate(self.algorithms)
        }
        if self.measurement_backend == "incremental":
            # Seed the stash for solvers that do not produce one (baselines),
            # so epoch 0 already takes the O(churn) delta path; the measured_*
            # reads below are bit-identical to the full recompute.
            for a in assignments.values():
                ensure_measures(a, instance)
            measures = {
                name: (measured_pqos(a, instance), measured_utilization(a, instance))
                for name, a in assignments.items()
            }
        else:
            measures = {
                name: (a.pqos(instance), a.resource_utilization(instance))
                for name, a in assignments.items()
            }
        return SimulationState(
            scenario=self.scenario,
            instance=instance,
            assignments=assignments,
            measures=measures,
            arena=EpochArena() if self.arena else None,
        )

    def _advance_world(
        self,
        state: SimulationState,
        churn: ChurnResult,
        server_churn: Optional[ServerChurnResult] = None,
    ) -> tuple[DVEScenario, CAPInstance]:
        """Post-churn scenario and instance via the configured backend.

        With infrastructure churn the server delta is applied first (on the
        pre-churn population), then the client delta — both backends follow
        the same order, so their records stay bit-identical.
        """
        if self.backend == "rebuild":
            new_scenario = state.scenario
            if server_churn is not None:
                new_scenario = new_scenario.with_servers(server_churn.servers)
            new_scenario = new_scenario.with_population(churn.population)
            return new_scenario, CAPInstance.from_scenario(new_scenario)
        if server_churn is None:
            mid_scenario = state.scenario
        elif server_churn.is_identity:
            # Capacity-only delta (drift, or a federation capacity re-slice):
            # the server index space is unchanged, so the delay matrices carry
            # over by identity instead of being re-gathered column by column.
            mid_scenario = state.scenario.with_server_capacities(
                server_churn.servers.capacities
            )
        else:
            mid_scenario = state.scenario.apply_server_delta(server_churn)
        new_scenario = mid_scenario.apply_churn_delta(churn, arena=state.arena)
        if state.instance.mirrors_arrays_of(state.scenario):
            # The state only ever advanced through the delta pipeline, so the
            # freshly delta-gathered scenario arrays ARE the new instance's
            # arrays — alias them instead of re-gathering and re-validating
            # the client×server matrix a second time per epoch.
            return new_scenario, CAPInstance.from_scenario_unchecked(new_scenario)
        if not new_scenario.has_dense_delays:
            # Compact delay sources have no row/column gather to delta; the
            # full rebuild is already O(clients + nodes·servers) and validates
            # the new snapshot.
            return new_scenario, CAPInstance.from_scenario(new_scenario)
        if server_churn is None:
            new_instance = state.instance.apply_delta(
                old_to_new=churn.old_to_new,
                join_delays=new_scenario.client_server_delays[churn.new_client_indices],
                client_zones=new_scenario.population.zones,
                client_demands=new_scenario.client_demands,
            )
            return new_scenario, new_instance
        new_instance = state.instance.apply_delta(
            old_to_new=churn.old_to_new,
            join_delays=new_scenario.client_server_delays[churn.new_client_indices],
            client_zones=new_scenario.population.zones,
            client_demands=new_scenario.client_demands,
            server_old_to_new=server_churn.old_to_new,
            server_join_delays=mid_scenario.client_server_delays[
                :, server_churn.new_server_indices
            ],
            server_server_delays=mid_scenario.server_server_delays,
            server_capacities=mid_scenario.servers.capacities,
        )
        return new_scenario, new_instance

    # ------------------------------------------------------------------ #
    def session(self, num_epochs: int = 1) -> "EpochSession":
        """A step-wise driver over this simulator's epochs.

        :meth:`stream` consumes a session internally; external drivers (the
        federation engine) use the session directly so they can interleave
        work — capacity re-slices from a cross-shard arbiter — between
        epochs without forking the epoch semantics.
        """
        return EpochSession(self, num_epochs)

    def stream(self, num_epochs: int = 1) -> Iterator[EpochRecord]:
        """Run ``num_epochs`` churn epochs, yielding records as they complete.

        Records stream out epoch by epoch, so arbitrarily long runs can be
        consumed with O(algorithms) record memory.  Each algorithm evolves
        its own assignment: after every epoch the assignment the policy
        adopted becomes the algorithm's current assignment for the next
        epoch.
        """
        session = self.session(num_epochs)
        while not session.done:
            yield from session.run_epoch()

    def run(self, num_epochs: int = 1) -> List[EpochRecord]:
        """Eager list version of :meth:`stream` (one record per epoch × algorithm)."""
        return list(self.stream(num_epochs))

    # ------------------------------------------------------------------ #
    def _process_algorithm(
        self,
        state: SimulationState,
        epoch: int,
        name: str,
        old_assignment: Assignment,
        batch: ChurnBatch,
        churn: ChurnResult,
        server_churn: Optional[ServerChurnResult],
        new_instance: CAPInstance,
        policy: Union[PolicySchedule, RebalancePolicy],
        reassign_rng: SeedLike,
        timings: Optional[Dict[str, float]] = None,
        overlay_active: bool = False,
        allocs: Optional[Dict[str, int]] = None,
    ) -> tuple[EpochRecord, Assignment, str, MigrationCharge]:
        """Measure one algorithm around one epoch and adopt the policy's choice.

        Returns the record, the adopted assignment, the adopted action and
        its migration charge.
        ``timings`` optionally accumulates wall-time into its ``"solve"`` and
        ``"measure"`` keys (the repair/solve calls vs the measurement-point
        computations), feeding the session's per-phase profile.  ``allocs``
        likewise accumulates tracemalloc peak bytes allocated per phase
        (requires ``tracemalloc`` to be tracing; the alloc probe costs wall
        time, so it is separate from ``timings``-only runs).
        """
        instance = state.instance

        def _timed(key, fn):
            if allocs is not None:
                tracemalloc.reset_peak()
                alloc_base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            result = fn()
            if timings is not None:
                timings[key] = timings.get(key, 0.0) + (time.perf_counter() - start)
            if allocs is not None:
                peak = tracemalloc.get_traced_memory()[1]
                allocs[key] = allocs.get(key, 0) + max(0, peak - alloc_base)
            return result

        # The "before" point is the adopted assignment of the previous epoch
        # evaluated on the unchanged instance — carried forward, not recomputed.
        before_pqos, before_util = state.measures[name]

        # With infrastructure churn the old assignment first crosses to the
        # new server index space (departed hosts force zone evacuations);
        # repairs then start from the remapped assignment.
        if server_churn is not None:
            base_assignment = remap_assignment_servers(
                old_assignment, server_churn, new_instance, instance.client_zones
            )
        else:
            base_assignment = old_assignment
        candidates = _Candidates(
            self,
            state,
            name,
            old_assignment,
            base_assignment,
            churn,
            server_churn,
            new_instance,
            reassign_rng,
            _timed,
        )

        # The carried-over "after" point.  Incremental measurement delta-updates
        # the previous epoch's within-bound count from the churn batch instead
        # of building and re-reducing the carried assignment — valid whenever
        # the previous epoch left a stash and the fleet did not re-index
        # (capacity-only deltas keep every delay; a re-indexed fleet changes
        # delays wholesale, so that epoch falls back to the full path).  The
        # carried assignment itself is then only built when the adopted
        # action needs it (warm start refines it, "none" keeps it).
        # A delay overlay (scenario link degradation) changes the *survivors'*
        # delays too, so the O(churn) carried count would be wrong — overlay
        # epochs always take the full carried path, keeping full/incremental
        # measurement bit-identical through incidents.
        stash = None
        if candidates.incremental_meas and not overlay_active:
            stash = stash_for(old_assignment, instance)
        if stash is not None and (server_churn is None or server_churn.is_identity):
            count = _timed(
                "measure",
                lambda: carried_qos_count(stash, base_assignment, batch, churn, new_instance),
            )
            k_new = new_instance.num_clients
            candidates.pqos_of["none"] = count / k_new if k_new else 1.0
        after_pqos = candidates.pqos("none")

        action = policy.decide(epoch, after_pqos, candidates)
        adopted = candidates.assignment(action)
        if action == "none":
            # The carried contacts live in the session's recycled scratch
            # buffer; the adopted assignment must outlive the next carry.
            adopted = replace(adopted, contact_of_client=adopted.contact_of_client.copy())
        # Re-label with the base algorithm name: repair suffixes like
        # " (carried over)+ws" would otherwise compound every epoch.
        adopted = adopted.with_algorithm(name)
        # A solved re-execution always reports its pQoS and utilisation; a
        # solved incremental repair reports its pQoS (Table 3's columns).
        reexecuted = "reexecute" in candidates.built
        adopted_pqos = candidates.pqos(action)
        adopted_util = candidates.utilization(action)
        if candidates.incremental_meas:
            # Guarantee the adopted assignment carries a stash into the next
            # epoch (solvers that do not stash — warm start, baselines — pay
            # one full pass here so the next carried point stays O(churn)).
            _timed("measure", lambda: ensure_measures(adopted, new_instance))

        charge = candidates.charge(action)
        record = EpochRecord(
            epoch=epoch,
            algorithm=name,
            pqos_before=before_pqos,
            pqos_after=after_pqos,
            pqos_reexecuted=candidates.pqos("reexecute") if reexecuted else _NAN,
            pqos_incremental=(
                candidates.pqos("incremental") if "incremental" in candidates.built else _NAN
            ),
            utilization_before=before_util,
            utilization_reexecuted=candidates.utilization("reexecute") if reexecuted else _NAN,
            num_clients_before=instance.num_clients,
            num_clients_after=new_instance.num_clients,
            policy=policy.name,
            pqos_adopted=adopted_pqos,
            utilization_adopted=adopted_util,
            num_servers_after=new_instance.num_servers,
            zones_migrated=charge.zones_migrated,
            clients_migrated=charge.clients_migrated,
            migration_cost=charge.cost,
        )
        return record, adopted, action, charge

    def _charge_migration(
        self,
        old_assignment: Assignment,
        adopted: Assignment,
        server_churn: Optional[ServerChurnResult],
        new_instance: CAPInstance,
    ):
        """Bill the adopted assignment's zone moves against the pre-churn map."""
        return charge_zone_moves(
            self.migration_cost,
            old_assignment.zone_to_server,
            adopted.zone_to_server,
            new_instance.zone_populations(),
            server_old_to_new=None if server_churn is None else server_churn.old_to_new,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def records_equal(
        a: EpochRecord, b: EpochRecord, fields: Optional[tuple] = None
    ) -> bool:
        """Field-wise equality that treats NaN == NaN (for equivalence tests).

        Compares the measurement columns (:data:`EpochRecord.FIELDS`) by
        default; ``shard_id`` is an addressing label, not a measurement, so a
        federated shard's record can equal the stand-alone simulator's record.
        Pass ``fields=EpochRecord.SCENARIO_FIELDS`` to also compare the
        degradation columns.
        """
        for name in fields or EpochRecord.FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
                if va != vb:
                    return False
            elif va != vb:
                return False
        return True


class _Candidates:
    """The assignments one algorithm may adopt this epoch, built on demand.

    Keyed by action: ``"none"`` is the carried-over assignment,
    ``"incremental"`` the contact-phase repair, ``"reexecute"`` the
    from-scratch solve and ``"warm_start"`` the local search from the carried
    assignment.  Each is built, measured and billed at most once, so a
    policy can probe several (the controller's repair→rebalance escalation)
    without paying twice, and the record reports what was actually computed.
    """

    def __init__(
        self,
        sim: ChurnSimulator,
        state: SimulationState,
        name: str,
        old_assignment: Assignment,
        base_assignment: Assignment,
        churn: ChurnResult,
        server_churn: Optional[ServerChurnResult],
        instance: CAPInstance,
        reassign_rng: SeedLike,
        timed,
    ):
        self.sim = sim
        self.state = state
        self.name = name
        self.old_assignment = old_assignment
        self.base_assignment = base_assignment
        self.churn = churn
        self.server_churn = server_churn
        self.instance = instance
        self.reassign_rng = reassign_rng
        self.timed = timed
        self.incremental_meas = sim.measurement_backend == "incremental"
        self.built: Dict[str, Assignment] = {}
        self.pqos_of: Dict[str, float] = {}
        self.utilization_of: Dict[str, float] = {}
        self.charges: Dict[str, MigrationCharge] = {}

    def assignment(self, action: str) -> Assignment:
        """The candidate assignment for ``action``."""
        if action not in self.built:
            if action == "warm_start":
                self.assignment("none")  # the refiner's starting point
            key = "measure" if action == "none" else "solve"
            self.built[action] = self.timed(key, lambda: self._build(action))
        return self.built[action]

    def _build(self, action: str) -> Assignment:
        sim, instance = self.sim, self.instance
        if action == "none":
            return carry_over_assignment(
                self.base_assignment,
                self.churn,
                instance,
                out=self.state.contacts_buffer(instance.num_clients),
            )
        if action == "reexecute":
            return reassign(
                instance, self.name, seed=self.reassign_rng, solver_backend=sim.solver_backend
            )
        if action == "incremental":
            return incremental_reassign(
                self.base_assignment, instance, solver_backend=sim.solver_backend
            )
        if action != "warm_start":
            raise ValueError(f"unknown policy action {action!r}")
        # Budget one move per client: heavy churn can push far more than the
        # refiner's default 200 clients over the bound, and sweep moves are
        # cheap — a tight cap would silently truncate the repair and skew the
        # policy comparison.  The batched zone-move sweep joins in only on
        # epochs whose *infrastructure* churned: that is when the hosting
        # itself is wrong (evacuated zones, drifted capacities) and a contact
        # repair cannot recover it, while on client-only epochs the zone
        # scan's O(clients×servers) setup would break the repair's
        # cost-proportional-to-churn property for little gain.
        return warm_start_refine(
            instance,
            self.built["none"],
            mode="sweep",
            consider_zone_moves=self.server_churn is not None,
            max_iterations=max(200, instance.num_clients),
            # The refiner maintains the exact per-client delay vector anyway;
            # stashing it by reference makes the later ensure_measures a no-op
            # instead of a full O(clients) recompute.  Gated with the arena so
            # ``arena=False`` stays the executable spec the stash path must
            # match.
            stash_measures=self.incremental_meas and self.state.arena is not None,
        ).assignment

    def pqos(self, action: str) -> float:
        """pQoS of the candidate on this epoch's instance."""
        return self._measure(self.pqos_of, action, measured_pqos, Assignment.pqos)

    def utilization(self, action: str) -> float:
        """Resource utilisation of the candidate on this epoch's instance."""
        return self._measure(
            self.utilization_of, action, measured_utilization, Assignment.resource_utilization
        )

    def _measure(self, cache: Dict[str, float], action: str, stash_read, full) -> float:
        if action not in cache:
            a = self.assignment(action)
            read = stash_read if self.incremental_meas else full
            cache[action] = self.timed("measure", lambda: read(a, self.instance))
        return cache[action]

    def charge(self, action: str) -> MigrationCharge:
        """Migration bill of adopting the candidate, against the pre-churn map."""
        if action not in self.charges:
            self.charges[action] = self.sim._charge_migration(
                self.old_assignment, self.assignment(action), self.server_churn, self.instance
            )
        return self.charges[action]


class EpochSession:
    """Step-wise execution of a :class:`ChurnSimulator`, one epoch per call.

    Holds exactly the per-run state the old monolithic ``stream`` loop held —
    the mutable :class:`SimulationState`, the resolved policy and the
    per-epoch RNG streams — but exposes the epoch as a unit of work, so a
    higher-level driver can do things *between* epochs.  The federation
    engine uses this to apply cross-shard capacity arbitration: a capacity
    re-slice enters the next epoch as an identity-mapped
    :class:`~repro.dynamics.infrastructure.ServerChurnResult`, flowing through
    the exact world-advance / remap / repair / billing path that generated
    infrastructure churn takes.  The rebalance controller drives it under a
    :class:`~repro.dynamics.policies.RebalancePolicy`.

    The RNG layout is identical to the pre-session engine for any seed and
    epoch count (the constructor replays the exact draw order of the old
    loop), so ``ChurnSimulator.stream`` records are bit-for-bit unchanged —
    and an externally supplied capacity delta consumes no randomness, so
    supplying one never perturbs the churn streams.  For one algorithm it is
    also the rebalance controller's historical layout: ``SeedSequence``
    children are numbered in spawn order, so the one solve stream followed by
    ``num_epochs`` epoch streams equals the controller's single spawn of
    ``num_epochs + 1``, and each epoch splits into churn, optional server
    churn and one re-execution stream in both.
    """

    def __init__(self, simulator: ChurnSimulator, num_epochs: int):
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        self.simulator = simulator
        #: The per-epoch decision: a schedule or the controller's policy.
        self.policy = make_policy(
            simulator.policy,
            period=simulator.policy_period or None,
            migration_budget=simulator.policy_migration_budget,
        )
        rng = as_generator(simulator.seed)
        self.state = simulator.initial_state(rng)
        self.epoch_rngs = spawn_generators(rng, num_epochs)
        self.num_epochs = num_epochs
        #: Scenario timeline executor; spawned *after* the epoch streams and
        #: only when a timeline is active, so classic runs replay the exact
        #: RNG layout (and records) of the scenario-free engine.
        self.scenario_runtime: Optional[ScenarioRuntime] = None
        if simulator._scenario_active:
            self.scenario_runtime = ScenarioRuntime(
                simulator.scenario_timeline,
                simulator.scenario,
                num_epochs,
                spawn_generators(rng, 1)[0],
                admission=simulator.admission_policy,
            )
        #: Cumulative per-phase wall time (seconds) across all epochs run so
        #: far: ``churn_gen`` / ``advance`` / ``solve`` / ``measure``.  The
        #: ``simulate --profile`` flag prints this breakdown.
        self.phase_seconds: Dict[str, float] = {
            "churn_gen": 0.0,
            "advance": 0.0,
            "solve": 0.0,
            "measure": 0.0,
        }
        #: Same breakdown for the most recent epoch only.
        self.last_phase_seconds: Dict[str, float] = dict.fromkeys(self.phase_seconds, 0.0)
        #: When True *and* ``tracemalloc`` is tracing, each epoch also records
        #: the tracemalloc **peak** bytes allocated per phase (transient
        #: allocations included, unlike a net before/after diff) into
        #: ``phase_alloc_bytes`` (cumulative) / ``last_phase_alloc_bytes``.
        #: The probe costs wall time, so keep it off for pure-throughput runs.
        self.alloc_profile: bool = False
        self.phase_alloc_bytes: Dict[str, int] = dict.fromkeys(self.phase_seconds, 0)
        self.last_phase_alloc_bytes: Dict[str, int] = dict.fromkeys(self.phase_seconds, 0)
        #: The action each algorithm adopted in the most recent epoch
        #: (``"none"``, ``"incremental"``, ``"reexecute"`` or ``"warm_start"``).
        self.last_actions: Dict[str, str] = {}
        #: The migration charge of each algorithm's adopted action in the
        #: most recent epoch.
        self.last_charges: Dict[str, MigrationCharge] = {}
        #: Precomputed zone-sampling state for churn generation — the world's
        #: topology / zone count / distribution spec never change within a
        #: session, so the per-epoch region bookkeeping is paid once.  Only
        #: built on the arena fast path, keeping ``arena=False`` the
        #: untouched executable specification.
        self._zone_plan: Optional[ZoneSamplingPlan] = None
        if self.state.arena is not None:
            self._zone_plan = ZoneSamplingPlan.build(
                simulator.scenario.topology,
                simulator.scenario.num_zones,
                simulator.scenario.config.distribution_spec,
            )

    @property
    def done(self) -> bool:
        """True when every scheduled epoch has run."""
        return self.state.epoch >= self.num_epochs

    def _external_capacity_delta(self, capacities: np.ndarray) -> ServerChurnResult:
        """Wrap a per-server capacity vector as an identity fleet delta."""
        servers = self.state.scenario.servers
        capacities = np.asarray(capacities, dtype=np.float64)
        if capacities.shape != (servers.num_servers,):
            raise ValueError(
                f"capacity_delta must have shape ({servers.num_servers},), "
                f"got {capacities.shape}"
            )
        return ServerChurnResult(
            servers=ServerSet(nodes=servers.nodes, capacities=capacities),
            old_to_new=np.arange(servers.num_servers, dtype=np.int64),
            new_server_indices=np.zeros(0, dtype=np.int64),
        )

    def run_epoch(self, capacity_delta: Optional[np.ndarray] = None) -> List[EpochRecord]:
        """Run the next epoch and return its records (one per algorithm).

        Parameters
        ----------
        capacity_delta:
            Optional ``(num_servers,)`` replacement capacity vector applied
            to the fleet at the start of this epoch (a federation capacity
            re-slice).  The fleet's nodes are unchanged — only capacities
            move — so assignments carry over index-for-index and the repair
            policies see the new capacities; any zone moves the repair then
            makes are billed as usual.  Mutually exclusive with the
            simulator's own ``server_churn_spec`` (a federated shard's fleet
            is controlled by the arbiter, not by per-shard churn).
        """
        if self.done:
            raise ValueError(f"session already ran all {self.num_epochs} epochs")
        sim = self.simulator
        state = self.state
        epoch = state.epoch
        server_active = sim._server_churn_active
        if capacity_delta is not None and server_active:
            raise ValueError(
                "an external capacity delta cannot be combined with the "
                "simulator's own server_churn_spec"
            )

        # The extra server-churn sub-stream is spawned only when the fleet
        # actually churns, so static-fleet runs replay the exact RNG layout
        # (and records) of the pre-elastic engine.
        allocs: Optional[Dict[str, int]] = None
        if self.alloc_profile and tracemalloc.is_tracing():
            allocs = {}
            tracemalloc.reset_peak()
            alloc_base = tracemalloc.get_traced_memory()[0]
        phase_start = time.perf_counter()
        runtime = self.scenario_runtime
        plan = None
        scenario_stats: Optional[AdmissionStats] = None
        if runtime is not None:
            # The timeline consumes any external capacity delta: the plan's
            # fleet snapshot re-bases on it before gating, so a federation
            # re-slice and a mid-outage epoch compose in one delta.
            plan = runtime.plan_epoch(epoch, sim.churn_spec, capacity_delta=capacity_delta)
            capacity_delta = None
        if server_active:
            churn_rng, server_rng, *reassign_rngs = spawn_generators(
                self.epoch_rngs[epoch], 2 + len(sim.algorithms)
            )
        else:
            server_rng = None
            churn_rng, *reassign_rngs = spawn_generators(
                self.epoch_rngs[epoch], 1 + len(sim.algorithms)
            )
        churn_spec = sim.churn_spec if plan is None else plan.churn_spec
        batch = generate_churn(
            state.scenario, churn_spec, seed=churn_rng, zone_plan=self._zone_plan
        )
        if runtime is not None:
            batch, scenario_stats = runtime.prepare_batch(
                plan, batch, state.scenario.population
            )
        churn = apply_churn(state.scenario.population, batch, arena=state.arena)
        server_churn: Optional[ServerChurnResult] = None
        if server_active:
            server_batch = generate_server_churn(
                state.scenario.servers,
                sim.server_churn_spec,
                num_nodes=state.scenario.topology.num_nodes,
                seed=server_rng,
            )
            server_churn = apply_server_churn(state.scenario.servers, server_batch)
        elif plan is not None:
            server_churn = plan.server_churn
        elif capacity_delta is not None:
            server_churn = self._external_capacity_delta(capacity_delta)
        timings: Dict[str, float] = {"churn_gen": time.perf_counter() - phase_start}
        if allocs is not None:
            allocs["churn_gen"] = max(0, tracemalloc.get_traced_memory()[1] - alloc_base)
            tracemalloc.reset_peak()
            alloc_base = tracemalloc.get_traced_memory()[0]
        phase_start = time.perf_counter()
        new_scenario, new_instance = sim._advance_world(state, churn, server_churn)
        # Delay overlays (link degradation) produce a *separate* effective
        # instance for this epoch's measurements and repairs; the clean
        # instance keeps advancing through the delta pipeline, so overlays
        # never disturb the `mirrors_arrays_of` aliasing invariant.
        eff_instance = new_instance
        if runtime is not None:
            eff_instance = runtime.overlay_instance(plan, new_scenario, new_instance)
        timings["advance"] = time.perf_counter() - phase_start
        if allocs is not None:
            allocs["advance"] = max(0, tracemalloc.get_traced_memory()[1] - alloc_base)

        records: List[EpochRecord] = []
        next_assignments: Dict[str, Assignment] = {}
        next_measures: Dict[str, tuple] = {}
        for i, name in enumerate(sim.algorithms):
            old_assignment = state.assignments[name]
            record, adopted, action, charge = sim._process_algorithm(
                state,
                epoch,
                name,
                old_assignment,
                batch,
                churn,
                server_churn,
                eff_instance,
                self.policy,
                reassign_rngs[i],
                timings=timings,
                overlay_active=eff_instance is not new_instance,
                allocs=allocs,
            )
            if scenario_stats is not None:
                record = replace(
                    record,
                    clients_degraded=scenario_stats.clients_degraded,
                    capacity_deficit=scenario_stats.capacity_deficit,
                )
            self.last_actions[name] = action
            self.last_charges[name] = charge
            next_assignments[name] = adopted
            next_measures[name] = (record.pqos_adopted, record.utilization_adopted)
            records.append(record)

        self.last_phase_seconds = dict.fromkeys(self.phase_seconds, 0.0)
        self.last_phase_seconds.update(timings)
        for key, value in self.last_phase_seconds.items():
            self.phase_seconds[key] += value
        self.last_phase_alloc_bytes = dict.fromkeys(self.phase_alloc_bytes, 0)
        if allocs is not None:
            self.last_phase_alloc_bytes.update(allocs)
            for key, value in self.last_phase_alloc_bytes.items():
                self.phase_alloc_bytes[key] += value

        prev_scenario = state.scenario
        state.scenario = new_scenario
        state.instance = new_instance
        state.assignments = next_assignments
        state.measures = next_measures
        state.epoch = epoch + 1

        arena = state.arena
        if arena is not None:
            # Double-buffer hand-off: the previous epoch's derived arrays are
            # now unreachable from the advancing state, so their arena
            # buffers return to the pool for the next epoch to reuse.  The
            # identity guards keep arrays that carried over by reference
            # (capacity-only fleet deltas share the matrix) live, and
            # ``release_if_owned`` ignores externally owned arrays (the
            # caller's initial snapshot, rebuild-backend output).
            if prev_scenario.client_server_delays is not new_scenario.client_server_delays:
                arena.release_if_owned(prev_scenario.client_server_delays)
            if prev_scenario.client_demands is not new_scenario.client_demands:
                arena.release_if_owned(prev_scenario.client_demands)
            prev_population = prev_scenario.population
            if prev_population is not new_scenario.population:
                if prev_population.nodes is not new_scenario.population.nodes:
                    arena.release_if_owned(prev_population.nodes)
                if prev_population.zones is not new_scenario.population.zones:
                    arena.release_if_owned(prev_population.zones)
            arena.release_if_owned(churn.old_to_new)
        return records

    def run_batch(self, k: int) -> List[EpochRecord]:
        """Run up to ``k`` epochs in one call, returning all their records.

        The batched fast path for throughput drivers: one Python call (and
        one result list) per ``k`` epochs instead of one generator resumption
        per epoch.  Stops early at the session's last scheduled epoch; pair
        with :meth:`repro.io.csvout.CsvAppender.append_rows` to flush the
        returned records in one buffered write.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        records: List[EpochRecord] = []
        end = min(self.state.epoch + k, self.num_epochs)
        while self.state.epoch < end:
            records.extend(self.run_epoch())
        return records

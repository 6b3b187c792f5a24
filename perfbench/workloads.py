"""The benchmark's four workloads, each one closed loop over one engine.

Every workload is built only through the program's public entry points
(``config_from_label(...).with_updates(...)`` plus ``ChurnSimulator`` /
``RebalanceController`` / ``build_federation`` + ``FederatedSimulator``) and
passes only the arguments that name the workload.  The implementation
selectors (``backend``, ``measurement_backend``, ``solver_backend``,
``arena``) stay at their defaults, so collapsing those options changes what
is measured, not whether the benchmark runs.

The world of each workload is fixed (:data:`WORLD_SEED`); ``--seed`` drives
the engine: churn, solver choices and the incident runtime.  Measured on a
2-CPU host, a different world per seed moved the controller workload's p50
epoch wall from 1.3 to 3.6 ms (its rebalance share from 0 to 15 %), which
is a different workload rather than noise; with the world fixed, four churn
seeds stayed within 2.5-2.9 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.controller import RebalanceController
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.federation_engine import FederatedSimulator
from repro.dynamics.scenarios import build_timeline
from repro.experiments.config import config_from_label
from repro.world.federation import build_federation
from repro.world.scenario import build_scenario

__all__ = ["WORLD_SEED", "Workload", "Engine", "WORKLOADS"]

#: Seed of every workload's world; see the module docstring.
WORLD_SEED = 0

FIG4_LABEL = "30s-160z-2000c-1000cp"


class Engine:
    """One running engine: ``step()`` runs the next epoch in a closed loop.

    ``first`` holds the epoch records a lazily-starting engine (a generator
    stream) had to produce during set-up; ``step`` returns one epoch's
    records as ``(records, action)`` where ``action`` is the controller's
    decision (``None`` for the other engines).  ``root_span`` names the span
    a traced run opens around each step; ``None`` where the step is already
    a traced call (``EpochSession.run_epoch``).
    """

    first: List[Tuple[List[EpochRecord], Optional[str]]]
    root_span: Optional[str] = None

    def step(self) -> Tuple[List[EpochRecord], Optional[str]]:
        raise NotImplementedError


class _SessionEngine(Engine):
    def __init__(self, simulator: ChurnSimulator, horizon: int):
        self.session = simulator.session(horizon)
        self.first = []

    def step(self):
        return self.session.run_epoch(), None


class _ControllerEngine(Engine):
    root_span = "controller"

    def __init__(self, controller: RebalanceController, horizon: int):
        self._stream = controller.stream(horizon)
        # The stream solves the initial assignment on its first resumption,
        # so set-up ends with the first controlled epoch.
        self.first = [self.step()]

    def step(self):
        step, record = next(self._stream)
        return [record], step.action


class _FederationEngine(Engine):
    root_span = "federation"

    def __init__(self, simulator: FederatedSimulator, horizon: int):
        self.simulator = simulator
        self._stream = simulator.stream(horizon)
        self._per_epoch = (simulator.num_shards + 1) * len(simulator.algorithms)
        # As for the controller: shard sessions are built and solved when the
        # stream first resumes, so set-up ends with the first epoch.
        self.first = [self.step()]

    def step(self):
        return [next(self._stream) for _ in range(self._per_epoch)], None


@dataclass(frozen=True)
class Workload:
    """A named closed-loop workload.

    ``horizon`` is the engine's scheduled epoch count (the timed window stops
    early if it is reached).  ``quality_epochs`` is the fixed epoch prefix the
    quality metrics average over, so they are exact for a seed; the timed
    window runs at least that many epochs.  ``digest_epochs`` is the prefix
    replayed by a second engine to check determinism.
    """

    name: str
    why: str
    build_world: Callable[[], object]
    build_engine: Callable[[object, int], Engine]
    offered: Callable[[int], Tuple[int, int, int]]
    horizon: int
    quality_epochs: int
    digest_epochs: int

    def offered_events(self, epoch: int) -> int:
        return sum(self.offered(epoch))


# --------------------------------------------------------------------------- #
def _fig4_world():
    return build_scenario(config_from_label(FIG4_LABEL, correlation=0.0), seed=WORLD_SEED)


def _fig4_engine(world, seed: int) -> Engine:
    simulator = ChurnSimulator(
        scenario=world,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=20, num_leaves=20, num_moves=20),
        seed=seed,
        policy="warm_start",
    )
    return _SessionEngine(simulator, FIG4_STEADY.horizon)


FIG4_STEADY = Workload(
    name="fig4-steady",
    why="figure-4 world, warm start, 60 events/epoch: per-epoch fixed overhead "
    "dominates and GreZ/GreC never run (the bypass for solver work)",
    build_world=_fig4_world,
    build_engine=_fig4_engine,
    offered=lambda epoch: (20, 20, 20),
    horizon=24000,
    quality_epochs=2000,
    digest_epochs=200,
)


# --------------------------------------------------------------------------- #
def _reexec_world():
    config = config_from_label("500s-2000z-100000c-130000cp").with_updates(
        delay_backend="sparse", sparse_top_k=64
    )
    return build_scenario(config, seed=WORLD_SEED)


def _reexec_engine(world, seed: int) -> Engine:
    simulator = ChurnSimulator(
        scenario=world,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=1000, num_leaves=1000, num_moves=1000),
        seed=seed,
        policy="reexecute",
    )
    return _SessionEngine(simulator, REEXEC_100K.horizon)


REEXEC_100K = Workload(
    name="reexec-100k",
    why="100k clients, sparse top-64, re-execute every epoch: GreZ, GreC and "
    "the repair column are ~94% of the epoch (solve-bound)",
    build_world=_reexec_world,
    build_engine=_reexec_engine,
    offered=lambda epoch: (1000, 1000, 1000),
    horizon=150,
    quality_epochs=8,
    digest_epochs=3,
)


# --------------------------------------------------------------------------- #
CONTROLLER_TIMELINE = build_timeline(["diurnal", "maintenance"])
CONTROLLER_CHURN = ChurnSpec(num_joins=200, num_leaves=200, num_moves=200)


def _controller_offered(epoch: int) -> Tuple[int, int, int]:
    """Joins, leaves and moves the diurnal wave offers in ``epoch``.

    The wave's documented law (``DiurnalEvent``): joins scale by
    ``f = max(0, 1 + amplitude * sin(2 pi (epoch - start) / period))`` and
    leaves by ``max(0, 2 - f)``; moves are not modulated.
    """
    joins, leaves = CONTROLLER_CHURN.num_joins, CONTROLLER_CHURN.num_leaves
    for event in CONTROLLER_TIMELINE.events:
        if event.kind != "diurnal" or not event.active(epoch):
            continue
        factor = max(
            1.0 + event.amplitude * math.sin(2.0 * math.pi * (epoch - event.start) / event.period),
            0.0,
        )
        joins = max(0, int(round(joins * factor)))
        leaves = max(0, int(round(leaves * max(2.0 - factor, 0.0))))
    return joins, leaves, CONTROLLER_CHURN.num_moves


def _controller_engine(world, seed: int) -> Engine:
    controller = RebalanceController(
        scenario=world,
        churn_spec=CONTROLLER_CHURN,
        seed=seed,
        scenario_timeline=CONTROLLER_TIMELINE,
    )
    return _ControllerEngine(controller, CONTROLLER_INCIDENTS.horizon)


CONTROLLER_INCIDENTS = Workload(
    name="controller-incidents",
    why="RebalanceController on the figure-4 world under a diurnal wave and a "
    "maintenance calendar: controller loop, scenario runtime, admission control",
    build_world=_fig4_world,
    build_engine=_controller_engine,
    offered=_controller_offered,
    horizon=12000,
    quality_epochs=1000,
    digest_epochs=200,
)


# --------------------------------------------------------------------------- #
FEDERATION_SHARDS = 4


def _federation_world():
    config = config_from_label("100s-400z-40000c-52000cp").with_updates(delay_backend="sparse")
    return build_federation(config, num_shards=FEDERATION_SHARDS, seed=WORLD_SEED)


def _federation_engine(world, seed: int) -> Engine:
    simulator = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter="regret",
        churn_spec=ChurnSpec(num_joins=100, num_leaves=100, num_moves=100),
        seed=seed,
        policy="reexecute",
        shard_workers=2,
    )
    return _FederationEngine(simulator, FEDERATION_4X10K.horizon)


FEDERATION_4X10K = Workload(
    name="federation-4x10k",
    why="4 shards x 10k clients, sparse, re-execute, regret arbiter on 2 shard "
    "threads: arbitration, the shard barrier and the thread executor",
    build_world=_federation_world,
    build_engine=_federation_engine,
    offered=lambda epoch: (100 * FEDERATION_SHARDS,) * 3,
    horizon=600,
    quality_epochs=40,
    digest_epochs=10,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FIG4_STEADY, REEXEC_100K, CONTROLLER_INCIDENTS, FEDERATION_4X10K)
}

"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-steady --seed 1 --seconds 27 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end metric;
``--trace 1`` runs an untraced and a traced window of half the time each,
prints the per-layer metrics and writes the spans as JSONL under
``perfbench/out/``.  Either way the epoch records are checked (invariants on
every record, and an identical record digest from a second engine built with
the same seed), and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it are for
people and for ``steady.py`` (the ``detail`` line).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Span names of the program's layers and the public callables they wrap.
TRACE_TARGETS = [
    ("repro.dynamics.churn", "generate_churn", "churn.generate",
     lambda b: b.num_joins + b.num_leaves + b.num_moves),
    ("repro.dynamics.events", "apply_churn", "churn.apply", None),
    ("repro.utils.rng", "spawn_generators", "rng.spawn", None),
    ("repro.world.scenario", "DVEScenario.apply_churn_delta", "world.advance", None),
    ("repro.core.problem", "CAPInstance.apply_delta", "world.advance", None),
    ("repro.core.problem", "CAPInstance.from_scenario_unchecked", "world.advance", None),
    ("repro.core.problem", "CAPInstance.from_scenario", "world.advance", None),
    ("repro.core.grez", "assign_zones_greedy", "core.grez", None),
    ("repro.core.grec", "assign_contacts_greedy", "core.grec", None),
    ("repro.dynamics.policies", "incremental_reassign", "core.repair", None),
    ("repro.core.local_search", "warm_start_refine", "core.warm_start", None),
    ("repro.dynamics.policies", "carry_over_assignment", "policies.carry", None),
    ("repro.core.measures", "attach_measures", "measure", None),
    ("repro.core.measures", "ensure_measures", "measure", None),
    ("repro.core.measures", "measured_pqos", "measure", None),
    ("repro.core.measures", "measured_utilization", "measure", None),
    ("repro.core.measures", "measured_server_loads", "measure", None),
    ("repro.dynamics.measurement", "carried_qos_count", "measure", None),
    ("repro.core.assignment", "Assignment.pqos", "measure", None),
    ("repro.core.assignment", "Assignment.resource_utilization", "measure", None),
    ("repro.dynamics.migration", "charge_zone_moves", "migration.billing",
     lambda charge: charge.zones_migrated),
    ("repro.dynamics.scenarios", "ScenarioRuntime.plan_epoch", "scenarios.runtime", None),
    ("repro.dynamics.scenarios", "ScenarioRuntime.prepare_batch", "scenarios.runtime",
     lambda result: result[1].num_shed),
    ("repro.dynamics.scenarios", "ScenarioRuntime.overlay_instance", "scenarios.runtime", None),
    ("repro.core.arbitration", "CapacityArbiter.arbitrate", "arbitration.decide", None),
    ("repro.dynamics.engine", "EpochSession.run_epoch", "epoch", None),
]

#: (span name, self-time metric, calls metric): per-epoch self time in ms and
#: calls per epoch of each traced layer.
TIMED_LAYERS = [
    ("churn.generate", "churn.generate_ms", "churn.generate_calls"),
    ("churn.apply", "churn.apply_ms", "churn.apply_calls"),
    ("rng.spawn", "rng.spawn_ms", "rng.spawn_calls"),
    ("world.advance", "world.advance_ms", "world.advance_calls"),
    ("core.grez", "core.grez_ms", "core.grez_calls"),
    ("core.grec", "core.grec_ms", "core.grec_calls"),
    ("core.repair", "core.repair_ms", "core.repair_calls"),
    ("core.warm_start", "core.warm_start_ms", "core.warm_start_calls"),
    ("policies.carry", "policies.carry_ms", "policies.carry_calls"),
    ("measure", "measure_ms", "measure_calls"),
    ("migration.billing", "migration.billing_ms", "migration.billing_calls"),
    ("scenarios.runtime", "scenarios.runtime_ms", "scenarios.runtime_calls"),
    ("arbitration.decide", "arbitration.decide_ms", "arbitration.decide_calls"),
    ("epoch", "epoch.self_ms", "epoch.calls"),
    ("controller", "controller.self_ms", None),
]

#: Set-ups after the timed window; the first replays the digest prefix.
#: ``setup_s`` is the median of these and of the timed engine's own set-up.
#: They follow the window because the first set-ups of a process are slower
#: and vary more: on the federation world the allocator's first large
#: allocations took the engine set-up from 0.13 to 0.30 s.
SETUPS_AFTER = 5

PQOS_FIELDS = ("pqos_before", "pqos_after", "pqos_reexecuted", "pqos_incremental", "pqos_adopted")
UTIL_FIELDS = ("utilization_before", "utilization_reexecuted", "utilization_adopted")
REQUIRED_FIELDS = ("pqos_after", "pqos_adopted", "utilization_adopted")


# --------------------------------------------------------------------------- #
def host_fingerprint() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def host_probe_ms() -> float:
    """Median wall of a fixed pure-Python loop; a diagnostic, never a divisor."""
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3


def epoch_digest(records, action) -> str:
    parts = [repr(action)]
    for r in records:
        parts.append(repr((r.shard_id, *r.scenario_row())))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def check_records(workload: Workload, epochs) -> list:
    """Invariant violations of a contiguous epoch sequence, one list per epoch.

    pQoS lies in [0, 1] and utilisation is non-negative (it is the paper's R,
    total load over total capacity, and exceeds 1 when an assignment the
    program flags ``capacity_exceeded`` forwards more than the fleet's spare
    capacity, as warm start does on fig4-steady after ~170 epochs); epochs
    number consecutively; each shard's population chains from the previous
    epoch; and clients in the world plus clients in the degraded pool change
    by exactly the offered joins minus the offered leaves (the default
    admission policy never abandons a pooled client).
    """
    problems = []
    prev = {}
    expected = epochs[0][0][0].epoch if epochs else 0
    for records, action in epochs:
        bad = []
        epoch = records[0].epoch
        if epoch != expected:
            bad.append(f"epoch {epoch} follows epoch {expected - 1}")
        expected = epoch + 1
        joins, leaves, _ = workload.offered(epoch)
        shards = [r for r in records if r.shard_id >= 0]
        for r in records:
            if r.epoch != epoch:
                bad.append(f"record epoch {r.epoch} in epoch {epoch}")
            for name in PQOS_FIELDS + UTIL_FIELDS:
                value = getattr(r, name)
                high = 1.0 if name in PQOS_FIELDS else math.inf
                if name in REQUIRED_FIELDS and not math.isfinite(value):
                    bad.append(f"{name} is {value}")
                elif math.isfinite(value) and not 0.0 <= value <= high:
                    bad.append(f"{name}={value} outside [0, {high}]")
            if not 0 <= r.clients_migrated <= r.num_clients_after or r.zones_migrated < 0:
                bad.append(f"migrated {r.clients_migrated} of {r.num_clients_after}")
            key = r.shard_id
            if key >= 0:
                j, l = joins // len(shards), leaves // len(shards)
            else:
                j, l = joins, leaves
            before, pool_before = prev.get(key, (r.num_clients_before, 0))
            if r.num_clients_before != before:
                bad.append(
                    f"shard {key}: {r.num_clients_before} clients before, {before} after last epoch"
                )
            if r.num_clients_after + r.clients_degraded != before + pool_before + j - l:
                bad.append(
                    f"shard {key}: {r.num_clients_after}+{r.clients_degraded} clients after "
                    f"{before}+{pool_before} with {j} joins, {l} leaves"
                )
            prev[key] = (r.num_clients_after, r.clients_degraded)
        if shards:
            total = sum(r.num_clients_after for r in shards)
            for r in records:
                if r.shard_id < 0 and r.num_clients_after != total:
                    bad.append(f"aggregate {r.num_clients_after} clients, shards {total}")
        if action is not None and action not in ("none", "repair", "rebalance"):
            bad.append(f"unknown action {action!r}")
        problems.append(bad)
    return problems


# --------------------------------------------------------------------------- #
class Run:
    """One benchmark invocation: set-ups, windows and the checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_world_s = []
        self.setup_engine_s = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def setup(self):
        """Build the world and the engine from scratch; time both parts."""
        gc.collect()
        start = time.perf_counter()
        world = self.workload.build_world()
        built = time.perf_counter()
        engine = self.workload.build_engine(world, self.seed)
        done = time.perf_counter()
        self.setup_world_s.append(built - start)
        self.setup_engine_s.append(done - built)
        self.attempted += len(engine.first)
        return engine

    def window(self, engine, seconds: float, min_epochs: int, tracer=None):
        """Step ``engine`` in a closed loop for ``seconds`` (and ``min_epochs``)."""
        root = engine.root_span if tracer is not None else None
        left = self.workload.horizon - len(engine.first)
        epochs = []
        stamps = [time.perf_counter()]
        deadline = stamps[0] + seconds
        while len(epochs) < left:
            self.attempted += 1
            try:
                if root is None:
                    epoch = engine.step()
                else:
                    with tracer.span(root):
                        epoch = engine.step()
            except Exception:  # an epoch that raises is a failed operation
                traceback.print_exc()
                self.failed += 1
                break
            stamps.append(time.perf_counter())
            epochs.append(epoch)
            if stamps[-1] >= deadline and len(epochs) >= min_epochs:
                break
        if len(epochs) >= left:
            self.notes.append(f"horizon of {self.workload.horizon} epochs reached")
        return epochs, np.diff(np.asarray(stamps))

    def check(self, epochs) -> list:
        """Per-epoch digests; counts every epoch that fails an invariant."""
        for i, bad in enumerate(check_records(self.workload, epochs)):
            if bad:
                self.failed += 1
                print(f"epoch {epochs[i][0][0].epoch}: " + "; ".join(bad[:3]))
        return [epoch_digest(records, action) for records, action in epochs]

    def replay_digests(self, reference, label: str) -> None:
        """Fail every epoch whose digest differs from ``reference``."""
        engine = self.setup()
        epochs = list(engine.first)
        while len(epochs) < len(reference):
            self.attempted += 1
            try:
                epochs.append(engine.step())
            except Exception:  # counted below as missing digests
                traceback.print_exc()
                break
        self.compare(reference, [epoch_digest(r, a) for r, a in epochs], label)

    def compare(self, reference, digests, label: str) -> None:
        mismatched = sum(1 for a, b in zip(reference, digests) if a != b)
        mismatched += abs(len(reference) - len(digests))
        if mismatched:
            print(f"{label}: {mismatched} of {len(reference)} epoch digests differ")
            self.failed += mismatched


def tail_ms(walls) -> tuple:
    """p99 of the walls, or the highest rank with at least 10 walls beyond it."""
    ordered = np.sort(walls)
    n = ordered.size
    beyond = max(10, math.ceil(0.01 * n))
    if n <= beyond:
        return float(ordered[-1] * 1e3), n - 1, 0
    rank = n - 1 - beyond
    return float(ordered[rank] * 1e3), rank, beyond


def offered_per_s(workload: Workload, epochs, walls) -> float:
    """Events the workload offered in ``epochs`` per second of their walls."""
    events = sum(workload.offered_events(records[0].epoch) for records, _ in epochs)
    return events / float(walls.sum())


def e2e_metrics(run: Run, epochs, walls) -> tuple:
    workload = run.workload
    tail, rank, beyond = tail_ms(walls)
    quality = [
        next(r for r in records if r.shard_id < 0)
        for records, _ in epochs[: workload.quality_epochs]
    ]
    setup_s = [w + e for w, e in zip(run.setup_world_s, run.setup_engine_s)]
    metrics = {
        "events_per_s": (offered_per_s(workload, epochs, walls), "events/s"),
        "epoch_ms.p50": (float(np.median(walls)) * 1e3, "ms"),
        "epoch_ms.tail": (tail, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pqos.mean": (statistics.fmean(r.pqos_adopted for r in quality), "fraction"),
        "clients_unmigrated_share": (
            statistics.fmean(1.0 - r.clients_migrated / r.num_clients_after for r in quality),
            "fraction",
        ),
        "served_share": (
            statistics.fmean(
                1.0 - r.clients_degraded / (r.num_clients_after + r.clients_degraded)
                for r in quality
            ),
            "fraction",
        ),
    }
    detail = {
        "epochs": len(epochs),
        "window_s": float(walls.sum()),
        "tail_rank": rank,
        "tail_samples_beyond": beyond,
        "quality_epochs": len(quality),
        "setup_s_samples": setup_s,
    }
    return metrics, detail


def arena_counters(engine) -> tuple:
    session = getattr(engine, "session", None)
    arena = None if session is None else session.state.arena
    if arena is None:
        return 0, 0
    stats = arena.stats()
    return stats["reuses"], stats["acquires"]


def federation_profile(engine) -> tuple:
    simulator = getattr(engine, "simulator", None)
    profile = None if simulator is None else simulator.last_profile
    if profile is None:
        return 0.0, []
    return sum(profile.shard_barrier_seconds), list(profile.shard_wall_seconds)


def layer_metrics(run: Run, tracer: Tracer, engine, epochs, walls, before, untraced_eps) -> dict:
    n = len(epochs)
    totals = tracer.totals()
    metrics = {}
    for span, ms_metric, calls_metric in TIMED_LAYERS:
        calls, seconds, _ = totals.get(span, (0, 0.0, 0))
        metrics[ms_metric] = (seconds * 1e3 / n, "ms/epoch")
        if calls_metric is not None:
            metrics[calls_metric] = (calls / n, "count/epoch")
    for metric, span in (
        ("churn.events", "churn.generate"),
        ("migration.zones_moved", "migration.billing"),
        ("scenarios.clients_shed", "scenarios.runtime"),
    ):
        metrics[metric] = (totals.get(span, (0, 0, 0))[2] / n, "count/epoch")
    adopted = [r.utilization_adopted for records, _ in epochs for r in records if r.shard_id < 0]
    metrics["core.utilization.mean"] = (statistics.fmean(adopted), "fraction")
    for action in ("none", "repair", "rebalance"):
        metrics[f"controller.actions.{action}"] = (
            sum(1 for _, a in epochs if a == action) / n, "count/epoch")
    barrier, shard_walls = federation_profile(engine)
    barrier0, shard_walls0 = before["federation"]
    metrics["federation.barrier_wait_ms"] = ((barrier - barrier0) * 1e3 / n, "ms/epoch")
    spent = [a - b for a, b in zip(shard_walls, shard_walls0)]
    metrics["federation.shard_ms.max_over_mean"] = (
        max(spent) / statistics.fmean(spent) if spent and sum(spent) > 0 else 0.0, "ratio")
    reuses, acquires = arena_counters(engine)
    reuses0, acquires0 = before["arena"]
    metrics["arena.reuse_ratio"] = (
        (reuses - reuses0) / (acquires - acquires0) if acquires > acquires0 else 0.0, "ratio")
    traced_eps = offered_per_s(run.workload, epochs, walls)
    metrics["trace.overhead"] = (untraced_eps / traced_eps - 1.0, "fraction")
    metrics["trace.spans_per_epoch"] = (len(tracer.spans) / n, "count/epoch")
    return metrics


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    detail = {"workload": workload.name, "seed": args.seed, "host": host_fingerprint()}
    probes = [host_probe_ms()]
    if not args.trace:
        engine = run.setup()
        window, walls = run.window(engine, args.seconds, workload.quality_epochs)
        probes.append(host_probe_ms())
        epochs = engine.first + window
        del engine
        digests = run.check(epochs)
        run.replay_digests(digests[: workload.digest_epochs], "second engine, same seed")
        for _ in range(SETUPS_AFTER - 1):
            run.setup()
        metrics, window_detail = e2e_metrics(run, window, walls)
        detail.update(window_detail)
    else:
        half = args.seconds / 2.0
        engine = run.setup()
        plain, plain_walls = run.window(engine, half, workload.digest_epochs)
        probes.append(host_probe_ms())
        reference = run.check(engine.first + plain)
        del engine
        untraced_eps = offered_per_s(workload, plain, plain_walls)

        engine = run.setup()
        before = {"federation": federation_profile(engine), "arena": arena_counters(engine)}
        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        try:
            traced, walls = run.window(engine, half, workload.digest_epochs, tracer)
        finally:
            tracer.uninstall()
        probes.append(host_probe_ms())
        digests = run.check(engine.first + traced)
        run.compare(reference[: len(digests)], digests[: len(reference)], "traced vs untraced")
        metrics = layer_metrics(run, tracer, engine, traced, walls, before, untraced_eps)
        del engine
        for _ in range(SETUPS_AFTER - 1):
            run.setup()
        metrics["setup.world_build_s"] = (statistics.median(run.setup_world_s), "s")
        metrics["setup.initial_solve_s"] = (statistics.median(run.setup_engine_s), "s")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(str(path))
        detail.update(
            epochs=len(traced), spans=len(tracer.spans), trace_file=str(path.relative_to(ROOT))
        )

    detail["host_probe_ms"] = probes
    detail["notes"] = run.notes
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print("detail " + json.dumps(detail))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

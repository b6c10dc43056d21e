"""Measure one workload: set-up, timed window, correctness, layer metrics.

:func:`run_workload` returns a report dict holding every end-to-end
metric that applies to the workload (name -> value, unit, clock), the
per-layer metrics when traced, the host facts, the sample counts and
the outcome of every correctness check.  ``run.py`` prints it; the
benchmark's tests call it directly at tiny sizes.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import resource
import time
from statistics import median

import numpy as np

from layers import Probes, Recorder

_clock = time.perf_counter

ACC_GATE = 5.0e-4   # paper: acceleration within 0.05 % of a typical force
JERK_GATE = 2.0e-3  # paper: jerk within 0.2 %
PM_RMS_GATE = 1.0e-2  # BENCH_pm: RMS far-field force error vs direct sum
SAMPLE_ROWS = 256   # fixed row sample the float64 reference evaluates
MODEL_CATEGORIES = ("host", "pcie", "device", "launch")


class NativeUnavailable(RuntimeError):
    """The compiled kernels cannot load: the NumPy fallback is another program."""


def host_facts() -> dict:
    """Record the host, and warm the on-disk native library cache."""
    from repro.nbody_tt._native import native_available
    from repro.wormhole._native_pack import native_bf16_round

    start = _clock()
    available = native_available()
    native_bf16_round(np.zeros(8, dtype=np.float32))
    warm_s = _clock() - start
    if not available:
        raise NativeUnavailable(
            "native kernels unavailable (no C compiler, or REPRO_NATIVE "
            "disabled them); refusing to report NumPy-fallback numbers"
        )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_available": available,
        "native_warm_s": warm_s,
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Attempted/failed operation counts plus named correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []

    def op(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error:
                self.errors.append(error)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.op(ok, None if ok else f"check failed: {name}")


def _metric(value, unit: str, clock: str, **note) -> dict:
    return {"value": float(value), "unit": unit, "clock": clock, **note}


# --------------------------------------------------------------------------
# simulation workloads
# --------------------------------------------------------------------------


class _Run:
    """One realised simulation plus the probes a timed window needs."""

    def __init__(self, workload, seed, seconds, *, scope=None,
                 wrap_backend=None):
        spec = workload.run_spec(seed, seconds)
        start = _clock()
        system = spec.make_system()
        self.make_s = _clock() - start
        workload.transform(system, seed)
        backend = spec.make_backend()
        if wrap_backend is not None:
            backend = wrap_backend(backend)
        self.sim = spec.make_simulation(system, backend, trace=scope)
        self.sim.initialise()
        self.setup_s = _clock() - start
        self.spec = spec
        self.scope = scope
        self.system = system
        self.backend = backend
        self.block = workload.integrator == "block-hermite"
        self.slice_dt = workload.slice_dt
        self.step_s: list[float] = []
        self.n_active: list[int] = []
        self.step_t: list[float] = []
        self.model_s = 0.0
        self.rec: Recorder | None = None
        if self.block:
            self._time_blocks()

    def _time_blocks(self) -> None:
        """Time each step_block call (the block-hermite unit of work)."""
        integrator = self.sim.integrator
        step_block = integrator.step_block

        def timed():
            start = _clock()
            if self.rec is not None:
                with self.rec.span("core.step"):
                    n_active = step_block()
            else:
                n_active = step_block()
            self.step_s.append(_clock() - start)
            self.n_active.append(n_active)
            self.step_t.append(integrator.system.time)
            return n_active

        integrator.step_block = timed

    def unit(self) -> float:
        """One ``run(1)``; returns its host seconds."""
        start = _clock()
        if self.rec is not None and not self.block:
            with self.rec.span("core.step"):
                result = self.sim.run(1)
        else:
            result = self.sim.run(1)
        elapsed = _clock() - start
        if not self.block:
            self.step_s.append(elapsed)
            self.n_active.append(self.system.n)
        self.model_s += sum(seg.seconds for seg in result.timeline)
        return elapsed

    def samples(self) -> list[float]:
        """Host seconds per latency sample.

        A shared step is one sample.  Block updates are grouped into
        slices of ``slice_dt`` physical time: the median single block is
        ill-conditioned (about half the blocks update one particle, so
        the median sits on the edge between two cost classes).
        """
        if self.slice_dt is None:
            return self.step_s
        walls: dict[int, float] = {}
        for wall, t in zip(self.step_s, self.step_t):
            k = int(np.ceil(t / self.slice_dt - 1e-9)) - 1
            walls[k] = walls.get(k, 0.0) + wall
        return [walls[k] for k in sorted(walls)]

    def close(self) -> None:
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()


def force_errors(run: _Run, gate: str) -> dict:
    """First evaluation vs the float64 reference on a fixed row sample."""
    from repro.core.simulation import ReferenceBackend
    from repro.core.validation import compare_to_reference

    system = run.system
    rows = np.unique(np.linspace(0, system.n - 1, SAMPLE_ROWS).astype(int))
    ref = ReferenceBackend(softening=run.spec.softening).compute_on_targets(
        system.pos, system.vel, system.mass, rows
    )
    acc, jerk = system.acc[rows], system.jerk[rows]
    if gate == "pm":
        num = np.mean(np.sum((acc - ref.acc) ** 2, axis=1))
        den = np.mean(np.sum(ref.acc ** 2, axis=1))
        err = float(np.sqrt(num / den))
        return {"force_err": err, "force_ok": err <= PM_RMS_GATE,
                "gate": f"RMS <= {PM_RMS_GATE:g}"}
    report = compare_to_reference(acc, jerk, ref.acc, ref.jerk,
                                  acc_tolerance=ACC_GATE,
                                  jerk_tolerance=JERK_GATE)
    return {"force_err": report.max_acc_error,
            "jerk_err": report.max_jerk_error,
            "force_ok": report.passed,
            "gate": f"acc <= {ACC_GATE:g}, jerk <= {JERK_GATE:g}"}


def _energy(system, softening: float) -> float:
    from repro.core.energy import energy_report

    return energy_report(system, softening=softening).total


def _window(run: _Run, calls: int, outcome: Outcome,
            label: str) -> tuple[float, bool]:
    """``calls`` timed units on one simulation; (host seconds, intact)."""
    host_s = 0.0
    for index in range(calls):
        try:
            host_s += run.unit()
        except Exception as exc:  # a failed step is counted, not fatal
            outcome.op(False, f"{label} unit {index}: "
                              f"{type(exc).__name__}: {exc}")
            return host_s, False
        ok = bool(np.all(np.isfinite(run.system.pos))
                  and np.all(np.isfinite(run.system.vel)))
        outcome.op(ok, None if ok else f"{label} unit {index}: non-finite")
        if not ok:
            return host_s, False
    return host_s, True


def run_sim(workload, seed: int, seconds: float, trace: bool,
            wrap_backend=None) -> dict:
    """Untraced: ``setup_reps`` rounds of set-up + window, samples pooled.

    Spreading the windows over the run (instead of one window after all
    set-ups) keeps a few seconds of host slowdown from moving the median.
    """
    if trace:
        return _run_sim_traced(workload, seed, seconds, wrap_backend)
    outcome = Outcome()
    calls = workload.schedule(seconds)[1]
    setups, host_s, model_s = [], 0.0, 0.0
    steps, n_active, walls = [], [], []
    accuracy = drift = None
    for rep in range(workload.setup_reps):
        run = _Run(workload, seed, seconds, wrap_backend=wrap_backend)
        setups.append(run.setup_s)
        if rep == 0:
            accuracy = force_errors(run, workload.gate)
            outcome.check("force_err", accuracy["force_ok"])
        last = rep == workload.setup_reps - 1
        energy0 = _energy(run.system, run.spec.softening) if last else None
        window_s, intact = _window(run, calls, outcome, f"rep {rep}")
        run.close()
        host_s += window_s
        model_s += run.model_s
        steps += run.step_s
        n_active += run.n_active
        walls += run.samples()
        if last and intact:
            drift = abs((_energy(run.system, run.spec.softening) - energy0)
                        / energy0)
        if not intact:
            break
    report = _sim_metrics(setups, accuracy, host_s, model_s, steps,
                          n_active, walls, len(setups))
    if drift is not None:
        report["e2e"]["energy_err"] = _metric(drift, "ratio", "none")
    report["samples"] = {"windows": len(setups), "run_calls": calls,
                         "steps": len(steps), "latency_samples": len(walls)}
    report["outcome"] = outcome
    return report


def _run_sim_traced(workload, seed, seconds, wrap_backend):
    """One untraced and one traced simulation, stepped alternately."""
    from repro.observability import Trace

    outcome = Outcome()
    calls = workload.schedule(seconds)[1]
    main = _Run(workload, seed, seconds, wrap_backend=wrap_backend)
    traced = _Run(workload, seed, seconds, scope=Trace(),
                  wrap_backend=wrap_backend)
    accuracy = force_errors(main, workload.gate)
    outcome.check("force_err", accuracy["force_ok"])

    rec = Recorder()
    probes = Probes(rec)
    probes.watch_backend(traced.backend)
    traced.rec = rec
    before = (traced.scope.seconds_by_category(), _residency(traced.backend),
              _block_stats(traced))
    main_s, windows, intact = 0.0, [], True
    for index in range(calls):
        # alternate which simulation goes first so drift hits both alike
        for run in ((main, traced) if index % 2 == 0 else (traced, main)):
            if not intact:
                break
            if run is traced:
                rec.set_op(index)
                with probes.active():
                    start = _clock()
                    _, intact = _window(run, 1, outcome, "traced")
                    windows.append((start, _clock()))
            else:
                host_s, intact = _window(run, 1, outcome, "untraced")
                main_s += host_s
    report = _sim_metrics([main.setup_s, traced.setup_s], accuracy, main_s,
                          main.model_s, main.step_s, main.n_active,
                          main.samples(), 1)
    report["samples"] = {"windows": 1, "run_calls": calls,
                         "steps": len(main.step_s),
                         "latency_samples": len(main.samples())}
    outcome.check("model_s traced == untraced",
                  traced.model_s == main.model_s)
    outcome.check("final state traced == untraced",
                  np.array_equal(traced.system.pos, main.system.pos))
    report["layers"] = _sim_layers(traced, main, rec,
                                   [main.make_s, traced.make_s], before,
                                   windows)
    report["spans"] = rec
    main.close()
    traced.close()
    report["outcome"] = outcome
    return report


def _residency(backend) -> dict:
    counters = getattr(backend, "residency_counters", None)
    return dict(counters()) if counters is not None else {}


def _block_stats(run: _Run):
    stats = getattr(run.sim, "stats", None)
    return (stats.block_steps, stats.particle_updates) if stats else (0, 0)


def _sim_metrics(setups, accuracy, host_s, model_s, steps, n_active,
                 walls, windows):
    e2e = {
        "setup_s": _metric(median(setups), "s", "host", reps=len(setups)),
        "latency_s.p50": _metric(median(walls), "s", "host",
                                 samples=len(walls)),
        "particle_steps_per_s": _metric(sum(n_active) / host_s, "1/s",
                                        "host", windows=windows),
        "step_wall_s.p50": _metric(median(steps), "s", "host",
                                   samples=len(steps)),
    }
    tail_of = tail(steps)
    if tail_of is not None:
        e2e["step_wall_s.tail"] = _metric(
            tail_of[1], "s", "host", percentile=tail_of[0],
            samples=len(steps))
    e2e["model_s"] = _metric(model_s, "s", "modelled")
    e2e["force_err"] = _metric(accuracy["force_err"], "ratio", "none",
                               gate=accuracy["gate"])
    if "jerk_err" in accuracy:
        e2e["force_err"]["jerk_err"] = accuracy["jerk_err"]
    e2e["peak_rss_mb"] = _metric(peak_rss_mb(), "MiB", "host")
    return {"e2e": e2e}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sim_layers(traced: _Run, main: _Run, rec: Recorder, makes, before,
                windows):
    from repro.wormhole.tile import TILE_ELEMENTS, tiles_needed

    layers: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        layers[name] = (float(value), unit)

    scope_before, counters_before, blocks_before = before
    force_busy = rec.busy("backends.force")
    cards = rec.busy_prefix("backends.sharded.card")
    card_busy = sum(cards.values())
    active_rows = sum(traced.n_active)
    kernel_tiles = rec.counters.get("nbody_tt.kernel_tiles", 0)
    counters_after = _residency(traced.backend)
    blocks_after = _block_stats(traced)
    scope_after = traced.scope.seconds_by_category()

    def delta(name):
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    def hit_ratio(prefix):
        hits, misses = delta(f"{prefix}_hits"), delta(f"{prefix}_misses")
        return _ratio(hits, hits + misses)

    put("core.scenario.make_s", median(makes), "s")
    put("core.integrator.self_s", rec.self_time("core.step"), "s")
    put("core.block.blocks", blocks_after[0] - blocks_before[0], "count")
    put("core.block.updates", blocks_after[1] - blocks_before[1], "count")
    put("core.block.n_active.p50",
        median(traced.n_active) if traced.block else 0, "count")
    put("core.block.useful_row_ratio",
        _ratio(active_rows, kernel_tiles * TILE_ELEMENTS), "ratio")
    put("backends.force.calls", rec.n("backends.force"), "count")
    put("backends.force.busy_s", force_busy, "s")
    put("backends.force.rows", rec.counters.get("backends.force.rows", 0),
        "count")
    put("backends.targets.masked_fallbacks",
        rec.counters.get("backends.targets.masked_fallbacks", 0), "count")
    put("backends.sharded.card_busy_s", card_busy, "s")
    put("backends.sharded.imbalance",
        _ratio(max(cards.values()), card_busy / len(cards)) if cards else 0,
        "ratio")
    put("backends.sharded.fanout_merge_s",
        force_busy - card_busy if cards else 0, "s")
    put("backends.runspec.hash_s", _time_hash(traced.spec, rec), "s")
    put("nbody_tt.kernel_s", rec.busy("nbody_tt.kernel"), "s")
    put("nbody_tt.kernel_tile_pairs",
        kernel_tiles * tiles_needed(traced.system.n), "count")
    put("nbody_tt.tilize_s", rec.busy("nbody_tt.tilize"), "s")
    put("nbody_tt.residency.hit_ratio", hit_ratio("tilize_cache"), "ratio")
    put("metalium.enqueue_s", rec.busy("metalium.enqueue"), "s")
    put("metalium.programs_enqueued", rec.n("metalium.enqueue"), "count")
    put("metalium.program_builds",
        rec.counters.get("metalium.program_builds", 0), "count")
    put("model.total_s", traced.model_s, "s")
    for category in MODEL_CATEGORIES:
        put(f"model.{category}_s",
            scope_after.get(category, 0.0) - scope_before.get(category, 0.0),
            "s")
    put("wormhole.dram.touch_reads",
        rec.leaf_count.get("wormhole.dram.touch_read", 0), "count")
    put("wormhole.dram.touch_s",
        rec.leaf_s.get("wormhole.dram.touch_read", 0.0), "s")
    put("nbody_pm.near_s", rec.busy("nbody_pm.near"), "s")
    put("nbody_pm.near_pairs", rec.counters.get("nbody_pm.near_pairs", 0),
        "count")
    put("nbody_pm.mesh_s", rec.busy("nbody_pm.mesh"), "s")
    put("nbody_pm.green_cache.hit_ratio", hit_ratio("green_cache"), "ratio")
    put("trace.overhead_frac",
        median(traced.samples()) / median(main.samples()) - 1.0,
        "ratio")
    put("trace.unattributed_s",
        sum(rec.uncovered(start, end) for start, end in windows), "s")
    return layers


def _time_hash(spec, rec: Recorder) -> float:
    """A simulation run hashes its spec once (its run identity)."""
    with rec.span("backends.runspec.hash"):
        spec.canonical_hash()
    return rec.busy("backends.runspec.hash")


# --------------------------------------------------------------------------
# service workload
# --------------------------------------------------------------------------


async def _service_setup(workload, warm_spec):
    from repro.service import JobServer, ServerConfig

    start = _clock()
    server = JobServer(ServerConfig(n_cards=workload.n_cards,
                                    mode="modelled"))
    server.scheduler.start()
    job = await server.submit("tenant-0", warm_spec)
    await job.wait_finished()
    return server, _clock() - start, job.state == "done"


async def _closed_loop(workload, server, specs, rec: Recorder | None):
    """``workload.clients`` clients, each submitting after its last finished."""
    from repro.errors import ReproError

    jobs: list = [None] * len(specs)
    errors: list[str] = []
    cursor = iter(range(len(specs)))

    async def client(tenant: str) -> None:
        for index in cursor:
            try:
                start = _clock()
                job = await server.submit(tenant, specs[index])
                if rec is not None:
                    rec.set_op(index)
                    rec.add_root("service.submit", start, _clock())
                await job.wait_finished()
                jobs[index] = job
            except ReproError as exc:  # refused (quota) or failed submit
                errors.append(f"job {index}: {type(exc).__name__}: {exc}")

    start = _clock()
    await asyncio.gather(*(client(f"tenant-{c % 2}")
                           for c in range(workload.clients)))
    return jobs, errors, (start, _clock())


def _check_service(jobs, outcome: Outcome) -> float:
    """Count failures; cached/deduped answers must equal the executed payload.

    Returns the modelled seconds of the jobs that really executed.
    """
    from repro.service import CardFarm

    executed: dict[str, str] = {}
    served: list = []
    model_s = 0.0
    for job in jobs:
        if job is None:
            continue
        ok = job.state == "done"
        outcome.op(ok, None if ok else f"{job.id}: {job.state} {job.error}")
        if not ok:
            continue
        if job.cached or job.deduped_from:
            served.append(job)
        else:
            executed[job.spec_hash] = json.dumps(job.result, sort_keys=True)
            model_s += float(job.result["virtual_s"])
    mismatched = [job.id for job in served
                  if executed.get(job.spec_hash) is not None
                  and json.dumps(job.result, sort_keys=True)
                  != executed[job.spec_hash]]
    outcome.check("cached/deduped result == executed payload",
                  not mismatched)
    # the cache contract: re-executing a served spec reproduces its payload
    farm, fresh_ok = CardFarm(1, mode="modelled"), True
    for spec_hash in sorted({job.spec_hash for job in served})[:32]:
        job = next(j for j in served if j.spec_hash == spec_hash)
        payload = farm.execute(job.spec, 0)
        payload.pop("events", None)
        fresh_ok &= (json.dumps(payload, sort_keys=True)
                     == json.dumps(job.result, sort_keys=True))
    outcome.check("re-executed served spec == cached payload", fresh_ok)
    return model_s


def run_service(workload, seed: int, seconds: float, trace: bool) -> dict:
    return asyncio.run(_run_service(workload, seed, seconds, trace))


async def _run_service(workload, seed, seconds, trace):
    outcome = Outcome()
    warm_spec, specs = workload.job_specs(seed, workload.jobs(seconds))
    setups, servers = [], []
    for _ in range(max(workload.setup_reps, 2 if trace else 1)):
        server, setup_s, ok = await _service_setup(workload, warm_spec)
        outcome.op(ok, None if ok else "set-up job failed")
        setups.append(setup_s)
        servers.append(server)
    main = servers[-2] if trace else servers[-1]
    for server in servers[:-2] if trace else servers[:-1]:
        await server.scheduler.stop()

    jobs, errors, window = await _closed_loop(workload, main, specs, None)
    for error in errors:
        outcome.op(False, error)
    await main.scheduler.stop()
    latencies = [job.latency_s for job in jobs if job is not None]
    host_s = window[1] - window[0]
    model_s = _check_service(jobs, outcome)
    e2e = {
        "setup_s": _metric(median(setups), "s", "host", reps=len(setups)),
        "latency_s.p50": _metric(median(latencies), "s", "host",
                                 samples=len(latencies)),
        "jobs_per_s": _metric(len(latencies) / host_s, "1/s", "host"),
        "job_latency_s.p50": _metric(median(latencies), "s", "host",
                                     samples=len(latencies)),
        "model_s": _metric(model_s, "s", "modelled"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MiB", "host"),
    }
    tail_of = tail(latencies)
    if tail_of is not None:
        e2e["job_latency_s.tail"] = _metric(
            tail_of[1], "s", "host", percentile=tail_of[0],
            samples=len(latencies))
    report = {"e2e": e2e, "samples": {"jobs": len(latencies)}}

    if trace:
        traced = servers[-1]
        rec = Recorder()
        probes = Probes(rec)
        with probes.active():
            t_jobs, t_errors, t_window = await _closed_loop(
                workload, traced, specs, rec)
            await traced.scheduler.stop()
        for error in t_errors:
            outcome.op(False, error)
        t_model_s = _check_service(t_jobs, outcome)
        outcome.check("model_s traced == untraced", t_model_s == model_s)
        report["layers"] = _service_layers(
            traced, t_jobs, rec, latencies, t_window, t_model_s)
        report["spans"] = rec
    report["outcome"] = outcome
    return report


def _service_layers(server, jobs, rec: Recorder, untraced_latencies,
                    window, model_s):
    done = [job for job in jobs if job is not None]
    executed = [job for job in done
                if not job.cached and not job.deduped_from]
    waits = [job.started_wall - job.submitted_wall for job in executed
             if job.started_wall is not None]
    finished = len(done)
    layers: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        layers[name] = (float(value), unit)

    put("backends.runspec.hash_s", rec.busy("backends.runspec.hash"), "s")
    put("service.submit_s.p50", rec.p50("service.submit"), "s")
    put("service.queue_wait_s.p50", median(waits) if waits else 0.0, "s")
    put("service.exec_s.p50", rec.p50("service.exec"), "s")
    put("service.served_without_exec_ratio",
        _ratio(server.cached_served + server.deduped_served, finished),
        "ratio")
    put("service.quota_rejections",
        sum(server.ledger.rejections.values()), "count")
    put("model.total_s", model_s, "s")
    latencies = [job.latency_s for job in done]
    put("trace.overhead_frac",
        median(latencies) / median(untraced_latencies) - 1.0, "ratio")
    put("trace.unattributed_s", rec.uncovered(*window), "s")
    return layers


#: every per-layer metric and its unit; a workload that does not reach a
#: layer reports 0 for it
PER_LAYER_UNITS = {
    "core.scenario.make_s": "s",
    "core.integrator.self_s": "s",
    "core.block.blocks": "count",
    "core.block.updates": "count",
    "core.block.n_active.p50": "count",
    "core.block.useful_row_ratio": "ratio",
    "backends.force.calls": "count",
    "backends.force.busy_s": "s",
    "backends.force.rows": "count",
    "backends.targets.masked_fallbacks": "count",
    "backends.sharded.card_busy_s": "s",
    "backends.sharded.imbalance": "ratio",
    "backends.sharded.fanout_merge_s": "s",
    "backends.runspec.hash_s": "s",
    "nbody_tt.kernel_s": "s",
    "nbody_tt.kernel_tile_pairs": "count",
    "nbody_tt.tilize_s": "s",
    "nbody_tt.residency.hit_ratio": "ratio",
    "nbody_tt.native_warm_s": "s",
    "metalium.enqueue_s": "s",
    "metalium.programs_enqueued": "count",
    "metalium.program_builds": "count",
    "model.total_s": "s",
    **{f"model.{c}_s": "s" for c in MODEL_CATEGORIES},
    "wormhole.dram.touch_reads": "count",
    "wormhole.dram.touch_s": "s",
    "nbody_pm.near_s": "s",
    "nbody_pm.near_pairs": "count",
    "nbody_pm.mesh_s": "s",
    "nbody_pm.green_cache.hit_ratio": "ratio",
    "service.submit_s.p50": "s",
    "service.queue_wait_s.p50": "s",
    "service.exec_s.p50": "s",
    "service.served_without_exec_ratio": "ratio",
    "service.quota_rejections": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 host: dict, wrap_backend=None) -> dict:
    """Measure ``workload`` once; see the module docstring for the shape."""
    if workload.kind == "service":
        report = run_service(workload, seed, seconds, trace)
    else:
        report = run_sim(workload, seed, seconds, trace, wrap_backend)
    if trace:
        layers = {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}
        layers.update(report["layers"])
        layers["nbody_tt.native_warm_s"] = (host["native_warm_s"], "s")
        report["layers"] = layers
    report["host"] = host
    report["workload"] = workload.name
    report["seed"] = seed
    return report

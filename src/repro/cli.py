"""Command-line interface: ``elsa-repro`` (or ``python -m repro``).

Subcommands mirror a real deployment workflow:

* ``generate`` — build a synthetic scenario; write the log as text and the
  ground truth as JSON;
* ``fit``      — train the offline phase on a log file; pickle the model;
* ``predict``  — run the online phase over a window of a log file;
* ``evaluate`` — score a predictions file against a ground-truth file;
* ``report``   — everything end-to-end with a human-readable summary.

All files are plain text/JSON except the model, which is a pickle (the
trained model holds numpy arrays and nested dataclasses).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.core.elsa import ELSA
from repro.datasets.scenarios import bluegene_scenario, mercury_scenario
from repro.prediction.engine import Prediction
from repro.prediction.evaluation import evaluate_predictions
from repro.simulation.trace import FaultEvent, read_log, write_log


# ---------------------------------------------------------------------------
# console output
# ---------------------------------------------------------------------------

#: set by ``--quiet``; collected by :func:`set_quiet` so tests can toggle.
_quiet = False


def set_quiet(quiet: bool) -> None:
    """Silence (or restore) the human-readable console stream."""
    global _quiet
    _quiet = bool(quiet)


def _emit(*parts: object, **kwargs) -> None:
    """Console output funnel: every subcommand prints through here.

    One choke point means ``--quiet`` works uniformly and future
    machine-readable modes (JSON lines, ...) need only one switch.
    Default behaviour is byte-identical to ``print``.
    """
    if not _quiet:
        try:
            print(*parts, **kwargs)
        except BrokenPipeError:
            # Reader (e.g. ``| head``) went away: stop quietly with the
            # conventional 128+SIGPIPE status instead of a traceback.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(141)


def _json_default(value):
    """Serialize numpy scalars and other stragglers in obs dumps."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def _dump_observability(path: str) -> None:
    """Write the metrics registry + span tree collected by this run."""
    state = obs.export_state()
    Path(path).write_text(
        json.dumps(state, indent=1, default=_json_default) + "\n"
    )
    _emit(f"observability dump written to {path}")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fault_to_dict(f: FaultEvent) -> dict:
    return {
        "fault_id": f.fault_id,
        "fault_type": f.fault_type,
        "category": f.category,
        "onset_time": f.onset_time,
        "fail_time": f.fail_time,
        "locations": list(f.locations),
    }


def _fault_from_dict(d: dict) -> FaultEvent:
    return FaultEvent(
        fault_id=int(d["fault_id"]),
        fault_type=str(d["fault_type"]),
        category=str(d["category"]),
        onset_time=float(d["onset_time"]),
        fail_time=float(d["fail_time"]),
        locations=tuple(d["locations"]),
    )


def load_ground_truth(path: Path) -> List[FaultEvent]:
    """Read a ground-truth JSON file written by ``generate``."""
    data = json.loads(path.read_text())
    return [_fault_from_dict(d) for d in data["faults"]]


def load_predictions(path: Path) -> List[Prediction]:
    """Read a predictions JSON file written by ``predict``."""
    data = json.loads(path.read_text())
    return [Prediction.from_dict(d) for d in data["predictions"]]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _scenario(args: argparse.Namespace):
    """The synthetic scenario ``--system/--days/--seed`` name."""
    builder = bluegene_scenario if args.system == "bluegene" else mercury_scenario
    return builder(duration_days=args.days, seed=args.seed)


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: synthesize a scenario to log + truth files."""
    scenario = _scenario(args)
    log_path = Path(args.log)
    with log_path.open("w") as fh:
        n = write_log(scenario.records, fh)
    truth = {
        "system": args.system,
        "duration_days": args.days,
        "seed": args.seed,
        "train_end": scenario.train_end,
        "t_end": scenario.t_end,
        "faults": [_fault_to_dict(f) for f in scenario.ground_truth],
    }
    Path(args.truth).write_text(json.dumps(truth, indent=1))
    _emit(f"wrote {n} records to {args.log}")
    _emit(f"wrote {len(scenario.ground_truth)} faults to {args.truth}")
    _emit(f"suggested training split: t_train_end={scenario.train_end:.0f}")
    return 0


def _machine_for(system: str):
    from repro.simulation.topology import (
        build_bluegene_machine,
        build_cluster_machine,
    )

    if system == "bluegene":
        return build_bluegene_machine()
    return build_cluster_machine()


def _read_records(path: str, fmt: str, lenient: bool = False):
    """Read a log file in the selected format.

    ``lenient`` skips malformed lines (counted on the
    ``ingest.malformed_lines`` obs counter) instead of raising.
    """
    if fmt == "bgl":
        from repro.simulation.bgl_format import read_bgl_log

        with Path(path).open() as fh:
            return read_bgl_log(fh, skip_malformed=lenient)
    with Path(path).open() as fh:
        return read_log(fh, lenient=lenient)


#: exit status for a run that finished but dropped/repaired input or
#: tripped a component breaker along the way (distinct from a crash).
EXIT_DEGRADED = 3


def _apply_resilience(elsa: ELSA, args: argparse.Namespace) -> bool:
    """Turn on the hardened-ingestion path when ``--lenient`` was given."""
    lenient = bool(getattr(args, "lenient", False))
    if lenient and elsa.config.resilience is None:
        from repro.resilience.config import ResilienceConfig

        elsa.config.resilience = ResilienceConfig()
    return lenient


def _degraded_exit(elsa: ELSA, rc: int = 0) -> int:
    """Map a degraded (but completed) run to :data:`EXIT_DEGRADED`.

    Degradation = the sanitizer dropped/repaired records, or the lenient
    reader skipped malformed lines (the ``ingest.malformed_lines``
    counter covers this run — ``main`` resets the registry first).
    """
    if rc != 0:
        return rc
    stats = dict(elsa.ingest_stats or {})
    skipped = int(obs.counter("ingest.malformed_lines").value)
    if skipped:
        stats["malformed_lines"] = skipped
    if elsa.degraded or skipped:
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(stats.items()) if v
        )
        _emit(f"run completed in DEGRADED mode ({detail})")
        return EXIT_DEGRADED
    return rc


def cmd_fit(args: argparse.Namespace) -> int:
    """``fit``: offline phase on a log file; pickles the pipeline."""
    elsa = ELSA(_machine_for(args.system))
    lenient = _apply_resilience(elsa, args)
    try:
        records = _read_records(args.log, args.format, lenient=lenient)
    except ValueError as exc:
        print(f"error: {exc} (re-run with --lenient to skip bad lines)",
              file=sys.stderr)
        return 1
    model = elsa.fit(records, t_train_end=args.train_end)
    with Path(args.model).open("wb") as fh:
        pickle.dump(elsa, fh)
    _emit(
        f"trained on {sum(1 for r in records if r.timestamp < args.train_end)} "
        f"records: {model.n_types} event types, "
        f"{len(model.predictive_chains)} predictive chains "
        f"({len(model.info_chains)} informational discarded)"
    )
    for chain in model.predictive_chains:
        names = " -> ".join(
            model.event_name(t)[:36] for t in chain.event_types
        )
        _emit(f"  conf {chain.confidence:4.0%} span {chain.span:4d}u  {names}")
    _emit(f"model saved to {args.model}")
    return _degraded_exit(elsa)


def _load_truth_window(
    path: str, t_start: float, t_end: float
) -> List[FaultEvent]:
    """Ground-truth faults failing inside the predict window."""
    faults = load_ground_truth(Path(path))
    return [f for f in faults if t_start <= f.fail_time < t_end]


def _start_telemetry(args: argparse.Namespace):
    """Start the ``--listen`` server (or return ``None``)."""
    spec = getattr(args, "listen", None)
    if not spec:
        return None
    from repro.obs.live import TelemetryServer, parse_listen

    host, port = parse_listen(spec)
    server = TelemetryServer(host=host, port=port).start()
    _emit(f"telemetry listening on {server.url}")
    return server


def _stop_telemetry(server, args: argparse.Namespace) -> None:
    """Linger if requested, then shut the ``--listen`` server down."""
    if server is None:
        return
    linger = float(getattr(args, "linger", 0.0) or 0.0)
    if linger > 0:
        _emit(f"telemetry lingering for {linger:g}s (ctrl-c to stop)")
        try:
            time.sleep(linger)
        except KeyboardInterrupt:
            pass
    server.stop()


def _resume_error(source, exc: ValueError) -> int:
    """Report a checkpoint the run cannot resume from; exit status 1."""
    print(f"error: cannot resume from {source}: {exc}", file=sys.stderr)
    return 1


def cmd_predict(args: argparse.Namespace) -> int:
    """``predict``: online phase over a window of a log file.

    With ``--checkpoint``/``--checkpoint-every`` (or ``--batch-size``)
    the window is fed chunk by chunk through a checkpointable
    ``ResumableRun`` instead of one whole-window ``run`` (same engine,
    same output, see :mod:`repro.resilience.checkpoint`);
    ``--resume-from`` continues a killed run from its checkpoint file.
    ``--listen`` serves the /metrics, /health and /state telemetry
    endpoints for the duration of the run (plus ``--linger`` seconds);
    ``--truth`` scores emitted predictions in-stream on the online
    scoreboard; ``--provenance-out`` dumps each prediction's audit
    record as JSON lines.

    ``--self-heal`` (implied by ``--model-store``) runs the lifecycle
    loop instead: drift or recall degradation triggers a shadow retrain,
    a validation gate compares candidate and incumbent on a held-out
    slice, and the winner is hot-swapped into the stream (see
    :mod:`repro.lifecycle.healing`).  With ``--model-store`` every
    accepted version is pickled, so ``--resume-from`` restores the
    swapped model rather than the seed.
    """
    with Path(args.model).open("rb") as fh:
        elsa: ELSA = pickle.load(fh)
    lenient = _apply_resilience(elsa, args)
    try:
        records = _read_records(args.log, args.format, lenient=lenient)
    except ValueError as exc:
        print(f"error: {exc} (re-run with --lenient to skip bad lines)",
              file=sys.stderr)
        return 1
    t_end = args.t_end if args.t_end is not None else (
        max(r.timestamp for r in records) + 1.0
    )
    truth_path = getattr(args, "truth", None)
    faults = (
        _load_truth_window(truth_path, args.t_start, t_end)
        if truth_path else None
    )
    scoreboard = None
    server = _start_telemetry(args)
    profiler = None
    if getattr(args, "profile", False):
        profiler = obs.get_profiler()
        profiler.start()
        _emit(f"stage profiler sampling every {profiler.interval * 1000:g}ms")
    try:
        resume_from = getattr(args, "resume_from", None)
        ckpt_path = getattr(args, "checkpoint", None) or resume_from
        ckpt_every = getattr(args, "checkpoint_every", None)
        batch_size = getattr(args, "batch_size", None)
        model_store = getattr(args, "model_store", None)
        self_heal = getattr(args, "self_heal", False) or bool(model_store)
        if self_heal or resume_from or ckpt_path or ckpt_every or batch_size:
            from repro.resilience.checkpoint import (
                ResumableRun,
                load_checkpoint,
            )

            # --batch-size alone selects the streaming engine without
            # enabling checkpoints (no path to write them to)
            kwargs = dict(
                checkpoint_path=ckpt_path,
                checkpoint_every=ckpt_every or (4096 if ckpt_path else None),
                batch_size=batch_size,
            )
            cls = ResumableRun
            if self_heal:
                from repro.lifecycle import SelfHealingRun

                cls = SelfHealingRun
                kwargs.update(faults=faults or (), store_dir=model_store)
            if resume_from and Path(resume_from).exists():
                try:
                    run = cls.resume(
                        elsa, load_checkpoint(resume_from), **kwargs
                    )
                except ValueError as exc:
                    return _resume_error(resume_from, exc)
                _emit(
                    f"resumed from {resume_from} at record "
                    f"{run.predictor.n_records_fed}"
                    + (f" on model v{run.manager.active_version}"
                       if self_heal else "")
                )
            else:
                run = cls(elsa, args.t_start, t_end, **kwargs)
            predictor = run.predictor
            if self_heal:
                # the lifecycle loop attaches its own scoreboard and
                # drift detector
                scoreboard = run.scoreboard
            else:
                if faults is not None:
                    from repro.prediction.scoreboard import OnlineScoreboard

                    scoreboard = OnlineScoreboard(faults=faults)
                    predictor.attach_scoreboard(scoreboard)
                if server is not None:
                    predictor.attach_drift_detector()
            # ``ResumableRun`` bypasses ``make_stream``, so apply the
            # hardened-ingestion gate here for parity with the batch
            # path.
            predictions = run.run(elsa._sanitize(records))
            if self_heal:
                _emit(run.summary())
            tripped = predictor.breakers.tripped()
            if tripped:
                _emit(f"circuit breakers tripped during run: {tripped}")
        else:
            # explicit stream + predictor (rather than ``elsa.predict``)
            # so the flight recorder stays reachable afterwards
            stream = elsa.make_stream(records, args.t_start, t_end)
            predictor = elsa.streaming_predictor(args.t_start, t_end)
            if faults is not None:
                from repro.prediction.scoreboard import OnlineScoreboard

                scoreboard = OnlineScoreboard(faults=faults)
                predictor.attach_scoreboard(scoreboard)
            predictions = predictor.run(stream)
            tripped = []
        out = {"predictions": [p.to_dict() for p in predictions]}
        Path(args.out).write_text(json.dumps(out, indent=1))
        _emit(f"{len(predictions)} predictions written to {args.out}")
        if scoreboard is not None:
            _emit(scoreboard.summary())
        prov_out = getattr(args, "provenance_out", None)
        if prov_out:
            with Path(prov_out).open("w") as fh:
                n = predictor.flight_recorder.dump_jsonl(fh)
            dropped = predictor.flight_recorder.dropped
            note = f" ({dropped} older dropped from ring)" if dropped else ""
            _emit(f"{n} provenance records written to {prov_out}{note}")
    finally:
        if profiler is not None:
            profiler.stop()
        _stop_telemetry(server, args)
    rc = _degraded_exit(elsa)
    if rc == 0 and tripped:
        rc = EXIT_DEGRADED
    return rc


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``evaluate``: score a predictions file against ground truth."""
    predictions = load_predictions(Path(args.predictions))
    truth = json.loads(Path(args.truth).read_text())
    faults = [_fault_from_dict(d) for d in truth["faults"]]
    window = [
        f for f in faults
        if args.t_start <= f.fail_time
        and (args.t_end is None or f.fail_time < args.t_end)
    ]
    result = evaluate_predictions(predictions, window)
    _emit(result.summary())
    for cat, stats in sorted(result.per_category.items()):
        _emit(f"  {cat:<12} {stats.n_predicted:4d}/{stats.n_faults:<4d} "
              f"({stats.recall:.0%})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: end-to-end synthetic run with a summary."""
    scenario = _scenario(args)
    elsa = ELSA(scenario.machine)
    model = elsa.fit(scenario.records, t_train_end=scenario.train_end)
    predictions = elsa.predict(
        scenario.records, scenario.train_end, scenario.t_end
    )
    result = evaluate_predictions(predictions, scenario.test_faults)
    _emit(f"system      : {scenario.name}")
    _emit(f"records     : {len(scenario.records)}")
    _emit(f"event types : {model.n_types}")
    _emit(f"chains      : {len(model.chains)} "
          f"({len(model.predictive_chains)} predictive)")
    _emit(f"precision   : {result.precision:.1%}")
    _emit(f"recall      : {result.recall:.1%}")
    for cat, stats in sorted(result.per_category.items()):
        _emit(f"  {cat:<12} {stats.n_predicted:4d}/{stats.n_faults:<4d} "
              f"({stats.recall:.0%})")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: multi-tenant supervised serving over one stream.

    Generates a synthetic scenario, fits the offline phase once, and
    serves the test window through a :class:`repro.fleet.Fleet`: one
    shard per tenant (``--tenants N`` hash-buckets node locations;
    ``--rack-sharding`` keys by rack-midplane subtree instead), bounded
    per-tenant queues, and the shard supervisor's crash-restart /
    backoff / quarantine policy.  ``--kill TENANT:AFTER`` injects a
    chaos kill once that shard's cursor crosses ``AFTER`` records — the
    CLI face of the fleet chaos matrix.  ``--listen`` exposes
    ``/fleet`` (plus the usual endpoints) while the fleet runs.

    Exit status: 0 healthy, :data:`EXIT_DEGRADED` when any shard ended
    quarantined or records were dead-lettered/shed.
    """
    import tempfile

    from repro.fleet import Fleet, ShardState

    scenario, test, key, tenants = _scenario_test_records(args)
    elsa = ELSA(scenario.machine)
    elsa.fit(scenario.records, t_train_end=scenario.train_end)
    if args.model_out:
        # the pristine fitted pipeline (shards deep-copy it, so this
        # is exactly what `postmortem --replay` needs later)
        with Path(args.model_out).open("wb") as fh:
            pickle.dump(elsa, fh)
        _emit(f"model saved to {args.model_out}")
    server = _start_telemetry(args)
    ckpt_dir = args.checkpoint_dir
    tmp = None
    if ckpt_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="elsa-fleet-")
        ckpt_dir = tmp.name
    try:
        fleet = Fleet.build(
            elsa, tenants, scenario.train_end, scenario.t_end, key,
            ckpt_dir, policy=_fleet_policy(args),
            faults=list(scenario.ground_truth),
            self_heal=args.self_heal,
        )
        if args.incident_dir:
            fleet.bind_forensics(args.incident_dir)
            _emit(f"incident bundles -> {args.incident_dir}")
        kills = []
        for spec in args.kill or ():
            tenant, _, after = spec.partition(":")
            if tenant not in fleet.shards:
                print(f"error: unknown tenant {tenant!r} "
                      f"(tenants: {', '.join(tenants[:8])}...)",
                      file=sys.stderr)
                return 2
            kills.append((tenant, int(after) if after else 0))
        for tenant, after in kills:
            fleet.kill(tenant, after_records=after)
        predictions = fleet.run(test)
        state = fleet.state()
        _emit(f"system      : {scenario.name}")
        _emit(f"tenants     : {len(tenants)} "
              f"({'rack subtree' if args.rack_sharding else 'hashed'})")
        _emit(f"records     : {len(test)} routed, "
              f"{state['router']['shed']} shed, "
              f"{state['router']['dead_lettered']} dead-lettered")
        n_preds = sum(len(p) for p in predictions.values())
        _emit(f"predictions : {n_preds}")
        quarantined = []
        restarts = 0
        for tenant in tenants:
            info = state["shards"][tenant]
            restarts += info["restarts"]
            if info["state"] == ShardState.QUARANTINED.value:
                quarantined.append(tenant)
        _emit(f"supervision : {restarts} restarts, "
              f"{len(quarantined)} quarantined"
              + (f" ({', '.join(quarantined)})" if quarantined else ""))
        if args.incident_dir:
            inc = obs.get_incident_manager().state()
            _emit(f"incidents   : {inc['total']} captured, "
                  f"{inc['failed']} failed, {inc['skipped']} skipped"
                  + (f" (last: {inc['last_bundle']})"
                     if inc["last_bundle"] else ""))
        if args.verbose:
            for tenant in tenants:
                info = state["shards"][tenant]
                _emit(f"  {tenant:<10} {info['state']:<11}"
                      f" fed={info['records_fed']:<7}"
                      f" preds={info['predictions'] or 0:<4}"
                      f" restarts={info['restarts']}"
                      f" shed={info['shed']}")
        if args.out:
            doc = {
                "tenants": {
                    t: [p.to_dict() for p in predictions[t]]
                    for t in tenants
                },
                "fleet": state,
            }
            Path(args.out).write_text(json.dumps(doc, default=str) + "\n")
            _emit(f"predictions written to {args.out}")
        degraded = bool(
            quarantined
            or state["router"]["shed"]
            or state["router"]["dead_lettered"]
        )
        return EXIT_DEGRADED if degraded else 0
    finally:
        # linger (if any) happens before close: /fleet and the
        # dashboard's fleet view stay live for post-run scrapes
        _stop_telemetry(server, args)
        from repro.fleet import get_active_fleet

        if get_active_fleet() is not None:
            get_active_fleet().close()
        if tmp is not None:
            tmp.cleanup()


def _tenant_key(args: argparse.Namespace):
    """The location -> tenant key ``--tenants/--rack-sharding`` name."""
    from repro.fleet import hashed_tenant_key, rack_subtree_key

    if args.rack_sharding:
        return rack_subtree_key(depth=2)
    return hashed_tenant_key(args.tenants)


def _fleet_policy(args: argparse.Namespace):
    """The shard policy of ``fleet`` and ``serve``."""
    from repro.fleet import FleetPolicy

    return FleetPolicy(
        queue_capacity=args.queue_capacity,
        chunk_records=args.chunk_records,
        checkpoint_every=args.checkpoint_every,
    )


def _scenario_test_records(args: argparse.Namespace):
    """(scenario, test records, tenant key, tenants) for fleet/serve/feed.

    Both sides of the wire derive the stream from the same
    ``--system/--days/--seed`` so the network run can be compared
    byte-for-byte against the in-process ``fleet`` run — reading the
    written log file instead would round timestamps through the text
    format's ``%.3f`` and break the identity.
    """
    scenario = _scenario(args)
    test = [
        r for r in scenario.records if r.timestamp >= scenario.train_end
    ]
    key = _tenant_key(args)
    tenants = sorted({key(r.location) for r in test})
    return scenario, test, key, tenants


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the network ingest frontend over a fleet.

    Fits the offline phase from the scenario seed, builds one shard
    per tenant, and serves the ingest API (``POST /ingest/<tenant>``
    NDJSON batches, ``GET /predictions/<tenant>``, ``/tenants``,
    ``POST /seal/<tenant>``) plus every telemetry endpoint on
    ``--listen``, pumping the fleet from the main loop until SIGTERM/
    SIGINT — then the graceful drain: admission stops (503s), queues
    pump dry, every tenant checkpoints, the idempotency ledger
    persists.  ``--resume`` adopts the checkpoints + ledger a previous
    incarnation left in ``--checkpoint-dir``.

    Exit status: 0 clean drain, :data:`EXIT_DEGRADED` when any tenant
    ended quarantined or records were shed/dead-lettered.
    """
    import signal
    import tempfile
    import threading

    from repro.fleet import Fleet
    from repro.fleet.ingest import IngestAPI, IngestConfig, IngestServer
    from repro.obs.live import parse_listen

    scenario, test, key, tenants = _scenario_test_records(args)
    elsa = ELSA(scenario.machine)
    elsa.fit(scenario.records, t_train_end=scenario.train_end)

    ckpt_dir = args.checkpoint_dir
    tmp = None
    if ckpt_dir is None:
        if args.resume:
            print("error: --resume needs --checkpoint-dir",
                  file=sys.stderr)
            return 2
        tmp = tempfile.TemporaryDirectory(prefix="elsa-serve-")
        ckpt_dir = tmp.name
    host, port = parse_listen(args.listen)
    stop = threading.Event()

    def _graceful(signum, frame):
        stop.set()

    old_term = signal.signal(signal.SIGTERM, _graceful)
    old_int = signal.signal(signal.SIGINT, _graceful)
    fleet = None
    server = None
    try:
        try:
            fleet = Fleet.build(
                elsa, tenants, scenario.train_end, scenario.t_end, key,
                ckpt_dir, policy=_fleet_policy(args),
                faults=list(scenario.ground_truth),
                self_heal=args.self_heal,
                resume=args.resume,
            )
        except ValueError as exc:
            if not args.resume:
                raise
            return _resume_error(ckpt_dir, exc)
        api = IngestAPI(
            fleet,
            config=IngestConfig(
                max_batch_records=args.max_batch_records,
                admission_rate=args.admission_rate,
                admission_capacity=max(
                    args.admission_rate, 2.0 * args.max_batch_records
                ),
            ),
            ledger_path=Path(ckpt_dir) / "ingest-ledger.json",
            resume=args.resume,
        )
        server = IngestServer(
            api, host=host, port=port,
            request_timeout_seconds=args.request_timeout,
        ).start()
        resumed = sum(
            1 for s in fleet.shards.values() if s.records_fed > 0
        )
        _emit(f"ingest listening on {server.url} "
              f"({len(tenants)} tenants, window "
              f"[{scenario.train_end:.0f}, {scenario.t_end:.0f})"
              + (f", {resumed} resumed" if args.resume else "") + ")")
        deadline = (
            None if args.max_runtime is None
            else time.monotonic() + args.max_runtime
        )
        while not stop.is_set():
            api.pump_once()
            if deadline is not None and time.monotonic() >= deadline:
                _emit("max runtime reached; draining")
                break
            stop.wait(args.pump_interval)
        summary = api.drain()
        _emit(f"drained     : {summary['routed']} routed, "
              f"{summary['checkpointed']} tenants checkpointed, "
              f"{summary['shed']} shed, "
              f"{summary['dead_lettered']} dead-lettered, "
              f"{len(summary['quarantined'])} quarantined")
        return EXIT_DEGRADED if summary["degraded"] else 0
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        if server is not None:
            server.stop()
        if fleet is not None:
            fleet.close()
        if tmp is not None:
            tmp.cleanup()


def cmd_feed(args: argparse.Namespace) -> int:
    """``feed``: drive a ``serve`` frontend through the ingest client.

    Derives the same test stream as the server (``--system/--days/
    --seed``) or reads ``--log``, partitions it per tenant with the
    same keying, and delivers it in idempotent sequenced batches with
    bounded retries — optionally through the wire-chaos transport
    (``--chaos-*`` flags) that drops, duplicates, reorders, truncates
    and stalls requests.  ``--seal`` closes every touched tenant and
    ``--predictions-out`` saves the returned predictions in the same
    ``{"tenants": {...}}`` shape ``fleet --out`` writes, so the two
    can be diffed byte-for-byte.
    """
    import urllib.parse as _url

    from repro.fleet.client import (
        ClientError, HTTPTransport, IngestClient, IngestGaveUp,
    )

    split = _url.urlsplit(args.url)
    if not split.hostname or not split.port:
        print(f"error: --url wants http://HOST:PORT, got {args.url!r}",
              file=sys.stderr)
        return 2
    if args.log:
        records = _read_records(args.log, "text")
        if args.t_start is not None:
            records = [r for r in records if r.timestamp >= args.t_start]
        if args.t_end is not None:
            records = [r for r in records if r.timestamp < args.t_end]
        key = _tenant_key(args)
    else:
        _, records, key, _ = _scenario_test_records(args)

    http_transport = transport = HTTPTransport(
        split.hostname, split.port, timeout=args.timeout
    )
    chaos_rates = (
        args.chaos_drop, args.chaos_drop_response, args.chaos_dup,
        args.chaos_reorder, args.chaos_truncate, args.chaos_stall,
    )
    if any(rate > 0 for rate in chaos_rates):
        from repro.resilience.wire import ChaosTransport

        transport = ChaosTransport(
            transport,
            drop_request_rate=args.chaos_drop,
            drop_response_rate=args.chaos_drop_response,
            duplicate_rate=args.chaos_dup,
            reorder_rate=args.chaos_reorder,
            truncate_rate=args.chaos_truncate,
            stall_rate=args.chaos_stall,
            stall_seconds=args.chaos_stall_seconds,
            seed=args.chaos_seed,
        )
        _emit(f"wire chaos armed (seed {args.chaos_seed}): "
              f"drop={args.chaos_drop:g} "
              f"drop_resp={args.chaos_drop_response:g} "
              f"dup={args.chaos_dup:g} reorder={args.chaos_reorder:g} "
              f"truncate={args.chaos_truncate:g} "
              f"stall={args.chaos_stall:g}")
    client = IngestClient(
        transport,
        stream_id=args.stream_id,
        max_attempts=args.max_attempts,
        seed=args.seed,
    )
    touched = sorted({key(r.location) for r in records})
    try:
        stats = client.feed(records, key, batch_size=args.batch_size)
        payloads = {}
        if args.seal or args.predictions_out:
            for tenant in touched:
                payloads[tenant] = client.seal(tenant)
    except (ClientError, IngestGaveUp) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        http_transport.close()
    _emit(f"fed         : {stats['records']} records in "
          f"{stats['batches']} batches to {len(touched)} tenants")
    _emit(f"resilience  : {stats['retries']} retries, "
          f"{stats['duplicates']} duplicate acks, "
          f"{stats['throttled']} throttled, "
          f"{stats['resyncs']} resyncs")
    chaos_injected = getattr(transport, "injected", None)
    if chaos_injected:
        _emit("chaos       : " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(chaos_injected.items())
        ))
    if payloads:
        n_preds = sum(p["count"] for p in payloads.values())
        _emit(f"predictions : {n_preds} across "
              f"{len(payloads)} sealed tenants")
    if args.predictions_out:
        doc = {
            "tenants": {
                t: payloads[t]["predictions"] for t in sorted(payloads)
            },
        }
        Path(args.predictions_out).write_text(
            json.dumps(doc, default=str) + "\n"
        )
        _emit(f"predictions written to {args.predictions_out}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """``reproduce``: the headline paper tables as a markdown report."""
    from repro.reporting import full_reproduction_report

    report = full_reproduction_report(duration_days=args.days,
                                      seed=args.seed)
    if args.out:
        Path(args.out).write_text(report + "\n")
        _emit(f"report written to {args.out}")
    else:
        _emit(report)
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """``monitor``: serve a ``--metrics-out`` dump over HTTP.

    Re-reads the file on every request, so pointing it at a dump that a
    concurrent run keeps rewriting gives a poor-man's live dashboard.
    """
    from repro.obs.live import TelemetryServer, parse_listen

    path = Path(args.metrics)
    try:
        json.loads(path.read_text())
    except OSError as exc:
        print(f"error: cannot read metrics dump: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.metrics} is not a metrics dump: {exc}",
              file=sys.stderr)
        return 1

    def state_fn() -> dict:
        return json.loads(path.read_text())

    try:
        host, port = parse_listen(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = TelemetryServer(host=host, port=port, state_fn=state_fn)
    server.start()
    _emit(f"telemetry listening on {server.url} (serving {args.metrics})")
    try:
        if args.linger is not None:
            time.sleep(args.linger)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: render ``--provenance-out`` audit records."""
    from repro.obs.provenance import load_jsonl, render_record

    try:
        records = load_jsonl(args.provenance)
    except OSError as exc:
        print(f"error: cannot read provenance file: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        _emit("no provenance records")
        return 0
    if args.index is not None:
        if not 0 <= args.index < len(records):
            print(
                f"error: --index {args.index} out of range "
                f"(0..{len(records) - 1})",
                file=sys.stderr,
            )
            return 2
        chosen = [(args.index, records[args.index])]
    else:
        chosen = list(enumerate(records))
    event_name = None
    if getattr(args, "model", None):
        with Path(args.model).open("rb") as fh:
            elsa: ELSA = pickle.load(fh)
        if elsa.model is not None:
            event_name = elsa.model.event_name
    for i, rec in chosen:
        _emit(render_record(rec, index=i, event_name=event_name))
    return 0


def _postmortem_timeline(bundle: dict) -> List[str]:
    """Merge a bundle's evidence into one causally-ordered timeline.

    Supervisor events, history annotations and SLO alert transitions
    all carry stream timestamps; provenance exemplars anchor the trace
    ids.  Sorting the union by time reconstructs the incident story.
    """
    events: List[tuple] = []
    for ev in bundle.get("supervisor_events", []):
        detail = ev.get("detail", {})
        extra = ", ".join(
            f"{k}={v}" for k, v in sorted(detail.items())
        )
        events.append((
            float(ev.get("t", 0.0)), "supervisor",
            f"{ev.get('kind', '?')} tenant={ev.get('tenant', '?')}"
            + (f" ({extra})" if extra else ""),
        ))
    for ev in (bundle.get("history") or {}).get("events", []):
        if isinstance(ev, (list, tuple)) and len(ev) >= 2:
            t, kind = ev[0], ev[1]
            detail = ev[2] if len(ev) > 2 else {}
        elif isinstance(ev, dict):
            t, kind = ev.get("t", 0.0), ev.get("kind", "?")
            detail = ev.get("detail", {})
        else:
            continue
        extra = ", ".join(
            f"{k}={v}" for k, v in sorted(dict(detail or {}).items())
        )
        events.append((
            float(t), "annotation",
            str(kind) + (f" ({extra})" if extra else ""),
        ))
    for slo in (bundle.get("alerts") or {}).get("slos", []):
        for tr in slo.get("transitions", []):
            events.append((
                float(tr.get("t", 0.0)), "slo",
                f"{slo.get('name', '?')}: "
                f"{tr.get('from', '?')} -> {tr.get('to', '?')}",
            ))
    for prov in bundle.get("provenance", [])[-8:]:
        t = prov.get("emitted_at")
        if t is None:
            continue
        events.append((
            float(t), "prediction",
            f"locations={','.join(prov.get('locations', []))}"
            f" lead={prov.get('lead_time')}"
            + (f" trace={prov['trace_id']}"
               if prov.get("trace_id") else ""),
        ))
    events.sort(key=lambda e: (e[0], e[1]))
    return [f"  {t:12.1f}  {src:<10} {msg}" for t, src, msg in events]


def cmd_postmortem(args: argparse.Namespace) -> int:
    """``postmortem``: list, inspect and replay incident bundles.

    ``--dir`` lists every retained bundle's manifest; ``--bundle``
    renders one bundle's merged causal timeline (supervisor events,
    SLO transitions, history annotations, provenance exemplars on the
    shared stream clock); add ``--replay --model MODEL`` to re-feed the
    captured record window through a fresh pipeline and verify the
    recorded predictions reproduce byte-for-byte (exit 0) or not
    (exit :data:`EXIT_DEGRADED`); a bundle replay cannot read (another
    bundle version) exits 1.
    """
    from repro.obs.forensics import (
        MANIFEST, load_bundle, replay_bundle,
    )

    if not args.bundle and not args.dir:
        print("error: postmortem needs --dir or --bundle", file=sys.stderr)
        return 2
    if args.replay and not args.bundle:
        print("error: --replay needs --bundle", file=sys.stderr)
        return 2
    if args.replay and not args.model:
        print("error: --replay needs --model (a fitted pipeline pickle, "
              "e.g. fleet --model-out)", file=sys.stderr)
        return 2

    if not args.bundle:
        root = Path(args.dir)
        manifests = []
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            mf = sub / MANIFEST
            if not mf.exists():
                continue
            try:
                m = json.loads(mf.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            m["path"] = str(sub)
            manifests.append(m)
        if getattr(args, "json", False):
            _emit(json.dumps({"bundles": manifests}, indent=1,
                             default=_json_default))
            return 0
        if not manifests:
            _emit(f"no incident bundles under {root}")
            return 0
        _emit(f"{len(manifests)} incident bundle(s) under {root}:")
        for m in manifests:
            _emit(f"  {m.get('id', '?'):<28} {m.get('kind', '?'):<18}"
                  f" tenant={m.get('tenant') or '-':<8}"
                  f" records={m.get('records', 0):<6}"
                  f" t={m.get('stream_time')}")
        return 0

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read bundle: {exc}", file=sys.stderr)
        return 1
    manifest = bundle["manifest"]
    if getattr(args, "json", False) and not args.replay:
        _emit(json.dumps(bundle, indent=1, default=_json_default))
        return 0
    _emit(f"== incident {manifest.get('id', '?')} ==")
    _emit(f"kind     : {manifest.get('kind', '?')}"
          f" (trigger: {json.dumps(manifest.get('trigger'))})")
    _emit(f"tenant   : {manifest.get('tenant') or '-'}")
    _emit(f"stream t : {manifest.get('stream_time')}")
    _emit(f"trace    : {manifest.get('trace_id') or '-'}")
    if manifest.get("runbook"):
        _emit(f"runbook  : {manifest['runbook']}")
    _emit(f"window   : {manifest.get('records', 0)} records, "
          f"cursor={manifest.get('cursor')}, "
          f"{manifest.get('predictions', 0)} predictions")
    _emit("")
    _emit("timeline:")
    lines = _postmortem_timeline(bundle)
    _emit("\n".join(lines) if lines else "  (no timeline events)")
    if not args.replay:
        return 0

    with Path(args.model).open("rb") as fh:
        elsa: ELSA = pickle.load(fh)
    try:
        result = replay_bundle(args.bundle, elsa,
                               chunk_records=args.chunk_records)
    except ValueError as exc:
        print(f"error: cannot replay bundle: {exc}", file=sys.stderr)
        return 1
    _emit("")
    _emit(f"replay   : {result['records_replayed']} records "
          f"({'from checkpoint' if result['from_checkpoint'] else 'fresh'})"
          f" as {result['trace_id']}"
          f" (parent {result['parent_trace_id'] or '-'})")
    _emit(f"verdict  : "
          + ("IDENTICAL — "
             f"{result['replayed_predictions']} predictions reproduced "
             "byte-for-byte"
             if result["identical"] else
             f"DIVERGED at prediction {result['first_divergence']} "
             f"(recorded {result['recorded_predictions']}, "
             f"replayed {result['replayed_predictions']})"))
    if getattr(args, "json", False):
        _emit(json.dumps(result, indent=1, default=_json_default))
    return 0 if result["identical"] else EXIT_DEGRADED


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: summarize an observability dump as tables (or JSON)."""
    from repro.reporting import observability_json, render_observability

    try:
        data = json.loads(Path(args.metrics).read_text())
    except OSError as exc:
        print(f"error: cannot read metrics dump: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.metrics} is not a metrics dump: {exc}",
              file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        _emit(json.dumps(observability_json(data), indent=1,
                         default=_json_default))
    else:
        _emit(render_observability(data))
    return 0


# ---------------------------------------------------------------------------
# dashboard
# ---------------------------------------------------------------------------

#: eight-level bar for terminal sparklines.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[Optional[float]]) -> str:
    """Render a value series as a unicode sparkline (gaps for ``None``)."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for v in values:
        if v is None:
            chars.append(" ")
        elif span > 0:
            chars.append(
                _SPARK_CHARS[int((v - lo) / span * (len(_SPARK_CHARS) - 1))]
            )
        else:
            chars.append(_SPARK_CHARS[len(_SPARK_CHARS) // 2])
    return "".join(chars)


def _fetch_json(base: str, path: str) -> dict:
    """GET ``base + path`` from a telemetry server, parsed as JSON."""
    import urllib.request

    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _spark_points(points: List) -> List[Optional[float]]:
    """History points -> sparkline values (histograms plot their count)."""
    out: List[Optional[float]] = []
    for _, payload in points[-48:]:
        if isinstance(payload, (list, tuple)):
            out.append(float(payload[0]) if payload else None)
        else:
            out.append(float(payload) if payload is not None else None)
    return out


def render_dashboard(base: str) -> str:
    """One dashboard frame: health, SLO table, sparklines, top stages."""
    health = _fetch_json(base, "/health")
    alerts = _fetch_json(base, "/alerts")
    profile = _fetch_json(base, "/profile")
    lines = [f"== elsa telemetry dashboard — {base} =="]
    status = health.get("status", "?")
    reasons = ", ".join(health.get("reasons", ()))
    lines.append(f"health: {status}" + (f" ({reasons})" if reasons else ""))
    lines += ["", "SLOs:"]
    slos = alerts.get("slos", [])
    if not slos:
        lines.append("  (no SLOs configured)")
    for slo in slos:
        fast = slo.get("fast")
        slow = slo.get("slow")

        def _num(v):
            return f"{v:.4g}" if isinstance(v, (int, float)) else "—"

        lines.append(
            f"  {slo['name']:<22} {slo.get('state', '?'):<9}"
            f" fast={_num(fast):<8} slow={_num(slow):<8}"
            f" threshold={_num(slo.get('threshold'))}"
        )
        try:
            query = _fetch_json(
                base,
                f"/query?metric={slo['metric']}"
                f"&window={slo.get('slow_window', 1800)}",
            )
        except Exception:
            continue  # metric not sampled yet: row stands without a spark
        spark = _sparkline(_spark_points(query.get("points", [])))
        if spark:
            lines.append(f"    {slo['metric']:<20} {spark}")
    firing = alerts.get("firing", [])
    if firing:
        lines.append(f"  FIRING: {', '.join(firing)}")
    lines += ["", "Top stages (profiler self time):"]
    stages = profile.get("stages", {})
    if not stages:
        running = profile.get("running", False)
        lines.append(
            "  (no profile samples"
            + ("" if running else "; profiler not running")
            + ")"
        )
    else:
        rows = sorted(
            stages.items(),
            key=lambda kv: (-kv[1].get("self_seconds", 0.0), kv[0]),
        )
        for name, vals in rows[:8]:
            lines.append(
                f"  {name:<22} self={vals.get('self_seconds', 0.0):8.3f}s"
                f"  total={vals.get('total_seconds', 0.0):8.3f}s"
            )
        frac = profile.get("attributed_fraction")
        if frac is not None:
            lines.append(f"  attributed: {frac:.1%} of sampled wall time")
    try:
        fleet = _fetch_json(base, "/fleet")
    except Exception:
        fleet = None  # older server without the endpoint: omit the view
    if fleet and fleet.get("active"):
        lines += ["", f"Fleet ({fleet.get('tenants', 0)} tenants, "
                      f"{fleet.get('records_routed', 0)} routed):"]
        shards = fleet.get("shards", {})
        for tenant in sorted(shards):
            info = shards[tenant]
            flags = []
            if info.get("restarts"):
                flags.append(f"restarts={info['restarts']}")
            if info.get("shed"):
                flags.append(f"shed={info['shed']}")
            if info.get("last_error"):
                flags.append(info["last_error"])
            lines.append(
                f"  {tenant:<12} {info.get('state', '?'):<11}"
                f" q={info.get('queue_depth', 0):<6}"
                f" fed={info.get('records_fed', 0):<8}"
                + ("  " + " ".join(flags) if flags else "")
            )
        router = fleet.get("router", {})
        lines.append(
            f"  router: {router.get('accepted', 0)} accepted, "
            f"{router.get('shed', 0)} shed, "
            f"{router.get('dead_lettered', 0)} dead-lettered"
        )
        events = (fleet.get("supervision") or {}).get("events", [])
        for ev in events[-4:]:
            lines.append(
                f"  event: {ev.get('kind', '?'):<10} "
                f"tenant={ev.get('tenant', '?')}"
            )
    try:
        incidents = _fetch_json(base, "/incidents")
    except Exception:
        incidents = None  # older server without the endpoint: omit
    if incidents and (incidents.get("armed") or incidents.get("triggers")):
        lines += ["", f"Incidents ({incidents.get('active', 0)} retained, "
                      f"{incidents.get('triggers', 0)} triggers, "
                      f"{incidents.get('failed', 0)} failed):"]
        for m in incidents.get("incidents", [])[-4:]:
            lines.append(
                f"  {m.get('id', '?'):<26} {m.get('kind', '?'):<16}"
                f" tenant={m.get('tenant') or '-':<8}"
                f" t={m.get('stream_time')}"
            )
        if not incidents.get("incidents"):
            lines.append("  (no bundles captured)")
    return "\n".join(lines)


def cmd_dashboard(args: argparse.Namespace) -> int:
    """``dashboard``: render a live telemetry server in the terminal.

    Polls ``/health``, ``/alerts``, ``/profile`` and ``/query`` on a
    running ``--listen`` server and prints an SLO status table, metric
    sparklines and the profiler's top stages.  One frame by default;
    ``--iterations N --refresh S`` watches continuously (``--iterations
    0`` = forever).
    """
    from urllib.error import URLError

    base = args.url.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base
    i = 0
    while True:
        try:
            frame = render_dashboard(base)
        except (URLError, OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot reach telemetry server at {base}: {exc}",
                  file=sys.stderr)
            return 1
        _emit(frame)
        i += 1
        if args.iterations and i >= args.iterations:
            return 0
        try:
            time.sleep(args.refresh)
        except KeyboardInterrupt:
            return 0
        _emit("")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_global_options(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """Observability flags, valid before *or* after the subcommand.

    Subparser copies use ``SUPPRESS`` defaults so an unset flag never
    clobbers a value parsed from the main-parser position.
    """
    flag_default = argparse.SUPPRESS if suppress else False
    value_default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--metrics-out", dest="metrics_out", metavar="FILE",
        default=value_default,
        help="dump the metrics registry + span tree as JSON after the run",
    )
    parser.add_argument(
        "--log-level", dest="log_level",
        choices=("debug", "info", "warning", "error"),
        default=value_default,
        help="pipeline log level (also: ELSA_LOG_LEVEL env var)",
    )
    parser.add_argument(
        "--quiet", dest="quiet", action="store_true", default=flag_default,
        help="suppress human-readable console output",
    )


def _add_resilience_options(parser: argparse.ArgumentParser) -> None:
    """``--lenient``/``--strict`` pair for log-consuming subcommands.

    Strict (the default) raises on the first malformed line; lenient
    routes input through the hardened-ingestion path (skip + quarantine
    + reorder + dedupe) and the run exits with status
    :data:`EXIT_DEGRADED` when anything was dropped or repaired.
    """
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--lenient", dest="lenient", action="store_true", default=False,
        help="survive hostile input: skip malformed lines, sanitize the "
             "stream, exit 3 if the run degraded",
    )
    group.add_argument(
        "--strict", dest="lenient", action="store_false",
        help="fail fast on the first malformed line (default)",
    )


def _add_scenario_options(
    parser: argparse.ArgumentParser, days: float
) -> None:
    """``--system/--days/--seed``: the synthetic scenario to build."""
    parser.add_argument("--system", choices=("bluegene", "mercury"),
                        default="bluegene")
    parser.add_argument("--days", type=float, default=days)
    parser.add_argument("--seed", type=int, default=0)


def _add_tenant_options(
    parser: argparse.ArgumentParser,
    tenants_help: str = "shard locations into N stable hash buckets "
                        "(default 8)",
    rack_help: str = "shard by rack-midplane subtree instead of hash "
                     "buckets",
) -> None:
    """``--tenants N`` or ``--rack-sharding``: locations to tenants."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--tenants", type=int, default=8, metavar="N", help=tenants_help,
    )
    group.add_argument(
        "--rack-sharding", dest="rack_sharding", action="store_true",
        default=False, help=rack_help,
    )


def _add_shard_options(parser: argparse.ArgumentParser) -> None:
    """``--queue-capacity/--chunk-records/--checkpoint-every`` of each
    shard (see :func:`_fleet_policy`)."""
    parser.add_argument(
        "--queue-capacity", dest="queue_capacity", type=int, default=8192,
        metavar="N", help="bounded per-tenant ingest queue size",
    )
    parser.add_argument(
        "--chunk-records", dest="chunk_records", type=int, default=512,
        metavar="N", help="records per shard step (pump quantum)",
    )
    parser.add_argument(
        "--checkpoint-every", dest="checkpoint_every", type=int,
        default=2048, metavar="N",
        help="records between per-shard checkpoints",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``elsa-repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="elsa-repro",
        description="Hybrid HPC fault prediction (SC'12 reproduction).",
    )
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scenario")
    _add_scenario_options(p, days=3.0)
    p.add_argument("--log", required=True, help="output log file")
    p.add_argument("--truth", required=True, help="output ground-truth JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="train the offline phase on a log file")
    p.add_argument("--system", choices=("bluegene", "mercury"),
                   default="bluegene")
    p.add_argument("--log", required=True)
    p.add_argument("--format", choices=("text", "bgl"), default="text",
                   help="'bgl' reads the public Blue Gene/L RAS format")
    p.add_argument("--train-end", type=float, required=True,
                   dest="train_end")
    p.add_argument("--model", required=True, help="output model pickle")
    _add_resilience_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="run the online phase")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--format", choices=("text", "bgl"), default="text")
    p.add_argument("--t-start", type=float, required=True, dest="t_start")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--out", required=True, help="output predictions JSON")
    _add_resilience_options(p)
    p.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write the online state here periodically (crash recovery)",
    )
    p.add_argument(
        "--checkpoint-every", dest="checkpoint_every", type=int,
        metavar="N", default=None,
        help="records between checkpoints (default 4096 when enabled)",
    )
    p.add_argument(
        "--resume-from", dest="resume_from", metavar="FILE", default=None,
        help="resume a killed run from this checkpoint file",
    )
    p.add_argument(
        "--batch-size", dest="batch_size", type=int, metavar="N",
        default=None,
        help="records per feed chunk on the streaming engine (selects "
             "it when no checkpointing flag does; decouples feed "
             "granularity from --checkpoint-every)",
    )
    p.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve the telemetry endpoints (/metrics, /health, /state, "
             "/query, /alerts, /profile) over HTTP during the run "
             "(port 0 picks a free port)",
    )
    p.add_argument(
        "--profile", dest="profile", action="store_true",
        help="run the sampling stage profiler during the stream "
             "(per-stage self/total times on /profile and `dashboard`)",
    )
    p.add_argument(
        "--linger", type=float, metavar="SECONDS", default=0.0,
        help="keep the --listen server up this long after the run",
    )
    p.add_argument(
        "--truth", metavar="FILE", default=None,
        help="ground-truth JSON: score predictions in-stream on the "
             "online scoreboard",
    )
    p.add_argument(
        "--provenance-out", dest="provenance_out", metavar="FILE",
        default=None,
        help="dump per-prediction audit records as JSON lines",
    )
    p.add_argument(
        "--self-heal", dest="self_heal", action="store_true",
        help="run the model-lifecycle loop: shadow-retrain on drift or "
             "recall degradation, validate, and hot-swap (needs --truth "
             "for the validation gate to ever accept a candidate)",
    )
    p.add_argument(
        "--model-store", dest="model_store", metavar="DIR", default=None,
        help="directory for pickled model versions (lets a resumed run "
             "restore a hot-swapped model); implies --self-heal",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions vs ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="end-to-end synthetic run")
    _add_scenario_options(p, days=3.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "fleet",
        help="multi-tenant supervised serving: shard the test stream "
             "per tenant and run it through the fleet router/supervisor",
    )
    _add_scenario_options(p, days=1.5)
    _add_tenant_options(p)
    _add_shard_options(p)
    p.add_argument(
        "--checkpoint-dir", dest="checkpoint_dir", metavar="DIR",
        default=None,
        help="directory for per-shard checkpoints (default: a "
             "temporary directory removed on exit)",
    )
    p.add_argument(
        "--self-heal", dest="self_heal", action="store_true",
        help="run each shard on the self-healing lifecycle loop",
    )
    p.add_argument(
        "--kill", action="append", metavar="TENANT[:AFTER]", default=None,
        help="chaos: crash TENANT's shard once its cursor passes AFTER "
             "records (default 0 = first step); repeatable",
    )
    p.add_argument(
        "--incident-dir", dest="incident_dir", metavar="DIR", default=None,
        help="arm incident forensics: SLO firings and shard "
             "quarantines/restarts freeze evidence bundles here "
             "(inspect them with `postmortem`)",
    )
    p.add_argument(
        "--model-out", dest="model_out", metavar="FILE", default=None,
        help="pickle the fitted pipeline (what `postmortem --replay "
             "--model` needs to re-run a bundle)",
    )
    p.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve the telemetry endpoints incl. /fleet during the run "
             "(port 0 picks a free port)",
    )
    p.add_argument(
        "--linger", type=float, metavar="SECONDS", default=0.0,
        help="keep the --listen server up this long after the run",
    )
    p.add_argument(
        "--out", default=None,
        help="write per-tenant predictions + fleet state as JSON",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print the per-tenant shard table",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="network ingest frontend: serve POST /ingest/<tenant> + "
             "GET /predictions/<tenant> over a supervised fleet until "
             "SIGTERM, then drain gracefully",
    )
    _add_scenario_options(p, days=1.5)
    _add_tenant_options(p)
    p.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:0",
        help="bind address for the ingest + telemetry endpoints "
             "(default 127.0.0.1:0 = free port, printed on startup)",
    )
    p.add_argument(
        "--checkpoint-dir", dest="checkpoint_dir", metavar="DIR",
        default=None,
        help="directory for per-shard checkpoints + the idempotency "
             "ledger (default: temporary; required for --resume)",
    )
    p.add_argument(
        "--resume", action="store_true", default=False,
        help="adopt the checkpoints and ingest ledger a drained "
             "server left in --checkpoint-dir",
    )
    _add_shard_options(p)
    p.add_argument(
        "--max-batch-records", dest="max_batch_records", type=int,
        default=8192, metavar="N",
        help="largest NDJSON batch one POST may carry (413 above)",
    )
    p.add_argument(
        "--admission-rate", dest="admission_rate", type=float,
        default=50000.0, metavar="RECORDS_PER_SEC",
        help="token-bucket refill at full queue headroom; refill "
             "scales down with live queue depth, 429 + Retry-After "
             "past it",
    )
    p.add_argument(
        "--request-timeout", dest="request_timeout", type=float,
        default=30.0, metavar="SECONDS",
        help="per-connection socket timeout (slowloris guard; "
             "counted in telemetry.request_timeouts); also closes a "
             "keep-alive connection idle this long, uncounted",
    )
    p.add_argument(
        "--pump-interval", dest="pump_interval", type=float,
        default=0.02, metavar="SECONDS",
        help="sleep between fleet pump passes in the serve loop",
    )
    p.add_argument(
        "--max-runtime", dest="max_runtime", type=float, default=None,
        metavar="SECONDS",
        help="drain and exit after this long even without a signal "
             "(smoke tests)",
    )
    p.add_argument(
        "--self-heal", dest="self_heal", action="store_true",
        help="run each shard on the self-healing lifecycle loop",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "feed",
        help="drive a `serve` frontend through the resilient ingest "
             "client (idempotent batches, retries, optional wire chaos)",
    )
    p.add_argument("--url", required=True,
                   help="base URL printed by `serve` "
                        "(e.g. http://127.0.0.1:9200)")
    _add_scenario_options(p, days=1.5)
    p.add_argument(
        "--log", default=None, metavar="FILE",
        help="feed this text log instead of regenerating the scenario "
             "(note: the text format rounds timestamps to 1ms, so "
             "byte-identity checks against an in-process run must use "
             "scenario mode)",
    )
    p.add_argument("--t-start", type=float, default=None, dest="t_start",
                   help="with --log: drop records before this time")
    p.add_argument("--t-end", type=float, default=None, dest="t_end",
                   help="with --log: drop records at/after this time")
    _add_tenant_options(
        p,
        tenants_help="tenant hash buckets — must match the server's",
        rack_help="rack-subtree keying — must match the server's",
    )
    p.add_argument(
        "--batch-size", dest="batch_size", type=int, default=256,
        metavar="N", help="records per POST batch",
    )
    p.add_argument(
        "--stream-id", dest="stream_id", default="s0", metavar="ID",
        help="idempotency stream id (sequence numbers are per "
             "tenant+stream)",
    )
    p.add_argument(
        "--max-attempts", dest="max_attempts", type=int, default=8,
        metavar="N", help="transport-failure retry budget per batch",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-request HTTP timeout",
    )
    p.add_argument(
        "--seal", action="store_true", default=False,
        help="seal every touched tenant after feeding (final sorted "
             "predictions)",
    )
    p.add_argument(
        "--predictions-out", dest="predictions_out", metavar="FILE",
        default=None,
        help="write sealed per-tenant predictions as JSON (same "
             "'tenants' shape as `fleet --out`; implies --seal)",
    )
    p.add_argument("--chaos-drop", dest="chaos_drop", type=float,
                   default=0.0, metavar="RATE",
                   help="wire chaos: drop requests at this rate")
    p.add_argument("--chaos-drop-response", dest="chaos_drop_response",
                   type=float, default=0.0, metavar="RATE",
                   help="wire chaos: deliver but drop the response "
                        "(the at-least-once hazard)")
    p.add_argument("--chaos-dup", dest="chaos_dup", type=float,
                   default=0.0, metavar="RATE",
                   help="wire chaos: duplicate requests")
    p.add_argument("--chaos-reorder", dest="chaos_reorder", type=float,
                   default=0.0, metavar="RATE",
                   help="wire chaos: redeliver a stale copy before the "
                        "next request")
    p.add_argument("--chaos-truncate", dest="chaos_truncate", type=float,
                   default=0.0, metavar="RATE",
                   help="wire chaos: cut requests mid-body (server 408s)")
    p.add_argument("--chaos-stall", dest="chaos_stall", type=float,
                   default=0.0, metavar="RATE",
                   help="wire chaos: pause mid-body for "
                        "--chaos-stall-seconds")
    p.add_argument("--chaos-stall-seconds", dest="chaos_stall_seconds",
                   type=float, default=0.1, metavar="SECONDS")
    p.add_argument("--chaos-seed", dest="chaos_seed", type=int, default=0,
                   metavar="N", help="seed for the chaos RNG")
    p.set_defaults(func=cmd_feed)

    p = sub.add_parser(
        "reproduce",
        help="regenerate the headline paper results (Table III, Fig. 9, "
             "Table IV) as markdown",
    )
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "stats",
        help="summarize an observability dump (see --metrics-out)",
    )
    p.add_argument("--metrics", required=True,
                   help="JSON file written by --metrics-out")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (histogram quantiles, "
                        "labeled series, throughput) instead of tables")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "dashboard",
        help="terminal dashboard for a live --listen telemetry server",
    )
    p.add_argument("--url", required=True,
                   help="base URL of the telemetry server "
                        "(e.g. http://127.0.0.1:9100)")
    p.add_argument("--iterations", type=int, default=1, metavar="N",
                   help="frames to render before exiting (0 = forever; "
                        "default 1)")
    p.add_argument("--refresh", type=float, default=2.0, metavar="SECONDS",
                   help="seconds between frames (default 2)")
    p.set_defaults(func=cmd_dashboard)

    p = sub.add_parser(
        "monitor",
        help="serve a --metrics-out dump on the telemetry endpoints",
    )
    p.add_argument("--metrics", required=True,
                   help="JSON file written by --metrics-out")
    p.add_argument("--listen", metavar="HOST:PORT", required=True,
                   help="bind address (port 0 picks a free port)")
    p.add_argument("--linger", type=float, metavar="SECONDS", default=None,
                   help="serve this long then exit (default: until ctrl-c)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "postmortem",
        help="list, inspect and deterministically replay incident "
             "bundles (see fleet --incident-dir)",
    )
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="incident directory: list every bundle's manifest")
    p.add_argument("--bundle", default=None, metavar="DIR",
                   help="one bundle directory: render its causal timeline")
    p.add_argument("--replay", action="store_true",
                   help="re-feed the bundle's record window through a "
                        "fresh pipeline and verify the recorded "
                        "predictions reproduce (exit 3 on divergence)")
    p.add_argument("--model", default=None, metavar="FILE",
                   help="fitted pipeline pickle for --replay "
                        "(fleet --model-out / fit --model)")
    p.add_argument("--chunk-records", dest="chunk_records", type=int,
                   default=None, metavar="N",
                   help="replay feed quantum (default: the bundle's "
                        "recorded chunk_records)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_postmortem)

    p = sub.add_parser(
        "explain",
        help="render prediction audit records (see predict "
             "--provenance-out)",
    )
    p.add_argument("--provenance", required=True,
                   help="JSON-lines file written by --provenance-out")
    p.add_argument("--index", type=int, default=None,
                   help="render only this record (0-based)")
    p.add_argument("--model", default=None,
                   help="model pickle: resolve event ids to template text")
    p.set_defaults(func=cmd_explain)

    for sp in sub.choices.values():
        _add_global_options(sp, suppress=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    set_quiet(bool(getattr(args, "quiet", False)))
    try:
        obs.configure_logging(getattr(args, "log_level", None))
        obs.reset()
        rc = args.func(args)
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            try:
                _dump_observability(metrics_out)
            except OSError as exc:
                # The subcommand's work is done; don't traceback over a
                # bad dump path, but do signal the missing artifact.
                print(f"error: cannot write metrics dump: {exc}",
                      file=sys.stderr)
                return rc or 1
        return rc
    finally:
        set_quiet(False)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

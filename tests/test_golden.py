"""Golden prediction digests: one committed answer for every entry point.

The equivalence suites prove that two routes agree with each other;
this module pins *what* they agree on.  ``tests/golden/predictions.json``
holds the sha256 of the canonical prediction JSON
(``Prediction.to_dict`` per prediction, keys sorted) over the shared
1.5-day Blue Gene/L scenario, for:

* ``hybrid`` — batch ``ELSA.predict``, ``ResumableRun`` on record
  objects and on a ``RecordBatch`` (13- and 4096-record chunks), and a
  run killed mid-stream and continued with ``ResumableRun.resume``;
* ``signal`` — the signal-only baseline's ``run``;
* ``datamining`` — the fixed-window rule baseline's ``run``;
* ``meta`` — ``MetaPredictor`` over hybrid, signal and datamining on
  one stream;
* ``adaptive`` — ``AdaptiveELSA.predict_adaptive`` with 6-hour updates;
* ``model`` — the fitted ``TrainedModel`` itself (:func:`model_digest`);
* ``fleet`` — ``Fleet.run`` over 4 hashed tenants, on record objects
  and on a ``RecordBatch``; and the same 4 tenants fed through
  ``IngestAPI.handle_request`` in process (NDJSON bodies, sequenced
  per-tenant batches, one seal per tenant);
* ``postmortem`` — the predictions of the ``shard_restart`` incident
  bundle captured when one of those 4 tenants is killed after its
  first checkpoint, which ``replay_bundle`` reproduces from the
  bundle's checkpoint and record window.

The input digest is checked first, so a change in the generated
scenario (a new numpy, say) fails with its own message instead of as
a prediction change.  Changing a prediction on purpose means
regenerating the file in the same change::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro import ELSA, AdaptiveELSA, obs
from repro.columnar import RecordBatch
from repro.fleet import (
    Fleet,
    IngestAPI,
    IngestConfig,
    ManualClock,
    hashed_tenant_key,
)
from repro.fleet.ingest import encode_records
from repro.obs.forensics import replay_bundle
from repro.prediction.metalearn import MetaPredictor
from repro.resilience.checkpoint import ResumableRun, load_checkpoint
from repro.simulation.trace import LogRecord, Severity

GOLDEN = Path(__file__).parent / "golden" / "predictions.json"

TENANTS = ["t0", "t1", "t2", "t3"]

#: records per ingest request, per tenant
INGEST_BATCH = 64

#: the tenant the postmortem run kills, and the record count it dies
#: at (past the first checkpoint, at ``FleetPolicy.checkpoint_every``)
VICTIM = "t0"
KILL_AT = 2500


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prediction_digest(predictions) -> str:
    """sha256 of the canonical JSON of a prediction list."""
    return _sha([p.to_dict() for p in predictions])


def fleet_digest(out) -> str:
    """sha256 of the canonical JSON of a tenant -> predictions map."""
    return _sha({t: [p.to_dict() for p in out[t]] for t in out})


def _chain(chain) -> dict:
    return {
        "items": [[int(it.delay), int(it.event_type)] for it in chain.items],
        "support": int(chain.support),
        "confidence": float(chain.confidence),
        "p_value": float(chain.p_value),
    }


def model_digest(model) -> str:
    """sha256 of the canonical JSON of a fitted ``TrainedModel``.

    Covers the template skeletons, ``n_types``, the normal behaviours,
    the majority severities, all three chain lists, the seed pairs,
    the location-profile occurrences and the span quantiles.
    """
    return _sha({
        "skeletons": model.table.skeletons(),
        "n_types": int(model.n_types),
        "behaviors": {
            str(tid): [
                nb.signal_class.name, float(nb.median), float(nb.mad),
                float(nb.threshold), float(nb.occupancy),
                float(nb.mean_rate),
                None if nb.period is None else int(nb.period),
            ]
            for tid, nb in model.behaviors.items()
        },
        "severities": {
            str(tid): int(sev) for tid, sev in model.severities.items()
        },
        "chains": [_chain(c) for c in model.chains],
        "predictive_chains": [_chain(c) for c in model.predictive_chains],
        "info_chains": [_chain(c) for c in model.info_chains],
        "seed_pairs": [
            [int(a), int(b), int(pc.delay), float(pc.strength),
             int(pc.n_matches), int(pc.n_a), int(pc.n_b)]
            for a, b, pc in model.seed_pairs
        ],
        "profiles": [
            [_chain(p.chain), [list(o) for o in p.occurrences]]
            for p in model.profiles
        ],
        "span_quantiles": sorted(
            [[[int(t), int(d)] for t, d in key], [int(q) for q in qs]]
            for key, qs in model.span_quantiles.items()
        ),
    })


def input_digest(scenario) -> str:
    """sha256 of every record field plus the train/test split."""
    return _sha({
        "train_end": scenario.train_end,
        "t_end": scenario.t_end,
        "records": [
            [r.timestamp, r.location, int(r.severity), r.message,
             r.event_type, r.fault_id]
            for r in scenario.records
        ],
    })


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- the entry points ----------------------------------------------------------


class Pipeline:
    """A pipeline fitted for this module alone.

    Other tests mutate the session ``fitted_elsa`` (online HELO state,
    patched components), so the golden answer comes from a private
    fit; every run starts from the post-fit HELO state.
    """

    def __init__(self, scenario) -> None:
        self.sc = scenario
        self.elsa = ELSA(scenario.machine)
        self.elsa.fit(scenario.records, t_train_end=scenario.train_end)
        self.helo = self.elsa.online_state_dict()

    def fresh(self) -> ELSA:
        self.elsa.restore_online_state(self.helo)
        return self.elsa

    def predict(self):
        sc = self.sc
        return self.fresh().predict(sc.records, sc.train_end, sc.t_end)

    def resumable(self, records, batch_size=None):
        sc = self.sc
        run = ResumableRun(
            self.fresh(), sc.train_end, sc.t_end, batch_size=batch_size
        )
        return run.run(records)

    def killed_and_resumed(self, workdir: Path):
        sc = self.sc
        ckpt = workdir / "golden.ckpt.json"
        run = ResumableRun(
            self.fresh(), sc.train_end, sc.t_end,
            checkpoint_path=ckpt, checkpoint_every=500,
        )
        run.process(sc.records, limit=1500)
        del run  # the "crash"
        run = ResumableRun.resume(self.fresh(), load_checkpoint(ckpt))
        return run.run(sc.records)

    def signal(self):
        sc = self.sc
        elsa = self.fresh()
        stream = elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        return elsa.signal_predictor().run(stream)

    def datamining(self):
        sc = self.sc
        elsa = self.fresh()
        stream = elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        return elsa.datamining_predictor(sc.records).run(stream)

    def meta(self):
        sc = self.sc
        elsa = self.fresh()
        stream = elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        return MetaPredictor({
            "hybrid": elsa.hybrid_predictor(),
            "signal": elsa.signal_predictor(),
            "datamining": elsa.datamining_predictor(sc.records),
        }).run(stream)

    def adaptive(self):
        """A private ``AdaptiveELSA`` fit: its updates replace the model."""
        sc = self.sc
        elsa = AdaptiveELSA(sc.machine)
        elsa.fit(sc.records, t_train_end=sc.train_end)
        return elsa.predict_adaptive(
            sc.records, sc.train_end, sc.t_end, update_interval=21600.0
        )

    def fleet(self, records, workdir: Path):
        sc = self.sc
        fleet = Fleet.build(
            self.fresh(), TENANTS, sc.train_end, sc.t_end,
            hashed_tenant_key(len(TENANTS)), workdir,
            clock=ManualClock(), register=False,
        )
        try:
            return fleet.run(records)
        finally:
            fleet.close()

    def postmortem(self, records, workdir: Path):
        """Kill :data:`VICTIM` once past its first checkpoint in a
        forensics-bound 4-tenant fleet, then replay the bundle.

        Returns the captured bundle's manifest, its recorded
        predictions and the :func:`replay_bundle` result.
        """
        sc = self.sc
        obs.reset()
        fleet = Fleet.build(
            self.fresh(), TENANTS, sc.train_end, sc.t_end,
            hashed_tenant_key(len(TENANTS)), workdir / "ckpts",
            clock=ManualClock(), register=False,
        )
        try:
            fleet.bind_forensics(workdir / "inc")
            fleet.kill(VICTIM, after_records=KILL_AT)
            fleet.run(records)
            [bundle] = obs.get_incident_manager().bundles()
        finally:
            fleet.close()
            obs.reset()
        path = Path(bundle["path"])
        recorded = json.loads((path / "predictions.json").read_text())
        result = replay_bundle(path, self.fresh())
        return bundle, recorded["predictions"], result

    def ingest(self, records, workdir: Path):
        """The HTTP ingest contract in process, without sockets.

        Records go out the way ``IngestClient.feed`` sends them: split
        by tenant, ``INGEST_BATCH`` per request in arrival order, the
        tails in tenant order, each request sequenced on its own
        stream.  Returns tenant -> predictions payloads of the seals
        and the status of every ingest request.
        """
        sc = self.sc
        key = hashed_tenant_key(len(TENANTS))
        fleet = Fleet.build(
            self.fresh(), TENANTS, sc.train_end, sc.t_end, key, workdir,
            clock=ManualClock(), register=False,
        )
        api = IngestAPI(fleet, config=IngestConfig(
            admission_capacity=1e9, admission_rate=1e9,
        ))
        seqs = {tenant: 0 for tenant in TENANTS}
        statuses = []

        def send(tenant, batch):
            headers = {
                "x-stream-id": "golden",
                "x-batch-seq": str(seqs[tenant]),
            }
            seqs[tenant] += 1
            code, _, _ = api.handle_request(
                "POST", f"/ingest/{tenant}", headers,
                encode_records(batch),
            )
            statuses.append(code)

        try:
            buffers = {}
            for rec in records:
                tenant = key(rec.location)
                buf = buffers.setdefault(tenant, [])
                buf.append(rec)
                if len(buf) >= INGEST_BATCH:
                    send(tenant, buf)
                    buf.clear()
            for tenant in sorted(buffers):
                if buffers[tenant]:
                    send(tenant, buffers[tenant])
            sealed = {}
            for tenant in TENANTS:
                code, payload, _ = api.handle_request(
                    "POST", f"/seal/{tenant}", {}, b""
                )
                assert code == 200 and payload["sealed"], payload
                sealed[tenant] = payload["predictions"]
            return sealed, statuses
        finally:
            fleet.close()


def compute(scenario, workdir: Path) -> dict:
    """Every digest of the golden file, computed from scratch."""
    p = Pipeline(scenario)
    test = scenario.test_records
    return {
        "input_sha256": input_digest(scenario),
        "environment": environment(),
        "hybrid": prediction_digest(p.predict()),
        "signal": prediction_digest(p.signal()),
        "datamining": prediction_digest(p.datamining()),
        "meta": prediction_digest(p.meta()),
        "adaptive": prediction_digest(p.adaptive()),
        "model": model_digest(p.elsa.model),
        "fleet": fleet_digest(p.fleet(test, workdir / "fleet")),
        "postmortem": _sha(p.postmortem(test, workdir / "postmortem")[1]),
    }


# -- the tests -----------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pipeline(small_scenario, golden):
    if input_digest(small_scenario) != golden["input_sha256"]:
        pytest.fail(_input_changed(golden))
    return Pipeline(small_scenario)


def _input_changed(golden) -> str:
    return (
        "the generated scenario changed, so the golden predictions do "
        f"not apply: recorded with {golden['environment']}, running "
        f"{environment()}"
    )


def _expect(golden, name, digest) -> None:
    assert digest == golden[name], (
        f"{name} predictions differ from the committed golden digest "
        f"(recorded with {golden['environment']}, running "
        f"{environment()}); regenerate it only for an intended change"
    )


class TestGoldenDigests:
    def test_input_digest(self, small_scenario, golden):
        assert input_digest(small_scenario) == golden["input_sha256"], (
            _input_changed(golden)
        )

    def test_elsa_predict(self, pipeline, golden):
        predictions = pipeline.predict()
        assert predictions  # the scenario must actually predict
        _expect(golden, "hybrid", prediction_digest(predictions))

    def test_resumable_run_on_objects(self, pipeline, golden):
        got = pipeline.resumable(pipeline.sc.records)
        _expect(golden, "hybrid", prediction_digest(got))

    @pytest.mark.parametrize("batch_size", [13, 4096])
    def test_resumable_run_on_record_batch(
        self, pipeline, golden, batch_size
    ):
        batch = RecordBatch.from_records(pipeline.sc.records)
        got = pipeline.resumable(batch, batch_size=batch_size)
        _expect(golden, "hybrid", prediction_digest(got))

    def test_killed_and_resumed(self, pipeline, golden, tmp_path):
        got = pipeline.killed_and_resumed(tmp_path)
        _expect(golden, "hybrid", prediction_digest(got))

    def test_signal_only_baseline(self, pipeline, golden):
        predictions = pipeline.signal()
        assert predictions
        _expect(golden, "signal", prediction_digest(predictions))

    def test_datamining_baseline(self, pipeline, golden):
        predictions = pipeline.datamining()
        assert predictions
        _expect(golden, "datamining", prediction_digest(predictions))

    def test_meta_predictor(self, pipeline, golden):
        predictions = pipeline.meta()
        assert predictions
        _expect(golden, "meta", prediction_digest(predictions))

    def test_adaptive_predictions(self, pipeline, golden):
        predictions = pipeline.adaptive()
        assert predictions
        _expect(golden, "adaptive", prediction_digest(predictions))

    def test_fitted_model(self, pipeline, golden):
        _expect(golden, "model", model_digest(pipeline.elsa.model))

    def test_empty_message_leaves_the_model_unchanged(self, pipeline, golden):
        """A training line with no message text stays unclassified."""
        sc = pipeline.sc
        blank = LogRecord(81.040, "R07-M0-N0-C:J03-U00", Severity.INFO, "")
        elsa = ELSA(sc.machine)
        elsa.fit(sorted([*sc.records, blank]), t_train_end=sc.train_end)
        _expect(golden, "model", model_digest(elsa.model))

    def test_fleet_on_objects(self, pipeline, golden, tmp_path):
        out = pipeline.fleet(pipeline.sc.test_records, tmp_path)
        assert sorted(out) == TENANTS
        _expect(golden, "fleet", fleet_digest(out))

    def test_fleet_on_record_batch(self, pipeline, golden, tmp_path):
        batch = RecordBatch.from_records(pipeline.sc.test_records)
        out = pipeline.fleet(batch, tmp_path)
        _expect(golden, "fleet", fleet_digest(out))

    def test_ingest_api_in_process(self, pipeline, golden, tmp_path):
        sealed, statuses = pipeline.ingest(pipeline.sc.test_records, tmp_path)
        # generous admission: every batch applies, none is pushed back
        assert statuses and set(statuses) == {200}
        assert sorted(sealed) == TENANTS
        _expect(golden, "fleet", _sha(sealed))

    def test_postmortem_replay(self, pipeline, golden, tmp_path):
        bundle, predictions, result = pipeline.postmortem(
            pipeline.sc.test_records, tmp_path
        )
        assert bundle["kind"] == "shard_restart"
        assert bundle["tenant"] == VICTIM
        assert predictions
        assert result["from_checkpoint"] is True
        assert result["identical"] is True, result
        _expect(golden, "postmortem", _sha(predictions))


def main() -> int:
    """Rewrite ``tests/golden/predictions.json`` from the current code."""
    from repro.datasets import bluegene_scenario
    from tests.conftest import SMALL_SCENARIO

    scenario = bluegene_scenario(**SMALL_SCENARIO)
    with tempfile.TemporaryDirectory() as tmp:
        data = compute(scenario, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Ingest frontend tier-1: codec, ledger, admission, API contract.

The wire-chaos equivalence matrix (hostile-network byte-identity,
overload soak, mid-stream server restart) lives in
``test_ingest_chaos.py`` behind the ``ingest_chaos`` marker; these are
the deterministic unit and in-process integration pieces:

* NDJSON codec — full-precision round trip, strict rejection (non-finite
  timestamps and out-of-range numbers included), a fuzz property
  (``decode_batch`` raises nothing but ``ValueError``) and oracle
  properties against the field-by-field codec in
  ``tests/reference/codec.py`` (same bytes out, same batch or same
  error in);
* :class:`IngestLedger` — apply/duplicate/gap semantics, persistence;
* :class:`AdmissionController` — headroom-scaled token bucket;
* :class:`IngestAPI` — the HTTP status contract (200-duplicate, 404,
  409-gap, 413, 429 + Retry-After, 503-draining) and graceful drain;
* the slowloris guard (satellite: per-connection socket timeout +
  ``telemetry.request_timeouts``);
* HTTP/1.1 keep-alive — one connection per transport, a restart on the
  same port, replies that leave a body unread close the connection,
  idle closes are not timeouts, and Nagle stays off;
* severity-aware shedding accounting (satellite: mixed-severity bursts
  shed only non-severe, with per-severity counts);
* kill-point stacking (satellite: repeated ``--kill`` specs on one
  tenant each fire once, so CLI-driven flapping → quarantine works).
"""

import itertools
import json
import re
import socket
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet import (
    AdmissionController,
    Fleet,
    FleetPolicy,
    IngestAPI,
    IngestConfig,
    IngestLedger,
    ManualClock,
    ShardState,
    hashed_tenant_key,
)
from repro.fleet.client import ClientError, HTTPTransport, IngestClient
from repro.fleet.ingest import decode_batch, encode_records, ingest_slos
from repro.obs.live import TelemetryServer
from repro.simulation.trace import LogRecord, Severity
from tests.reference import codec as oracle


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def rec(t, location="R00-M0-N0-C:J00-U00", severity=Severity.INFO,
        message="m", event_type=None, fault_id=None):
    return LogRecord(
        timestamp=float(t), location=location, severity=severity,
        message=message, event_type=event_type, fault_id=fault_id,
    )


# ---------------------------------------------------------------------------
# NDJSON codec
# ---------------------------------------------------------------------------

def decode(body, max_records=None):
    return decode_batch(body, max_records=max_records).to_records()


def row(**fields):
    """One NDJSON line; values are JSON source text."""
    base = {"t": "1", "loc": '"a"', "sev": "0", "msg": '"x"'}
    base.update(fields)
    inner = ", ".join(f'"{k}": {v}' for k, v in base.items())
    return ("{" + inner + "}\n").encode()


class TestCodec:
    def test_roundtrip_preserves_full_float_precision(self):
        records = [
            rec(1.23456789012345, message="a b c", event_type=7,
                fault_id=3),
            rec(2.0, severity=Severity.FAILURE),
        ]
        out = decode(encode_records(records))
        assert out == records
        # the %.3f text-log format would have destroyed this timestamp;
        # the wire must not (byte-identity depends on it)
        assert out[0].timestamp == 1.23456789012345

    def test_empty_input(self):
        assert encode_records([]) == b""
        assert decode(b"") == []
        assert decode(b"\n  \n") == []

    def test_bad_json_line_rejects_the_whole_batch(self):
        body = encode_records([rec(1.0)]) + b"{not json\n"
        with pytest.raises(ValueError, match="line 2"):
            decode(body)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            decode(b'{"t": 1, "loc": "a", "sev": 0, "msg": "x", '
                   b'"evil": 1}\n')

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="expected an object"):
            decode(b"[1, 2, 3]\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            decode(b'{"t": 1, "loc": "a"}\n')

    def test_batch_cap_enforced(self):
        body = encode_records([rec(float(i)) for i in range(4)])
        with pytest.raises(ValueError, match="exceeds 2 records"):
            decode(body, max_records=2)

    @pytest.mark.parametrize("t", [
        "Infinity", "-Infinity", "NaN", "1e400", '"inf"', '"nan"',
    ])
    def test_non_finite_timestamp_rejected(self, t):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            decode(row() + row(t=t))

    @pytest.mark.parametrize("field", [
        {"sev": "1e400"},
        {"sev": "-1e400"},
        {"t": "-1" + "0" * 400},
        {"t": "1" + "0" * 400},
    ])
    def test_out_of_range_numbers_rejected(self, field):
        with pytest.raises(ValueError, match="line 1"):
            decode(row(**field))

    @pytest.mark.parametrize("field", ["et", "fid"])
    def test_generator_ids_are_unknown_fields(self, field):
        """The wire row is exactly ``t``, ``loc``, ``sev``, ``msg``."""
        with pytest.raises(ValueError, match=f"unknown fields.*'{field}'"):
            decode(row(**{field: "3"}))

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="bad JSON"):
            decode(b"[" * 100_000 + b"]" * 100_000 + b"\n")


_NUMBERS = st.one_of(
    st.integers(), st.floats(), st.sampled_from([10**400, -10**400]),
)


@st.composite
def _ndjson_rows(draw):
    """One record-shaped line: any field may be hostile or missing."""
    row = {
        "t": draw(st.one_of(_NUMBERS, st.text(max_size=6))),
        "loc": draw(st.one_of(st.text(max_size=8), _NUMBERS)),
        "sev": draw(st.one_of(st.integers(0, 3), _NUMBERS, st.booleans())),
        "msg": draw(st.one_of(st.text(max_size=10), st.none())),
    }
    if draw(st.integers(0, 9)) == 0:
        del row[draw(st.sampled_from(sorted(row)))]
    return json.dumps(row)


@st.composite
def _ndjson_bodies(draw):
    """Bodies of mostly record-shaped lines plus arbitrary text."""
    lines = draw(st.lists(
        st.one_of(_ndjson_rows(), st.text(max_size=30)), max_size=6
    ))
    return "\n".join(lines).encode("utf-8", "surrogatepass")


class TestDecodeFuzz:
    @given(st.one_of(_ndjson_bodies(), st.binary(max_size=120)))
    @settings(max_examples=300, deadline=None)
    def test_decode_raises_only_value_error(self, body):
        try:
            batch = decode_batch(body)
        except ValueError:
            return
        assert np.isfinite(batch.timestamps).all()


# the codec against its field-by-field oracle

#: floats at the edges of repr and of JSON: signed zero, the smallest
#: subnormal, the largest magnitudes, and the non-finite spellings
_EDGE_FLOATS = [-0.0, 5e-324, 1e308, -1.7976931348623157e308, 1e16, 0.1,
                float("nan"), float("inf"), float("-inf")]
#: quotes, backslashes, control, non-ASCII, a lone surrogate
_EDGE_TEXT = ['', 'plain text', 'say "hi"', 'back\\slash\\',
              'ctl\x00\x01\x1f\x7f\t\r\n', 'caf\u00e9 \u2028 \u2603',
              '\U0001f600 astral', 'lone \ud800 surrogate']


def _timestamps():
    return st.one_of(
        st.floats(),
        st.sampled_from(_EDGE_FLOATS),
        st.integers(-10**20, 10**20),
        st.floats().map(np.float64),
    )


def _texts():
    return st.one_of(st.text(max_size=12), st.sampled_from(_EDGE_TEXT))


@st.composite
def _records(draw):
    """A record with any timestamp, text, severity and generator ids
    (which the encoder leaves out)."""
    side = st.one_of(st.none(), st.integers(-10**20, 10**20),
                     st.integers(0, 99).map(np.int64))
    return LogRecord(
        timestamp=draw(_timestamps()),
        location=draw(_texts()),
        severity=draw(st.one_of(st.sampled_from(list(Severity)),
                                st.integers(-1, 5))),
        message=draw(_texts()),
        event_type=draw(side),
        fault_id=draw(side),
    )


def _outcome(fn, *args):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("error", type(exc), str(exc))


def _typed(values):
    """A list with each value's type, so ``1 == 1.0`` does not pass."""
    return None if values is None else [(type(v), v) for v in values]


def _batch_fields(batch):
    """Every column of a decoded batch, floats compared bit for bit."""
    return (
        batch.timestamps.dtype, batch.timestamps.tobytes(),
        batch.loc_ids.dtype, batch.loc_ids.tobytes(),
        batch.severities.dtype, batch.severities.tobytes(),
        _typed(batch.messages), _typed(batch.loc_pool),
        batch._loc_index,
    )


def _decoded(body, decode=decode_batch):
    return _outcome(lambda b: _batch_fields(decode(b)), body)


class TestCodecOracle:
    @given(st.lists(_records(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_encode_is_byte_identical_to_json_dumps(self, records):
        assert _outcome(encode_records, records) == _outcome(
            oracle.encode_records, records)

    def test_encode_edge_cases_byte_identical(self):
        """12 timestamps x 8 texts x 4 generator-id shapes x 2
        severities: 768 records, encoded and decoded like the oracle;
        no row carries the ids."""
        stamps = _EDGE_FLOATS + [7, np.float64(0.1), np.float64("-inf")]
        records = [
            LogRecord(timestamp=t, location=text, severity=sev,
                      message=text[::-1], event_type=et, fault_id=fid)
            for t, text, (et, fid), sev in itertools.product(
                stamps, _EDGE_TEXT,
                [(None, None), (3, None), (None, 9), (3, 9)],
                [Severity.INFO, Severity.FAILURE],
            )
        ]
        assert len(records) == 768
        body = encode_records(records)
        assert body == oracle.encode_records(records)
        assert b'"et"' not in body and b'"fid"' not in body
        finite = [r for r in records if np.isfinite(r.timestamp)]
        finite_body = encode_records(finite)
        assert _decoded(finite_body) == _decoded(
            finite_body, oracle.decode_batch)
        assert _decoded(finite_body)[0] == "ok"
        assert _decoded(body) == _decoded(body, oracle.decode_batch)

    @given(st.one_of(_ndjson_bodies(), st.binary(max_size=120)))
    @settings(max_examples=300, deadline=None)
    def test_decode_matches_the_oracle(self, body):
        assert _decoded(body) == _decoded(body, oracle.decode_batch)

    @given(st.lists(_records(), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_decode_of_encoded_bodies_matches_the_oracle(self, records):
        outcome = _outcome(oracle.encode_records, records)
        if outcome[0] == "ok":
            body = outcome[1]
            assert _decoded(body) == _decoded(body, oracle.decode_batch)

    @pytest.mark.parametrize("field", [
        {"sev": "1"}, {"sev": "true"}, {"sev": "2.0"}, {"sev": "2.5"},
        {"sev": '" 3 "'}, {"t": '"12.5"'}, {"t": "true"}, {"loc": "7"},
        {"msg": "null"}, {"loc": "null"}, {"msg": "2.5"}, {"sev": "false"},
    ])
    def test_decode_accepts_what_the_oracle_accepts(self, field):
        """Values of another type than the encoder writes, that the
        field-by-field conversion still takes."""
        body = row(**field)
        assert _decoded(body) == _decoded(body, oracle.decode_batch)
        assert _decoded(body)[0] == "ok"


# ---------------------------------------------------------------------------
# idempotency ledger
# ---------------------------------------------------------------------------

class TestLedger:
    def test_new_stream_must_start_at_zero(self):
        ledger = IngestLedger()
        assert ledger.check("t0", "s0", 0) == "apply"
        assert ledger.check("t0", "s0", 1) == "gap"
        assert ledger.expected("t0", "s0") == 0

    def test_apply_duplicate_gap_ladder(self):
        ledger = IngestLedger()
        ledger.advance("t0", "s0", 0)
        assert ledger.check("t0", "s0", 0) == "duplicate"
        assert ledger.check("t0", "s0", 1) == "apply"
        assert ledger.check("t0", "s0", 2) == "gap"
        assert ledger.expected("t0", "s0") == 1
        # streams and tenants are independent
        assert ledger.check("t0", "s1", 0) == "apply"
        assert ledger.check("t1", "s0", 0) == "apply"

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = IngestLedger(path)
        ledger.advance("t0", "s0", 4)
        ledger.advance("t1", "s0", 0)
        ledger.save()
        fresh = IngestLedger(path)
        assert fresh.load() is True
        assert fresh.check("t0", "s0", 4) == "duplicate"
        assert fresh.check("t0", "s0", 5) == "apply"
        assert fresh.info() == {"tenants": 2, "streams": 2}

    def test_load_missing_file_is_a_noop(self, tmp_path):
        assert IngestLedger(tmp_path / "nope.json").load() is False

    def test_load_rejects_future_versions(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"version": 99, "tenants": {}}))
        with pytest.raises(ValueError, match="version"):
            IngestLedger(path).load()

    def test_streams_evicted_lru(self):
        ledger = IngestLedger(streams_per_tenant=2)
        ledger.advance("t0", "a", 0)
        ledger.advance("t0", "b", 0)
        ledger.advance("t0", "a", 1)  # refresh a
        ledger.advance("t0", "c", 0)  # evicts b
        assert ledger.check("t0", "b", 1) == "gap"  # forgotten
        assert ledger.check("t0", "a", 2) == "apply"
        evicted = obs.get_registry().get("ingest.ledger_streams_evicted")
        assert evicted.value == 1.0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_admits_until_the_bucket_is_dry(self):
        clock = FakeClock()
        adm = AdmissionController(100, 10, lambda: 1.0, clock=clock)
        ok, retry = adm.try_admit(60)
        assert ok and retry == 0.0
        ok, retry = adm.try_admit(60)
        assert not ok
        # deficit 20 tokens at 10/s full headroom = 2s
        assert retry == pytest.approx(2.0)

    def test_refill_follows_elapsed_time(self):
        clock = FakeClock()
        adm = AdmissionController(100, 10, lambda: 1.0, clock=clock)
        assert adm.try_admit(100)[0]
        assert not adm.try_admit(50)[0]
        clock.now += 5.0  # refills 50 tokens
        assert adm.try_admit(50)[0]

    def test_zero_headroom_stops_refill_and_maxes_retry(self):
        clock = FakeClock()
        adm = AdmissionController(
            100, 10, lambda: 0.0, clock=clock, retry_after_max=5.0
        )
        assert adm.try_admit(100)[0]  # initial bucket is full
        clock.now += 1000.0
        ok, retry = adm.try_admit(1)
        assert not ok
        assert retry == 5.0

    def test_partial_headroom_scales_the_rate(self):
        clock = FakeClock()
        adm = AdmissionController(100, 10, lambda: 0.5, clock=clock)
        assert adm.try_admit(100)[0]
        clock.now += 10.0  # 10 * 0.5 * 10s = 50 tokens
        assert adm.try_admit(50)[0]
        assert not adm.try_admit(1)[0]

    def test_retry_bounds_clamp(self):
        clock = FakeClock()
        adm = AdmissionController(
            10, 1000, lambda: 1.0, clock=clock,
            retry_after_min=0.25, retry_after_max=5.0,
        )
        assert adm.try_admit(10)[0]
        ok, retry = adm.try_admit(1)
        assert not ok and retry == 0.25  # tiny deficit still waits min

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 1, lambda: 1.0)
        with pytest.raises(ValueError):
            AdmissionController(1, 0, lambda: 1.0)


# ---------------------------------------------------------------------------
# the API contract (in-process, no sockets)
# ---------------------------------------------------------------------------

def build_api(fitted_elsa, small_scenario, tmp_path, n_tenants=4,
              policy=None, config=None, resume=False, clock=None):
    key = hashed_tenant_key(n_tenants)
    test = small_scenario.test_records
    tenants = sorted({key(r.location) for r in test})
    fleet = Fleet.build(
        fitted_elsa, tenants, small_scenario.train_end,
        small_scenario.t_end, key, tmp_path / "ckpt",
        policy=policy or FleetPolicy(), clock=ManualClock(),
        register=False, resume=resume,
    )
    # generous admission by default: the contract tests exercise the
    # status ladder, not the bucket (TestAdmission covers the bucket)
    config = config or IngestConfig(
        admission_capacity=1e9, admission_rate=1e9
    )
    api = IngestAPI(
        fleet, config=config, ledger_path=tmp_path / "ledger.json",
        resume=resume, clock=clock or time.monotonic,
    )
    return api, fleet, tenants, test


def post(api, tenant, records, seq=None, stream="s0"):
    headers = {}
    if seq is not None:
        headers = {"x-stream-id": stream, "x-batch-seq": str(seq)}
    return api.handle_request(
        "POST", f"/ingest/{tenant}", headers, encode_records(records)
    )


class TestIngestAPI:
    def test_unowned_paths_return_none(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, _, _ = build_api(fitted_elsa, small_scenario, tmp_path)
        assert api.handle_request("GET", "/metrics", {}, b"") is None
        assert api.handle_request("POST", "/ingest", {}, b"") is None

    def test_unknown_tenant_404_lists_tenants(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, _ = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        code, payload, _ = post(api, "nope", [rec(1.0)])
        assert code == 404
        assert payload["tenants"] == tenants
        code, payload, _ = api.handle_request(
            "GET", "/predictions/nope", {}, b""
        )
        assert code == 404

    def test_malformed_and_empty_batches_400(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, _ = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        code, payload, _ = api.handle_request(
            "POST", f"/ingest/{tenants[0]}", {}, b"{broken\n"
        )
        assert code == 400
        code, payload, _ = post(api, tenants[0], [])
        assert code == 400 and payload["error"] == "empty batch"
        reg = obs.get_registry()
        assert reg.get("ingest.malformed_batches").value == 1.0

    def test_non_finite_and_out_of_range_batches_400(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, fleet, tenants, _ = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        t = small_scenario.train_end
        bodies = [
            row(t=str(t)) + row(t="NaN"),
            row(t=str(t)) + row(t="Infinity"),
            row(t=str(t), sev="1e400"),
            row(t=str(t), et="1e400"),
            row(t=str(t), fid="-1e400"),
        ]
        for body in bodies:
            code, payload, _ = api.handle_request(
                "POST", f"/ingest/{tenants[0]}", {}, body
            )
            assert code == 400, payload
        reg = obs.get_registry()
        assert reg.get("ingest.malformed_batches").value == len(bodies)
        # nothing entered the fleet
        assert fleet.router.stats["routed"] == 0

    def test_oversized_batch_413(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path,
            config=IngestConfig(
                max_batch_records=4,
                admission_capacity=1e9, admission_rate=1e9,
            ),
        )
        code, payload, _ = post(api, tenants[0], test[:8])
        assert code == 413
        assert "exceeds 4 records" in payload["error"]

    def test_bad_seq_header_400(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        code, payload, _ = api.handle_request(
            "POST", f"/ingest/{tenants[0]}",
            {"x-batch-seq": "banana"}, encode_records(test[:2]),
        )
        assert code == 400

    def test_duplicate_batches_apply_once(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:16]
        code, payload, _ = post(api, tenant, batch, seq=0)
        assert code == 200 and payload["applied"] is True
        assert payload["records"] == 16
        routed = fleet.router.stats["routed"]
        # the blind retry: same stream+seq → acked, not re-applied
        code, payload, _ = post(api, tenant, batch, seq=0)
        assert code == 200
        assert payload["applied"] is False and payload["duplicate"] is True
        assert fleet.router.stats["routed"] == routed
        # and the stream advances normally afterwards
        code, payload, _ = post(api, tenant, batch, seq=1)
        assert code == 200 and payload["applied"] is True
        reg = obs.get_registry()
        assert reg.get("ingest.batches_duplicate").value == 1.0
        assert reg.get("ingest.batches_applied").value == 2.0

    def test_sequence_gap_409_reports_expected(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        tenant = tenants[0]
        code, payload, _ = post(api, tenant, test[:2], seq=3)
        assert code == 409 and payload["expected"] == 0
        post(api, tenant, test[:2], seq=0)
        code, payload, _ = post(api, tenant, test[:2], seq=5)
        assert code == 409 and payload["expected"] == 1

    def test_queue_full_429_with_retry_after(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path,
            policy=FleetPolicy(queue_capacity=8),
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:16]
        code, payload, headers = post(api, tenant, batch)
        assert code == 429
        assert payload["free_slots"] == 8 and payload["batch"] == 16
        assert payload["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1
        # the zero-loss property: rejected before anything routed
        assert fleet.router.stats["routed"] == 0
        assert fleet.router.stats["shed"] == 0
        reg = obs.get_registry()
        assert reg.get("ingest.rejected").value == 1.0
        rejected = reg.get("ingest.rejected")
        assert rejected.labels(reason="queue_full").value == 1.0

    def test_admission_throttle_429_recovers_with_time(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        clock = FakeClock()
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path,
            config=IngestConfig(
                admission_capacity=16.0, admission_rate=16.0
            ),
            clock=clock,
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:16]
        assert post(api, tenant, batch)[0] == 200  # drains the bucket
        code, payload, _ = post(api, tenant, batch)
        assert code == 429 and payload["error"] == "admission throttled"
        clock.now += 2.0  # bucket refills at full headroom
        assert post(api, tenant, batch)[0] == 200

    def test_sealed_tenant_409_and_seal_is_idempotent(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:32]
        post(api, tenant, batch, seq=0)
        code, sealed1, _ = api.handle_request(
            "POST", f"/seal/{tenant}", {}, b""
        )
        assert code == 200 and sealed1["sealed"] is True
        code, payload, _ = post(api, tenant, batch, seq=1)
        assert code == 409 and "sealed" in payload["error"]
        code, sealed2, _ = api.handle_request(
            "POST", f"/seal/{tenant}", {}, b""
        )
        assert code == 200
        assert sealed2["predictions"] == sealed1["predictions"]

    def test_predictions_endpoint_reports_progress(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:64]
        post(api, tenant, batch)
        api.pump_once()
        code, payload, _ = api.handle_request(
            "GET", f"/predictions/{tenant}", {}, b""
        )
        assert code == 200
        assert payload["sealed"] is False
        assert payload["records_fed"] == 64
        assert isinstance(payload["predictions"], list)

    def test_tenants_endpoints(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, _ = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        code, payload, _ = api.handle_request("GET", "/tenants", {}, b"")
        assert code == 200
        assert sorted(payload["tenants"]) == tenants
        assert payload["draining"] is False
        code, payload, _ = api.handle_request(
            "GET", f"/tenants/{tenants[0]}", {}, b""
        )
        assert code == 200 and payload["tenant"] == tenants[0]
        assert "shed_by_severity" in payload

    def test_draining_503_and_drain_summary(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, _, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        post(api, tenants[0], test[:8], seq=0)
        api.begin_drain()
        code, payload, headers = post(api, tenants[0], test[8:16], seq=1)
        assert code == 503 and "Retry-After" in headers
        summary = api.drain()
        assert summary["drained"] is True
        assert summary["degraded"] is False
        assert summary["checkpointed"] == len(tenants)
        assert api.drain() is summary  # idempotent
        assert (tmp_path / "ledger.json").exists()

    def test_ledger_survives_a_drain_restart_cycle(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:16]
        assert post(api, tenant, batch, seq=0)[0] == 200
        api.drain()
        fleet.close()
        # the restarted incarnation refuses to re-apply seq 0
        api2, fleet2, _, _ = build_api(
            fitted_elsa, small_scenario, tmp_path, resume=True
        )
        code, payload, _ = post(api2, tenant, batch, seq=0)
        assert code == 200 and payload["duplicate"] is True
        assert fleet2.router.stats["routed"] == 0
        code, payload, _ = post(api2, tenant, batch, seq=1)
        assert code == 200 and payload["applied"] is True
        fleet2.close()

    def test_request_metrics_and_slos_installed(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path
        )
        post(api, tenants[0], [rec(1.0)])  # 400: out-of-window is fine
        reg = obs.get_registry()
        assert reg.get("ingest.requests").value >= 1.0
        hist = reg.get("ingest.request_seconds")
        assert hist.count >= 1
        names = {spec.name for spec in ingest_slos()}
        assert names == {
            "ingest_reject_rate", "ingest_request_p99",
            "ingest_timeout_rate",
        }
        fleet.close()


# ---------------------------------------------------------------------------
# severity-aware shedding accounting (satellite)
# ---------------------------------------------------------------------------

def route_one(fleet, record):
    """Route a one-record batch; returns its verdict."""
    counts = fleet.route_batch(RecordBatch.from_records([record]))
    (verdict,) = [v for v, c in counts.items() if c]
    return verdict


class TestSeverityShedding:
    def test_mixed_severity_burst_sheds_only_non_severe(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """Fill a tiny queue, then burst all four severities straight
        through the router: SEVERE/FAILURE must all get in (past the
        cap), INFO/WARNING shed on the stride, and both the per-shard
        ``shed_by_severity`` map and the labeled
        ``fleet.records_shed`` counter agree on the split."""
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path,
            policy=FleetPolicy(queue_capacity=16, overflow_stride=4),
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        loc = next(r.location for r in test if key(r.location) == tenant)
        t0 = small_scenario.train_end
        shard = fleet.shards[tenant]
        for i in range(16):
            assert route_one(fleet, rec(t0 + i, location=loc)) == "accepted"
        assert shard.free_slots() == 0

        verdicts = {"accepted": 0, "shed": 0}
        by_sev = {}
        burst = [Severity.INFO, Severity.WARNING, Severity.SEVERE,
                 Severity.FAILURE] * 8
        for i, sev in enumerate(burst):
            v = route_one(
                fleet, rec(t0 + 100 + i, location=loc, severity=sev)
            )
            verdicts[v] += 1
            if v == "shed":
                by_sev[sev.name] = by_sev.get(sev.name, 0) + 1

        # every severe/failure record was admitted past the cap
        assert set(by_sev) <= {"INFO", "WARNING"}
        assert by_sev["INFO"] > 0 and by_sev["WARNING"] > 0
        assert verdicts["accepted"] >= 16  # the 16 severe ones at least
        # shard accounting matches what the router observed
        assert shard.shed_by_severity == by_sev
        assert shard.shed == verdicts["shed"]
        assert shard.info()["shed_by_severity"] == by_sev
        # and so does the labeled metric
        shed = obs.get_registry().get("fleet.records_shed")
        assert shed.value == verdicts["shed"]
        for name, count in by_sev.items():
            assert shed.labels(severity=name).value == count
        fleet.close()

    def test_admission_gate_keeps_shedding_unreachable(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """The frontend's free-slots check means network overload turns
        into 429 pushback, never shed records."""
        api, fleet, tenants, test = build_api(
            fitted_elsa, small_scenario, tmp_path,
            policy=FleetPolicy(queue_capacity=32),
        )
        key = hashed_tenant_key(4)
        tenant = tenants[0]
        batch = [r for r in test if key(r.location) == tenant][:24]
        assert post(api, tenant, batch)[0] == 200
        # 24 queued, 8 free: the next 24-record batch must bounce whole
        code, payload, _ = post(api, tenant, batch)
        assert code == 429
        assert fleet.router.stats["shed"] == 0
        assert fleet.router.stats["routed"] == 24
        # after a pump pass the queue frees and the batch fits again
        api.pump_once()
        assert post(api, tenant, batch)[0] == 200
        assert fleet.router.stats["shed"] == 0
        fleet.close()


# ---------------------------------------------------------------------------
# kill-point stacking (satellite)
# ---------------------------------------------------------------------------

class TestKillStacking:
    def test_stacked_kills_each_fire_once(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """Repeated ``--kill TENANT:AFTER`` specs must stack (the old
        single-slot field silently kept only the last one), so a CLI
        run can drive a shard through flap → quarantine."""
        policy = FleetPolicy(
            flap_threshold=3, jitter_seed=7,
            backoff_initial_seconds=0.01, backoff_max_seconds=0.02,
        )
        key = hashed_tenant_key(4)
        test = small_scenario.test_records
        tenants = sorted({key(r.location) for r in test})
        fleet = Fleet.build(
            fitted_elsa, tenants, small_scenario.train_end,
            small_scenario.t_end, key, tmp_path / "ckpt",
            policy=policy, clock=ManualClock(), register=False,
        )
        victim = tenants[0]
        # out of order on purpose: inject_kill must keep them sorted
        fleet.kill(victim, after_records=600)
        fleet.kill(victim, after_records=200)
        fleet.kill(victim, after_records=400)
        assert fleet.shards[victim]._kill_at == [200, 400, 600]

        fleet.run(test)
        state = fleet.state()["shards"][victim]
        assert state["crashes"] == 3
        assert state["state"] == ShardState.QUARANTINED.value
        summary_degraded = bool(
            [t for t, s in fleet.shards.items()
             if s.state is ShardState.QUARANTINED]
        )
        assert summary_degraded  # what maps to CLI exit 3
        fleet.close()


# ---------------------------------------------------------------------------
# slowloris guard (satellite)
# ---------------------------------------------------------------------------

class StubIngestAPI:
    """Just enough surface for the server: cap + echo handler."""

    max_body_bytes = 1 << 16

    def handle_request(self, method, path, headers, body):
        if path.startswith("/ingest/"):
            return 200, {"ok": True, "bytes": len(body)}, {}
        return None


class TestRequestTimeout:
    def _server(self, timeout):
        return TelemetryServer(
            ingest_fn=lambda api=StubIngestAPI(): api,
            request_timeout_seconds=timeout,
        )

    def test_stalled_body_times_out_408_and_counts(self):
        server = self._server(0.25)
        server.start()
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=5
            )
            try:
                # declare 100 bytes, send 10, then go silent: the
                # handler's socket timeout must fire, not hang forever
                sock.sendall(
                    b"POST /ingest/t0 HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: 100\r\n"
                    b"Connection: close\r\n\r\n" + b"x" * 10
                )
                deadline = time.monotonic() + 10.0
                blob = b""
                while time.monotonic() < deadline:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
                assert b" 408 " in blob.split(b"\r\n", 1)[0]
            finally:
                sock.close()
            reg = obs.get_registry()
            assert reg.get("telemetry.request_timeouts").value >= 1.0
        finally:
            server.stop()

    def test_complete_requests_pass_under_the_timeout(self):
        server = self._server(5.0)
        server.start()
        try:
            import urllib.request

            req = urllib.request.Request(
                server.url + "/ingest/t0", data=b"hello",
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=5) as resp:
                payload = json.loads(resp.read())
            assert payload == {"ok": True, "bytes": 5}
        finally:
            server.stop()

    def test_payload_cap_rejects_before_reading(self):
        server = self._server(5.0)
        server.start()
        try:
            import urllib.error
            import urllib.request

            req = urllib.request.Request(
                server.url + "/ingest/t0",
                data=b"x" * ((1 << 16) + 1), method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=5)
            assert err.value.code == 413
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# HTTP/1.1 keep-alive
# ---------------------------------------------------------------------------

class RecordingAPI(StubIngestAPI):
    """The stub, keeping the handler thread that served each request."""

    def __init__(self):
        self.threads = []

    def handle_request(self, method, path, headers, body):
        self.threads.append(threading.current_thread())
        return super().handle_request(method, path, headers, body)


#: a request smuggled in a body: answered only if the server reads the
#: body's bytes as the next request
HIDDEN = b"GET /state HTTP/1.1\r\nHost: x\r\n\r\n"


def read_until_closed(sock, limit=10.0):
    """Everything the server sends until it closes the connection."""
    deadline = time.monotonic() + limit
    blob = b""
    while time.monotonic() < deadline:
        chunk = sock.recv(65536)
        if not chunk:
            return blob
        blob += chunk
    raise AssertionError(f"connection still open after {limit}s: {blob!r}")


def status_lines(blob):
    return re.findall(rb"^HTTP/1\.[01] (\d{3}) ", blob, re.M)


class TestKeepAlive:
    def _server(self, api, timeout=5.0, port=0):
        return TelemetryServer(
            port=port, ingest_fn=lambda: api,
            request_timeout_seconds=timeout,
        )

    def test_one_transport_is_served_on_one_connection(self):
        api = RecordingAPI()
        with self._server(api) as server:
            transport = HTTPTransport(server.host, server.port, timeout=5.0)
            try:
                for i in range(5):
                    resp = transport.request("POST", "/ingest/t0", b"x" * i)
                    assert resp.status == 200
                    assert resp.json() == {"ok": True, "bytes": i}
            finally:
                transport.close()
        # the threads are kept alive by the list, so one identity means
        # one handler thread, which means one connection
        assert len(api.threads) == 5
        assert len({id(t) for t in api.threads}) == 1

    def test_stop_closes_connections_so_a_restart_gets_the_next_request(
            self):
        first, second = RecordingAPI(), RecordingAPI()
        server = self._server(first).start()
        port = server.port
        transport = HTTPTransport(server.host, port, timeout=5.0)
        try:
            assert transport.request("POST", "/ingest/t0", b"a").status == 200
            server.stop()
            with self._server(second, port=port):
                resp = transport.request("POST", "/ingest/t0", b"bb")
            assert resp.status == 200 and resp.json()["bytes"] == 2
        finally:
            transport.close()
            server.stop()
        assert len(first.threads) == 1 and len(second.threads) == 1
        assert obs.counter("ingest_client.reconnects").value == 1

    @pytest.mark.parametrize("mounted, request_head, status", [
        # no ingest API: 405 before the body is read
        (False, b"POST /ingest/t0 HTTP/1.1\r\nContent-Length: %d\r\n"
         % len(HIDDEN), b"405"),
        # no Content-Length: the body's end is unknown
        (True, b"POST /ingest/t0 HTTP/1.1\r\n", b"411"),
        (True, b"POST /ingest/t0 HTTP/1.1\r\nContent-Length: 3x\r\n",
         b"400"),
        (True, b"POST /ingest/t0 HTTP/1.1\r\nContent-Length: -5\r\n",
         b"400"),
        (True, b"POST /ingest/t0 HTTP/1.1\r\nContent-Length: %d\r\n"
         % (StubIngestAPI.max_body_bytes + 1), b"413"),
        # a GET's body is never read
        (True, b"GET /health HTTP/1.1\r\nContent-Length: %d\r\n"
         % len(HIDDEN), b"200"),
    ])
    def test_reply_leaving_a_body_unread_closes_the_connection(
            self, mounted, request_head, status):
        api = StubIngestAPI() if mounted else None
        with self._server(api, timeout=1.0) as server:
            sock = socket.create_connection(
                (server.host, server.port), timeout=5)
            try:
                sock.sendall(request_head + b"Host: x\r\n\r\n" + HIDDEN)
                blob = read_until_closed(sock)
            finally:
                sock.close()
        assert status_lines(blob) == [status]
        assert b"Connection: close" in blob

    def test_refused_body_gets_its_413(self):
        """A body over the cap is answered 413 and the client gets the
        answer: the server reads and drops the rest of the body before
        closing, so a client still sending never sees a reset instead.
        One attempt per POST, so a lost reply would raise
        ``IngestGaveUp`` rather than ``ClientError``."""
        with self._server(StubIngestAPI()) as server:
            transport = HTTPTransport(server.host, server.port, timeout=10.0)
            client = IngestClient(transport, max_attempts=1)
            try:
                for size, posts in ((2 << 20, 40), (8 << 20, 5)):
                    record = LogRecord(
                        timestamp=1.0, location="R00-M0-N0",
                        severity=Severity.INFO, message="x" * size,
                    )
                    for _ in range(posts):
                        with pytest.raises(ClientError) as err:
                            client.send_batch("t0", [record])
                        assert err.value.status == 413
            finally:
                transport.close()

    def test_silent_refused_body_frees_its_thread(self):
        """A client that declares a huge body and sends nothing gets its
        413 at once, and its handler thread is free within one request
        timeout although the client keeps the connection open."""
        timeout = 0.3
        with self._server(StubIngestAPI(), timeout=timeout) as server:
            sock = socket.create_connection(
                (server.host, server.port), timeout=5)
            try:
                t0 = time.monotonic()
                sock.sendall(b"POST /ingest/t0 HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: %d\r\n\r\n" % (1 << 40))
                # the reply ends with the server's half-close
                assert status_lines(read_until_closed(sock)) == [b"413"]
                while server._httpd._open and time.monotonic() - t0 < 5:
                    time.sleep(0.01)
                freed = time.monotonic() - t0
            finally:
                sock.close()
        assert freed < timeout + 1.0, freed

    def test_idle_close_is_not_a_request_timeout(self):
        with self._server(StubIngestAPI(), timeout=0.2) as server:
            sock = socket.create_connection(
                (server.host, server.port), timeout=5)
            try:
                sock.sendall(b"POST /ingest/t0 HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 2\r\n\r\nok")
                # answered, kept open, then closed once idle for 0.2 s
                blob = read_until_closed(sock)
            finally:
                sock.close()
        assert status_lines(blob) == [b"200"]
        assert b"Connection: close" not in blob
        assert obs.counter("telemetry.request_timeouts").value == 0

    @pytest.mark.parametrize("after_one", [False, True])
    def test_stalled_request_still_counts(self, after_one):
        """A silent new connection, or a second request whose headers
        never end, is a stalled client whichever request it is."""
        with self._server(StubIngestAPI(), timeout=0.2) as server:
            sock = socket.create_connection(
                (server.host, server.port), timeout=5)
            try:
                if after_one:
                    sock.sendall(b"POST /ingest/t0 HTTP/1.1\r\nHost: x\r\n"
                                 b"Content-Length: 2\r\n\r\nok"
                                 b"POST /ingest/t0 HTTP/1.1\r\nHost: x\r\n")
                read_until_closed(sock)
            finally:
                sock.close()
        assert obs.counter("telemetry.request_timeouts").value == 1

    def test_concurrent_clients_each_keep_their_connection(self):
        """Clients outnumbering the cores, switching threads often: each
        is served by one handler thread of its own, and every connection
        leaves the server's open set once its client closes it."""
        api = RecordingAPI()
        clients, writes = 6, 10
        errors = []

        def client(n, server):
            transport = HTTPTransport(server.host, server.port, timeout=5.0)
            try:
                for _ in range(writes):
                    resp = transport.request("POST", "/ingest/t0", b"x" * n)
                    assert resp.status == 200
                    assert resp.json()["bytes"] == n
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                transport.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._server(api) as server:
                threads = [threading.Thread(target=client, args=(n, server))
                           for n in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                deadline = time.monotonic() + 5.0
                while server._httpd._open and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not server._httpd._open
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        served = Counter(api.threads)
        assert sorted(served.values()) == [writes] * clients

    def test_nagle_is_off(self):
        """With Nagle on, each reply's body waits out the client's
        delayed ACK (~40 ms); 30 writes must take nowhere near that."""
        with self._server(StubIngestAPI()) as server:
            transport = HTTPTransport(server.host, server.port, timeout=5.0)
            try:
                transport.request("POST", "/ingest/t0", b"warm")
                t0 = time.perf_counter()
                for _ in range(30):
                    resp = transport.request("POST", "/ingest/t0", b"x" * 64)
                    assert resp.status == 200
                elapsed = time.perf_counter() - t0
            finally:
                transport.close()
        assert elapsed < 30 * 0.040 / 2, elapsed

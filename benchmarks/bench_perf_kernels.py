"""Performance benchmarks of the online-path kernels.

The online phase must keep its analysis window small (section VI.A), so
the per-kernel throughputs are tracked as benchmarks in their own right:
message classification (online HELO), signal extraction, the causal
median filter and the detector bank (its ``ingest``-shaped steps, its
``stream``-shaped calls and its checkpoint text), outlier-train correlation, and the ingest wire's
NDJSON encode and decode.  These are the numbers to
watch when modifying the hot paths — the repository's equivalent of the
paper's "having a low execution time is a requirement for the on-line
modules".
"""

import json

import numpy as np
import pytest

from repro.fleet.ingest import decode_batch, encode_records
from repro.helo.online import OnlineHELO
from repro.helo.tokenizer import raw_tokens
from repro.signals.bank import VectorizedDetectorBank
from repro.signals.crosscorr import correlate_outlier_trains
from repro.signals.extraction import extract_signals
from repro.signals.outliers import (
    OnlineOutlierDetector,
    OnlinePeriodicDetector,
)
from tests.reference import codec as codec_oracle
from tests.reference.matching import observe_linear


def test_perf_online_classification(bg, elsa_bg, benchmark):
    """Messages/second through the online HELO matcher (indexed)."""
    messages = [r.message for r in bg.test_records[:20000]]
    table = elsa_bg._online_helo.table

    def classify():
        helo = OnlineHELO(table=table)
        return helo.observe_many(messages)

    ids = benchmark.pedantic(classify, rounds=2, iterations=1)
    hit_rate = sum(1 for i in ids if i is not None) / len(ids)
    assert hit_rate > 0.95  # the mined table covers the stream


def test_perf_template_match_linear(bg, elsa_bg, benchmark):
    """Same classification through the linear-scan oracle.

    Tracked alongside :func:`test_perf_online_classification` so the
    index's speedup (and any regression of it) is visible in the
    benchmark history.
    """
    messages = [r.message for r in bg.test_records[:20000]]
    table = elsa_bg._online_helo.table

    def classify():
        helo = OnlineHELO(table=table)
        return [observe_linear(helo, m) for m in messages]

    ids = benchmark.pedantic(classify, rounds=2, iterations=1)
    hit_rate = sum(1 for i in ids if i is not None) / len(ids)
    assert hit_rate > 0.95


def test_perf_columnar_parse(bg, benchmark):
    """Lines/second through the columnar batch tokenizer.

    The parse half of the end-to-end columnar claim: raw text lines to
    a :class:`RecordBatch` with cached token lists, no ``LogRecord``
    objects anywhere.
    """
    from repro.helo.batch import parse_lines_batch

    lines = [r.format_line() for r in bg.test_records[:20000]]

    batch = benchmark.pedantic(
        parse_lines_batch, args=(lines,), rounds=2, iterations=1
    )
    assert len(batch) == len(lines)


def test_perf_columnar_template_match(bg, elsa_bg, benchmark):
    """Messages/second through the batched template matcher.

    The columnar analogue of :func:`test_perf_online_classification`:
    one ``observe_tokens_batch`` call over token tuples built by
    ``raw_tokens``, as the batch parser builds them, instead of a
    Python loop of per-message lookups.
    """
    token_lists = [raw_tokens(r.message) for r in bg.test_records[:20000]]
    table = elsa_bg._online_helo.table

    def classify():
        helo = OnlineHELO(table=table)
        return helo.observe_tokens_batch(token_lists)

    ids = benchmark.pedantic(classify, rounds=2, iterations=1)
    hit_rate = float((ids >= 0).mean())
    assert hit_rate > 0.95


def test_perf_columnar_feed_binning(bg, elsa_bg, benchmark):
    """Records/second through the batched feed over a RecordBatch.

    Isolates the columnar sample-binning half of the pipeline: the
    timestamps array bins straight into detector-bank ticks without a
    record-object loop (classification is precomputed and excluded).
    """
    from repro.columnar import RecordBatch

    records = RecordBatch.from_records(bg.test_records)
    ids = elsa_bg.classify(records)

    def run():
        pred = elsa_bg.streaming_predictor(
            t_start=bg.train_end, t_end=bg.t_end
        )
        for a in range(0, len(records), 4096):
            pred.feed(records[a:a + 4096], ids[a:a + 4096])
        return pred.finish()

    preds = benchmark.pedantic(run, rounds=2, iterations=1)
    assert preds


def test_perf_signal_extraction(bg, benchmark):
    """Records/second into the sparse signal matrix."""
    from repro.columnar import RecordBatch

    window = bg.test_records[:100000]
    records = RecordBatch.from_records(window)
    ids = np.array([-1 if r.event_type is None else r.event_type
                    for r in window], dtype=np.int64)

    result = benchmark.pedantic(
        extract_signals,
        args=(records, ids),
        kwargs={"n_types": 220,
                "t_start": float(records.timestamps[0]),
                "t_end": float(records.timestamps[-1]) + 10.0},
        rounds=3,
        iterations=1,
    )
    assert result.total_counts().sum() == len(records)


def test_perf_online_median_filter(benchmark):
    """Samples/second through the causal dual-window median filter."""
    rng = np.random.default_rng(0)
    signal = rng.poisson(2.0, 50000).astype(float)

    def scan():
        det = OnlineOutlierDetector(threshold=8.0, window=4000)
        return det.process_array(signal)

    result = benchmark.pedantic(scan, rounds=2, iterations=1)
    assert result.flags.size == signal.size


def test_perf_detector_bank_tick_many(benchmark):
    """Samples/second through the vectorized detector bank.

    The batch analogue of :func:`test_perf_online_median_filter`: eight
    anchors' dual windows stepped together through ``tick_many``.
    """
    rng = np.random.default_rng(2)
    x = rng.poisson(2.0, size=(8, 50000)).astype(np.float64)

    def scan():
        bank = VectorizedDetectorBank(
            [OnlineOutlierDetector(threshold=8.0, window=4000)
             for _ in range(8)]
        )
        return bank.tick_many(x)

    flags, _corrected = benchmark.pedantic(scan, rounds=2, iterations=1)
    assert flags.shape == x.shape


#: an ``ingest`` tenant's bank: nine quiet median anchors, one with a
#: wider threshold and one periodic anchor; a day-long window; 4,535
#: samples (the tenant's whole stream, so every block is insert-only)
#: fed in shard steps of 110 samples, over five tenants (~205 calls)
INGEST_SAMPLES, INGEST_STEP, INGEST_TENANTS = 4535, 110, 5


def _ingest_detectors():
    return [
        OnlineOutlierDetector(threshold=t, window=8640, warmup=30)
        for t in [0.5] * 9 + [1.5]
    ] + [OnlinePeriodicDetector(period=360, amplitude=1.0)]


def _ingest_signals(seed):
    """Sparse anchor counts: 1-3 in 0.2% of samples, one 40-sample
    burst, and a beat every 360 samples on the periodic anchor."""
    rng = np.random.default_rng(seed)
    x = np.zeros((11, INGEST_SAMPLES))
    hits = rng.random((10, INGEST_SAMPLES)) < 0.002
    x[:10][hits] = rng.integers(1, 4, int(hits.sum()))
    t = int(rng.integers(100, INGEST_SAMPLES - 40))
    x[int(rng.integers(0, 10)), t:t + 40] = rng.integers(5, 40, 40)
    x[10, ::360] = 1.0
    return x


def test_perf_detector_bank_ingest_steps(benchmark):
    """The insert-only kernel as ``ingest`` drives it: every tenant's
    bank stepped ~110 samples a call over its whole stream, equal to
    the scalar detectors."""
    streams = [_ingest_signals(seed) for seed in range(INGEST_TENANTS)]

    def scan():
        out = []
        for x in streams:
            bank = VectorizedDetectorBank(_ingest_detectors())
            steps = [
                bank.tick_many(x[:, a:a + INGEST_STEP])
                for a in range(0, INGEST_SAMPLES, INGEST_STEP)
            ]
            out.append(tuple(
                np.concatenate(part, axis=1) for part in zip(*steps)
            ))
        return out

    results = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert any(flags.any() for flags, _ in results)
    for x, (flags, corrected) in zip(streams, results):
        for i, det in enumerate(_ingest_detectors()):
            ref = det.process_array(x[i])
            np.testing.assert_array_equal(flags[i], ref.flags)
            np.testing.assert_array_equal(corrected[i], ref.corrected)


#: a ``stream`` pass's bank: one periodic anchor (a heartbeat every 6
#: samples) and five quiet median anchors; a day-long window; 20,736
#: samples (2.4 windows, so 60% of them in blocks that evict) in calls
#: of 600-800 samples, as 4096-record feeds close them
STREAM_SAMPLES = 20736


def _stream_detectors():
    return [OnlinePeriodicDetector(period=6, amplitude=1.0)] + [
        OnlineOutlierDetector(threshold=0.5, window=8640, warmup=30)
        for _ in range(5)
    ]


def _stream_signals(seed):
    """Heartbeats with a few missed, sparse 1-3 counts on the median
    anchors, and six 12-sample storms of 5-72 on the last one."""
    rng = np.random.default_rng(seed)
    x = np.zeros((6, STREAM_SAMPLES))
    x[0, ::6] = 1.0
    x[0, rng.choice(np.arange(0, STREAM_SAMPLES, 6), 10)] = 0.0
    hits = rng.random((5, STREAM_SAMPLES)) < 0.004
    x[1:][hits] = rng.integers(1, 4, int(hits.sum()))
    for t in rng.integers(0, STREAM_SAMPLES - 12, 6):
        x[5, t:t + 12] = rng.integers(5, 73, 12)
    return x


def test_perf_detector_bank_stream_calls(benchmark):
    """The bank as ``stream`` drives it: ~700-sample calls over 2.4
    windows, most of them evicting, equal to the scalar detectors."""
    x = _stream_signals(0)
    rng = np.random.default_rng(1)
    cuts = [0]
    while cuts[-1] < STREAM_SAMPLES:
        step = int(rng.integers(600, 801))
        cuts.append(min(STREAM_SAMPLES, cuts[-1] + step))

    def scan():
        bank = VectorizedDetectorBank(_stream_detectors())
        calls = [bank.tick_many(x[:, a:b]) for a, b in zip(cuts, cuts[1:])]
        return tuple(np.concatenate(part, axis=1) for part in zip(*calls))

    flags, corrected = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert flags[1:, 8640:].any()
    for i, det in enumerate(_stream_detectors()):
        ref = det.process_array(x[i])
        np.testing.assert_array_equal(flags[i], ref.flags)
        np.testing.assert_array_equal(corrected[i], ref.corrected)


def test_perf_detector_bank_encode(benchmark):
    """One checkpoint's detector block: ``state_dicts`` and
    ``json.dumps`` of an ``ingest`` tenant's bank at the end of its
    stream (4,535-sample rings), equal to the scalar detectors'."""
    x = _ingest_signals(0)
    bank = VectorizedDetectorBank(_ingest_detectors())
    bank.tick_many(x)
    scalars = _ingest_detectors()
    for i, det in enumerate(scalars):
        det.process_array(x[i])

    text = benchmark.pedantic(
        lambda: json.dumps(bank.state_dicts()), rounds=20, iterations=1
    )
    assert text == json.dumps([d.state_dict() for d in scalars])


def test_perf_streaming_end_to_end(bg, elsa_bg, benchmark):
    """Records/second through classify + feed + finish (the engine).

    The headline number: the whole online pipeline consuming the test
    window in checkpoint-sized chunks.  ``benchmarks/perf_smoke.py``
    tracks the same figure standalone with a regression gate.
    """
    from repro.columnar import RecordBatch

    records = RecordBatch.from_records(bg.test_records)
    ids = elsa_bg.classify(records)

    def run():
        pred = elsa_bg.streaming_predictor(
            t_start=bg.train_end, t_end=bg.t_end
        )
        for a in range(0, len(records), 4096):
            pred.feed(records[a:a + 4096], ids[a:a + 4096])
        return pred.finish()

    preds = benchmark.pedantic(run, rounds=2, iterations=1)
    assert preds  # the scenario must still produce predictions


def test_perf_pair_correlation(benchmark):
    """Outlier-train pair correlations/second (level-1 seeding kernel)."""
    rng = np.random.default_rng(1)
    a = np.sort(rng.choice(100000, 500, replace=False)).astype(np.int64)
    b = np.sort(rng.choice(100000, 800, replace=False)).astype(np.int64)

    pc = benchmark(correlate_outlier_trains, a, b, 360, 2, 0.35, 3)
    # unrelated dense trains may or may not correlate; the call must
    # simply stay cheap — asserted implicitly by the benchmark budget
    assert pc is None or pc.n_a == 500


#: records per ingest write, as ``perfbench``'s ingest client sends them
INGEST_BATCH = 64


def _ingest_batches(bg):
    records = bg.test_records[:20000]
    return [records[a:a + INGEST_BATCH]
            for a in range(0, len(records), INGEST_BATCH)]


def _rows(batch):
    # every field: LogRecord equality compares timestamps only
    return [(r.timestamp, r.location, r.severity, r.message)
            for r in batch.to_records()]


def test_perf_ingest_encode(bg, benchmark):
    """Records/second through the client's NDJSON encoder, 64 a batch.

    Tracked alongside :func:`test_perf_ingest_encode_oracle`, the
    ``json.dumps``-per-record form it must match byte for byte.
    """
    batches = _ingest_batches(bg)

    bodies = benchmark.pedantic(
        lambda: [encode_records(b) for b in batches], rounds=3, iterations=1
    )
    assert bodies == [codec_oracle.encode_records(b) for b in batches]


def test_perf_ingest_encode_oracle(bg, benchmark):
    """The same encoding through the field-by-field oracle."""
    batches = _ingest_batches(bg)

    bodies = benchmark.pedantic(
        lambda: [codec_oracle.encode_records(b) for b in batches],
        rounds=3, iterations=1,
    )
    assert len(bodies) == len(batches)


def test_perf_ingest_decode(bg, benchmark):
    """Records/second through the server's NDJSON decoder, 64 a batch.

    Tracked alongside :func:`test_perf_ingest_decode_oracle`; both
    must produce the same records.
    """
    bodies = [codec_oracle.encode_records(b) for b in _ingest_batches(bg)]

    decoded = benchmark.pedantic(
        lambda: [decode_batch(b) for b in bodies], rounds=3, iterations=1
    )
    expected = [codec_oracle.decode_batch(b) for b in bodies]
    assert [_rows(d) for d in decoded] == [_rows(e) for e in expected]


def test_perf_ingest_decode_oracle(bg, benchmark):
    """The same decoding through the field-by-field oracle."""
    bodies = [codec_oracle.encode_records(b) for b in _ingest_batches(bg)]

    decoded = benchmark.pedantic(
        lambda: [codec_oracle.decode_batch(b) for b in bodies],
        rounds=3, iterations=1,
    )
    assert sum(len(d) for d in decoded) == 20000

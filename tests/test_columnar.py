"""Columnar equivalence: parse, sanitize, feed, recover.

``RecordBatch`` is the only record shape below the entry points, so
every stage must emit exactly what its record-at-a-time oracle does.
Parse and sanitize are proven by property — hypothesis drives malformed
and non-finite lines, skew-window reorder, exact duplicates, rate-limit
bursts and silent gaps into the product and into ``parse_log_line`` /
``tests/reference/sanitize.py``, and demands equal output, stats and
dead letters, and a token column that follows its rows through both;
the lenient parser is also fuzzed on arbitrary text, and after a
collection the cyclic collector must no longer track the token column.
The batch classifier is proven the same way against the linear-scan
``observe_linear``, ids and final matcher state both.  Feed,
mid-stream checkpoint/resume, and the fleet's chaos-kill replay over
batch payloads are proven end-to-end on the shared scenario.
"""

import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.columnar import RecordBatch
from repro.helo.batch import parse_lines_batch
from repro.helo.online import OnlineHELO
from repro.helo.template import MinedTemplate, TemplateTable
from repro.helo.tokenizer import raw_tokens
from repro.resilience.checkpoint import ResumableRun, load_checkpoint
from repro.resilience.stream import ResilienceConfig, sanitize_batch
from repro.simulation.trace import LogRecord, Severity, parse_log_line
from tests.reference.engines import batch_predict
from tests.reference.matching import observe_linear
from tests.reference.sanitize import sanitize_records


def pred_json(predictions):
    return json.dumps([p.to_dict() for p in predictions])


def rec_tuple(r):
    return (
        r.timestamp, r.location, int(r.severity), r.message,
        r.event_type, r.fault_id,
    )


# -- parse: malformed lines --------------------------------------------------

_LOCS = st.sampled_from(
    ["R01-M0-N3", "R01-M1-N7", "R23-M0-N0", "rack-9"]
)
_MSG = st.lists(
    st.sampled_from(
        ["ciod", "error", "cache", "0x0040", "parity", "interrupt"]
    ),
    min_size=1, max_size=6,
).map(" ".join)

#: things real ingest sees: blanks, truncated rows, junk and non-finite
#: timestamps, unknown severities — every one must be judged identically
#: by the columnar tokenizer and ``parse_log_line``
_MALFORMED = st.sampled_from([
    "",
    "   ",
    "notanumber R00-M0 INFO hi",
    "inf R00-M0 INFO hi",
    "-Infinity R00-M0 FAILURE hi",
    "nan R00-M0 INFO hi",
    "1e999 R00-M0 INFO hi",
    "1.5 R00-M0 NOTASEV hi",
    "1.5 R00-M0 INFO",
    "justoneword",
    "1.5 R00-M0",
])


@st.composite
def _valid_lines(draw):
    ts = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    sev = draw(st.sampled_from(list(Severity)))
    return f"{ts:.3f} {draw(_LOCS)} {sev.name} {draw(_MSG)}"


def _parse_reference(lines, lenient):
    out = []
    for line in lines:
        try:
            rec = parse_log_line(line)
        except ValueError:
            if not lenient:
                raise
            continue
        if rec is not None:
            out.append(rec)
    return out


class TestParseEquivalence:
    @given(st.lists(st.one_of(_valid_lines(), _MALFORMED), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_lenient_parse_matches_scalar(self, lines):
        batch = parse_lines_batch(lines, lenient=True)
        expect = _parse_reference(lines, lenient=True)
        assert [rec_tuple(r) for r in batch.to_records()] == (
            [rec_tuple(r) for r in expect]
        )
        assert batch.token_lists == [raw_tokens(m) for m in batch.messages]

    @given(st.lists(st.one_of(_valid_lines(), _MALFORMED), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_strict_parse_rejects_the_same_lines(self, lines):
        try:
            expect = _parse_reference(lines, lenient=False)
        except ValueError:
            with pytest.raises(ValueError):
                parse_lines_batch(lines, lenient=False)
            return
        batch = parse_lines_batch(lines, lenient=False)
        assert [rec_tuple(r) for r in batch.to_records()] == (
            [rec_tuple(r) for r in expect]
        )


class TestParseFuzz:
    @given(st.lists(
        st.one_of(
            _valid_lines(),
            _MALFORMED,
            st.text(max_size=40),
            st.builds(
                "{} {} INFO {}".format,
                st.text(max_size=12),
                _LOCS,
                _MSG,
            ),
        ),
        max_size=30,
    ))
    @settings(max_examples=200, deadline=None)
    def test_lenient_parse_never_raises_and_counts_every_line(self, lines):
        obs.reset()
        batch = parse_lines_batch(lines, lenient=True)
        counted = obs.counter("ingest.malformed_lines").value
        non_blank = sum(1 for line in lines if line.strip())
        assert len(batch) + counted == non_blank
        assert np.isfinite(batch.timestamps).all()
        obs.reset()


# -- sanitize: skew-window reorder, duplicates, bursts, gaps -----------------


@st.composite
def _hostile_streams(draw):
    """Mostly-sorted streams with stragglers, duplicates, bursts and
    silences; half of them under a rate limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(5, 120))
    skew = draw(st.sampled_from([30.0, 120.0]))
    # inter-arrival spacing: bursts to quiet, occasionally past the gap
    # threshold; streams may start before the epoch
    steps = rng.exponential(draw(st.sampled_from([0.5, 20.0])), n)
    steps[rng.random(n) < 0.05] += draw(
        st.sampled_from([400.0, 1200.0])
    )
    ts = draw(st.sampled_from([-500.0, 1000.0])) + np.cumsum(steps)
    # skew-window reorder: pull some rows back, a few beyond the
    # window (late stragglers the stream must quarantine)
    jitter = rng.random(n)
    ts[jitter < 0.25] -= rng.uniform(0.0, skew, (jitter < 0.25).sum())
    ts[jitter > 0.92] -= skew * rng.uniform(2.0, 5.0, (jitter > 0.92).sum())
    locs = rng.choice(["R01-M0", "R01-M1", "R23-M0"], n)
    sev_pool = [Severity.INFO, Severity.WARNING, Severity.SEVERE]
    sevs = rng.integers(0, len(sev_pool), n)
    msgs = rng.choice(["ciod error", "parity", "cache miss"], n)
    records = [
        LogRecord(
            float(ts[i]), str(locs[i]), sev_pool[sevs[i]], str(msgs[i])
        )
        for i in range(n)
    ]
    # exact duplicates (same timestamp, location, severity, message)
    for i in rng.choice(n, max(1, n // 10), replace=False):
        records.insert(int(i), records[int(i)])
    cfg = ResilienceConfig(
        skew_window_seconds=skew,
        gap_threshold_seconds=draw(st.sampled_from([300.0, 900.0])),
        clock_jump_seconds=draw(st.sampled_from([600.0, 3600.0])),
        # fractional budgets included (0.25 × 10 s = 2.5 records)
        max_rate_per_second=draw(st.sampled_from([0.0, 0.0, 0.25, 1.0])),
        rate_window_seconds=draw(st.sampled_from([10.0, 7.5])),
        overflow_stride=draw(st.sampled_from([1, 3, 10])),
    )
    return records, cfg


class TestSanitizeEquivalence:
    @given(_hostile_streams())
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_object_stream(self, case):
        records, cfg = case
        clean_obj, stream = sanitize_records(records, cfg)
        clean_col, stats = sanitize_batch(
            RecordBatch.from_records(records), cfg
        )
        assert [rec_tuple(r) for r in clean_col.to_records()] == (
            [rec_tuple(r) for r in clean_obj]
        )
        assert stats == dict(stream.stats)

    @given(_hostile_streams())
    @settings(max_examples=40, deadline=None)
    def test_token_column_follows_its_rows(self, case):
        # dedupe and reorder ``take`` rows and gap markers are inserted:
        # every output row must still carry its own message's tokens
        records, cfg = case
        batch = parse_lines_batch([r.format_line() for r in records])
        clean, _ = sanitize_batch(batch, cfg)
        for b in (batch, clean):
            assert b.token_lists == [raw_tokens(m) for m in b.messages]

    @given(_hostile_streams())
    @settings(max_examples=20, deadline=None)
    def test_dead_letters_match(self, case):
        records, cfg = case
        _, stream = sanitize_records(records, cfg)
        letters = []
        sanitize_batch(
            RecordBatch.from_records(records), cfg, dead_letters=letters
        )
        assert [(d.reason, d.payload) for d in letters] == (
            [(d.reason, d.payload) for d in stream.dead_letters]
        )

    @given(_hostile_streams())
    @settings(max_examples=20, deadline=None)
    def test_strict_mode_raises_identically(self, case):
        records, cfg = case
        strict = dataclasses.replace(cfg, strict=True)
        obj_err = col_err = None
        try:
            clean_obj, _ = sanitize_records(records, strict)
        except ValueError as exc:
            obj_err = str(exc)
        try:
            clean_col, _ = sanitize_batch(
                RecordBatch.from_records(records), strict
            )
        except ValueError as exc:
            col_err = str(exc)
        assert obj_err == col_err
        if obj_err is None:
            assert [rec_tuple(r) for r in clean_col.to_records()] == (
                [rec_tuple(r) for r in clean_obj]
            )


class TestTokenColumnUntracked:
    def test_collector_stops_tracking_the_token_column(self):
        # a batch keeps one token sequence per record for a whole pass;
        # tuples of strings leave the collector's lists, lists never do
        lines = [
            f"{100.0 + i:.3f} R0{i % 4}-M0 INFO ciod error {i} on node {i % 7}"
            for i in range(3000)
        ]
        lines.append("5000.000 R00-M0 SEVERE parity error after silence")
        batch = parse_lines_batch(lines)
        clean, stats = sanitize_batch(
            batch, ResilienceConfig(gap_threshold_seconds=600.0)
        )
        assert stats["markers_emitted"] == 1
        assert len(clean) == len(batch) + 1
        gc.collect()
        for b in (batch, clean):
            assert sum(gc.is_tracked(t) for t in b.token_lists) == 0


# -- classify: raw token lists == the linear scan over the message -----------

#: normalized template constants -> raw tokens that normalize to them
#: (mixed case, ``key:value`` and ``key=value`` fields); ``None`` lists
#: the raw tokens that normalize to a wildcard (numbers, hex, paths)
_RAW_FORMS = {
    "ciod": ["ciod", "CIOD", "Ciod"],
    "error": ["error", "Error"],
    "cache": ["cache", "CACHE"],
    "parity": ["parity"],
    "1:136": ["1:136"],
    "lr:*": ["lr:0x5e3a91", "LR:42", "lr:7.5"],
    "pc=*": ["pc=12", "PC=0xff"],
    None: ["42", "-3.5", "0x1f", "dead1", "/var/log/x", "BEEF2"],
}
_CONSTS = sorted(k for k in _RAW_FORMS if k is not None)
_ANY_RAW = st.sampled_from(sorted(t for ts in _RAW_FORMS.values() for t in ts))


@st.composite
def _classify_cases(draw):
    """A table of up to 40 templates and raw token lists to classify.

    Token lists render a template (a hit), render one with a position
    replaced (a near miss, which generalizes that template), or are
    novel and repeated up to three times in a row (evidence that mints
    a new template in the middle of the batch).
    """
    table = TemplateTable()
    for _ in range(draw(st.integers(1, 40))):
        tokens = [
            draw(st.sampled_from(_CONSTS)) if draw(st.booleans()) else None
            for _ in range(draw(st.integers(1, 8)))
        ]
        if all(t is None for t in tokens):
            tokens[0] = draw(st.sampled_from(_CONSTS))
        table.add(MinedTemplate(tokens=tuple(tokens), support=1))
    token_lists = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["hit", "near", "novel"]))
        if kind == "novel":
            toks = [draw(_ANY_RAW) for _ in range(draw(st.integers(0, 8)))]
            token_lists.extend([toks] * draw(st.integers(1, 3)))
            continue
        tpl = table[draw(st.integers(0, len(table) - 1))]
        toks = [
            draw(_ANY_RAW) if c is None else draw(st.sampled_from(_RAW_FORMS[c]))
            for c in tpl.tokens
        ]
        if kind == "near":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(_ANY_RAW)
        token_lists.append(toks)
    return table, token_lists


class TestClassifyEquivalence:
    @given(_classify_cases(), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_batch_classifier_matches_linear_observe(self, case, chunk):
        """``observe_tokens_batch`` gives the ids and leaves the state
        that ``observe_linear`` over the joined messages does."""
        table, token_lists = case
        batch_helo = OnlineHELO(table=TemplateTable.from_dict(table.to_dict()))
        linear_helo = OnlineHELO(table=TemplateTable.from_dict(table.to_dict()))
        ids = []
        for i in range(0, len(token_lists), chunk):
            ids.extend(
                batch_helo.observe_tokens_batch(
                    token_lists[i : i + chunk]
                ).tolist()
            )
        expect = [
            observe_linear(linear_helo, " ".join(toks)) for toks in token_lists
        ]
        assert ids == [-1 if tid is None else tid for tid in expect]
        assert batch_helo.state_dict() == linear_helo.state_dict()


# -- feed, checkpoint/resume, chaos replay on the shared scenario ------------


@pytest.fixture()
def _restore_state(fitted_elsa):
    """Snapshot HELO state around each test."""
    helo_state = fitted_elsa.online_state_dict()
    yield
    fitted_elsa.restore_online_state(helo_state)


class TestFeedEquivalence:
    def test_batch_feed_equals_object_feed(
        self, fitted_elsa, small_scenario, _restore_state
    ):
        """Record objects and a RecordBatch through ``ResumableRun``
        both equal the whole-window batch oracle, byte for byte."""
        helo_state = fitted_elsa.online_state_dict()
        sc = small_scenario
        stream = fitted_elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        expect, _ = batch_predict(fitted_elsa.hybrid_predictor(), stream)
        assert expect
        for records in (
            sc.test_records, RecordBatch.from_records(sc.test_records)
        ):
            fitted_elsa.restore_online_state(helo_state)
            run = ResumableRun(fitted_elsa, sc.train_end, sc.t_end)
            assert pred_json(run.run(records)) == pred_json(expect)

    def test_mid_stream_checkpoint_resume_on_batches(
        self, fitted_elsa, small_scenario, _restore_state, tmp_path
    ):
        """Kill a columnar run mid-stream; the resume stays identical."""
        helo_state = fitted_elsa.online_state_dict()
        test = small_scenario.test_records
        batch = RecordBatch.from_records(small_scenario.records)

        run = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end
        )
        expect = run.run(test)
        fitted_elsa.restore_online_state(helo_state)

        ckpt = tmp_path / "columnar.ckpt.json"
        run1 = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end,
            checkpoint_path=ckpt, checkpoint_every=500,
        )
        run1.process(batch, limit=1500)
        assert run1.predictor.n_records_fed == 1500
        del run1  # the "crash"

        fitted_elsa.restore_online_state(helo_state)
        run2 = ResumableRun.resume(fitted_elsa, load_checkpoint(ckpt))
        assert run2.predictor.n_records_fed == 1500
        resumed = run2.run(batch)
        assert pred_json(resumed) == pred_json(expect)

    def test_chaos_kill_replay_on_batch_payloads(
        self, fitted_elsa, small_scenario, _restore_state, tmp_path
    ):
        """A shard killed mid-batch recovers byte-identically.

        The fleet routes one RecordBatch end to end (segments through
        router, queue and replay buffer); a chaos kill forces the
        checkpoint + unacked-replay path to re-feed batch slices.
        """
        from repro import obs
        from repro.fleet import (
            Fleet, FleetPolicy, ManualClock, rack_subtree_key,
        )

        obs.reset()
        key = rack_subtree_key(depth=2)
        test = small_scenario.test_records
        batch = RecordBatch.from_records(test)
        tenants = sorted({key(r.location) for r in test})
        helo_state = fitted_elsa.online_state_dict()

        def build(name):
            return Fleet.build(
                fitted_elsa, tenants, small_scenario.train_end,
                small_scenario.t_end, key, tmp_path / name,
                policy=FleetPolicy(jitter_seed=7), clock=ManualClock(),
                register=False,
            )

        base_out = build("base").run(batch)
        fitted_elsa.restore_online_state(helo_state)

        fleet = build("chaos")
        victim = tenants[1]
        fleet.kill(victim, after_records=300)
        out = fleet.run(batch)
        assert fleet.state()["shards"][victim]["restarts"] == 1
        for tenant in tenants:
            assert pred_json(out[tenant]) == pred_json(base_out[tenant])
        obs.reset()

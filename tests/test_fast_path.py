"""Equivalence proofs for the online engine's vectorized kernels.

The indexed template matcher, the vectorized detector bank and the
batched feed are implementation details: every test here pins them to
the scalar reference implementations in ``tests/reference/`` bit for
bit — on random inputs via hypothesis and end-to-end on the shared
scenario, including state-dict / checkpoint round-trips taken
mid-stream and shuffled whole-window streams through
``HybridPredictor.run``.
"""

import copyreg
import json
import pickle
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.helo.template import MinedTemplate, TemplateTable
from repro.prediction.engine import TestStream
from repro.signals.bank import BankLayoutError, VectorizedDetectorBank
from repro.signals.outliers import (
    OnlineOutlierDetector,
    OnlinePeriodicDetector,
    _DualWindow,
    decode_ring,
    restore_detector,
)
from tests.reference.engines import batch_predict, feed_scalar, scalar_engine
from tests.reference.matching import classify_linear, classify_tokens_linear

TOKENS = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]


# ---------------------------------------------------------------------------
# indexed template matcher == linear scan
# ---------------------------------------------------------------------------

@st.composite
def _template_table(draw):
    """A table of up to 30 random templates over a tiny alphabet.

    Shapes collide on purpose (few lengths, small alphabet, frequent
    wildcards) so the dispatch trees branch on two or more positions
    and the min-id tie-break gets exercised.
    """
    table = TemplateTable()
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    # one wildcard in 2 or in 4 positions
    wild_odds = draw(st.sampled_from([2, 4]))
    for _ in range(draw(st.integers(1, 30))):
        length = draw(st.sampled_from(lengths))
        tokens = tuple(
            None if length > 1 and draw(st.integers(1, wild_odds)) == 1
            else draw(st.sampled_from(TOKENS))
            for _ in range(length)
        )
        if all(t is None for t in tokens):
            tokens = (draw(st.sampled_from(TOKENS)),) + tokens[1:]
        table.add(MinedTemplate(tokens=tokens, support=1))
    return table


@st.composite
def _queries(draw, table):
    """Renders of the table's templates, some with one token changed,
    and random token lists."""
    queries = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            tpl = table[draw(st.integers(0, len(table) - 1))]
            q = [
                draw(st.sampled_from(TOKENS)) if t is None else t
                for t in tpl.tokens
            ]
            if draw(st.booleans()):
                q[draw(st.integers(0, len(q) - 1))] = draw(
                    st.sampled_from(TOKENS)
                )
        else:
            q = [
                draw(st.sampled_from(TOKENS))
                for _ in range(draw(st.integers(1, 6)))
            ]
        queries.append(q)
    return queries


@st.composite
def _table_and_queries(draw):
    table = draw(_template_table())
    return table, draw(_queries(table))


def _leaf_entries(node):
    """Entries over every leaf of a dispatch (sub)tree."""
    pos, branch, default = node
    if pos < 0:
        return len(branch)
    return _leaf_entries(default) + sum(
        _leaf_entries(child) for child in branch.values()
    )


class _ParentPickle:
    """Pickles as a ``TemplateTable`` did before the dispatch tree: its
    ``__dict__`` held a one-position index, a lookup memo and a cached
    batch dispatch besides the templates."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        # unpickles as a pickled TemplateTable does: a bare instance,
        # then ``__setstate__`` with the instance's old ``__dict__``
        return (copyreg._reconstructor, (TemplateTable, object, None),
                self.state)


class TestIndexedMatcher:
    @given(_table_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_index_matches_linear_scan(self, case):
        table, queries = case
        for q in queries:
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )

    @given(_table_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_lookup_is_stable(self, case):
        table, queries = case
        first = [table.classify_tokens(q) for q in queries]
        second = [table.classify_tokens(q) for q in queries]
        assert first == second

    @given(_table_and_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_survives_table_mutation(self, case, data):
        """``add``/``replace`` mid-stream invalidate the trees correctly."""
        table, queries = case
        for q in queries:
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )
        length = data.draw(st.integers(1, 6))
        table.add(MinedTemplate(
            tokens=tuple(
                data.draw(st.sampled_from(TOKENS)) for _ in range(length)
            ),
            support=1,
        ))
        tid = data.draw(st.integers(0, len(table) - 1))
        old = table[tid]
        widened = tuple(
            None if i == 0 and len(old.tokens) > 1 else t
            for i, t in enumerate(old.tokens)
        )
        if any(t is not None for t in widened):
            table.replace(tid, MinedTemplate(tokens=widened, support=1))
        for q in queries:
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )

    def test_earlier_wildcard_beats_exact_shape(self):
        table = TemplateTable()
        table.add(MinedTemplate(tokens=("a", None), support=1))
        table.add(MinedTemplate(tokens=("a", "b"), support=1))
        # the wildcarded earlier template wins even for the exact shape
        assert classify_tokens_linear(table, ["a", "b"]) == 0
        assert table.classify_tokens(["a", "b"]) == 0

    def test_dispatch_tree_size_is_bounded(self):
        """A wildcard-heavy bucket stays within the documented size and
        still answers like the linear scan."""
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(20)]
        table = TemplateTable()
        for _ in range(2000):
            table.add(MinedTemplate(
                tokens=tuple(
                    None if rng.random() < 0.3 else str(rng.choice(words))
                    for _ in range(8)
                ),
                support=1,
            ))
        tree = table.dispatch_trees()[8]
        pos = tree[0]
        assert pos >= 0
        at_pos = [tpl.tokens[pos] for tpl in table]
        n_wild = at_pos.count(None)
        n_const = len(set(at_pos) - {None})
        bound = TemplateTable._MAX_GROWTH ** (
            TemplateTable._MAX_DEPTH - 1
        ) * (len(table) + n_const * n_wild)
        assert _leaf_entries(tree) <= bound
        for _ in range(2000):
            q = [str(rng.choice(words)) for _ in range(8)]
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )

    def test_table_pickled_before_the_tree_still_classifies(self):
        """A table pickled with the older index and memo loads, drops
        them, and classifies like the linear scan, also after a change."""
        source = TemplateTable([
            MinedTemplate(tokens=("a", None, "c"), support=1),
            MinedTemplate(tokens=("a", "b", "c"), support=1),
            MinedTemplate(tokens=("d", "e"), support=1),
        ])
        state = {
            "_templates": list(source),
            "_buckets": {3: [0, 1], 2: [2]},
            "_index_dirty": False,
            "_exact": {("a", "b", "c"): 1, ("d", "e"): 2},
            "_disc": {3: (0, {"a": [0]}, [])},
            # a stale memo entry that would answer wrongly if kept
            "_memo": {("a", "b", "c"): 1},
            "generation": 3,
            "_dispatch_cache": None,
        }
        table = pickle.loads(pickle.dumps(_ParentPickle(state)))
        assert not hasattr(table, "_memo")
        queries = [["a", "b", "c"], ["a", "x", "c"], ["d", "e"], ["d", "x"]]
        for q in queries:
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )
        assert table.classify_tokens(["a", "b", "c"]) == 0
        table.add(MinedTemplate(tokens=("d", None), support=1))
        assert table.generation == 4
        for q in queries:
            assert table.classify_tokens(q) == classify_tokens_linear(
                table, q
            )
        assert pickle.loads(pickle.dumps(table)).skeletons() == (
            table.skeletons()
        )


# ---------------------------------------------------------------------------
# vectorized detector bank == scalar detectors, step for step
# ---------------------------------------------------------------------------

def _median_pair(thresholds, window, warmup):
    """(scalar detectors, bank) over fresh median detectors."""
    scalars = [
        OnlineOutlierDetector(threshold=t, window=window, warmup=warmup)
        for t in thresholds
    ]
    bank = VectorizedDetectorBank(
        [OnlineOutlierDetector(threshold=t, window=window, warmup=warmup)
         for t in thresholds]
    )
    return scalars, bank


def _assert_same_step(scalars, bank, column):
    flags, corrected = bank.tick(np.asarray(column, dtype=np.float64))
    for i, det in enumerate(scalars):
        out, co = det.process(float(column[i]))
        assert bool(flags[i]) == out
        assert float(corrected[i]) == co


@st.composite
def _insert_only_case(draw):
    """Eight or more anchors of mixed shape, chunk sizes, and a window
    that only the last chunk crosses.

    Rows: all zero; sparse spikes that flag several times per chunk;
    large counts near the grid's top; small noisy counts; a level shift
    that moves the window median off 0 and back; and noisy counts with
    one off-grid value (a fraction or a count past the grid) that
    demotes the row mid-stream.  Thresholds mix per row.
    """
    chunks = draw(st.lists(st.integers(1, 30), min_size=2, max_size=6))
    n = sum(chunks)
    window = draw(st.integers(max(n - chunks[-1], 1), n - 1))
    warmup = draw(st.integers(0, 6))

    def ints(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    spikes = [0] * n
    for t in draw(st.lists(st.integers(0, n - 1), max_size=12)):
        spikes[t] = draw(st.integers(1, 9))
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start, n))
    level = [
        draw(st.integers(3, 8)) if start <= t < stop else 0
        for t in range(n)
    ]
    off_grid = ints(0, 12)
    off_grid[draw(st.integers(0, n - 1))] = draw(
        st.sampled_from([2.5, 0.25, 700.0])
    )
    streams = [
        [0] * n,
        spikes,
        ints(300, 511),
        ints(0, 12),
        level,
        off_grid,
        list(spikes),
        [min(v, 1) for v in ints(0, 6)],
    ]
    streams += draw(st.lists(
        st.sampled_from(streams[:5]), max_size=2
    ))
    thresholds = draw(st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]),
        min_size=len(streams), max_size=len(streams),
    ))
    # small probe tables split the rows into several groups
    cells = draw(st.sampled_from([64, 1024, 1 << 20]))
    return thresholds, streams, window, warmup, chunks, cells


@st.composite
def _eviction_case(draw):
    """A window much shorter than the stream, and chunk sizes up to three
    windows long, so that most blocks evict from both rings.

    Rows: all zero; sparse spikes that flag inside eviction blocks; a
    300-511 storm that is later evicted; a level shift longer than the
    window; a mostly-zero row of 1s and 3s whose evicted zeros move its
    median off 0 and back; noisy counts; and noisy counts with one
    off-grid value after the first window, demoting the row inside an
    eviction block.  Thresholds mix per row.
    """
    window = draw(st.integers(2, 12))
    n = draw(st.integers(4 * window, 8 * window + 20))
    chunks = []
    while sum(chunks) < n:
        chunks.append(draw(st.integers(1, 3 * window)))
    n = sum(chunks)
    warmup = draw(st.integers(0, 6))

    def ints(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    spikes = [0] * n
    for t in draw(st.lists(st.integers(0, n - 1), max_size=n // 3)):
        spikes[t] = draw(st.integers(1, 9))
    storm = list(spikes)
    start = draw(st.integers(0, n - window - 2))
    for t in range(start, min(n, start + draw(st.integers(1, window)))):
        storm[t] = draw(st.integers(300, 511))
    start = draw(st.integers(0, n - window - 1))
    stop = draw(st.integers(start + window + 1, n))
    level = [
        draw(st.integers(3, 8)) if start <= t < stop else 0
        for t in range(n)
    ]
    mostly_zero = draw(st.lists(
        st.sampled_from([0, 0, 0, 0, 0, 1, 1, 1, 1, 3]),
        min_size=n, max_size=n,
    ))
    off_grid = ints(0, 12)
    off_grid[draw(st.integers(window + 1, n - 1))] = draw(
        st.sampled_from([2.5, 0.25, 700.0])
    )
    streams = [[0] * n, spikes, storm, level, mostly_zero, ints(0, 12),
               off_grid]
    thresholds = draw(st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]),
        min_size=len(streams), max_size=len(streams),
    ))
    block = draw(st.sampled_from([2, 3, 7, 1024]))
    cells = draw(st.sampled_from([16, 64, 1024, 1 << 20]))
    return thresholds, streams, window, warmup, chunks, block, cells


def _production_signals(seed, n=20736):
    """Six anchors' counts over 2.4 one-day windows, as ``stream`` closes
    them: two sparse spiky rows; a row with a 300-511 storm inside the
    first window (evicted a window later) and a 5-40 storm after it; a
    noisy row; a row whose level shift lasts longer than a window; and
    a beat every 360 samples for the periodic anchor."""
    rng = np.random.default_rng(seed)
    x = np.zeros((6, n))
    hits = rng.random((3, n)) < 0.003
    x[:3][hits] = rng.integers(1, 4, int(hits.sum()))
    x[2, 2000:2040] = rng.integers(300, 512, 40)
    x[2, 14000:14060] = rng.integers(5, 41, 60)
    x[3] = rng.poisson(2.0, n)
    x[4, 6000:16000] = rng.integers(2, 5, 10000)
    x[5, ::360] = 1.0
    return x


def _assert_chunks_match_scalars(scalars, bank, streams, chunks):
    """Feed ``streams`` to ``bank`` in ``chunks``; after every chunk the
    flags, corrected values, states and histograms equal the scalar
    detectors' stepped one sample at a time."""
    matrix = np.array(streams, dtype=np.float64)
    a = 0
    for size in chunks:
        block = matrix[:, a:a + size]
        a += size
        flags, corrected = bank.tick_many(block)
        for i, det in enumerate(scalars):
            for j in range(size):
                out, co = det.process(float(block[i, j]))
                assert bool(flags[i, j]) == out
                assert float(corrected[i, j]) == co
        assert json.dumps(bank.state_dicts()) == json.dumps(
            [d.state_dict() for d in scalars]
        )
        _assert_histograms_match_rings(bank)


def _assert_histograms_match_rings(bank):
    """Each vector row's histogram counts exactly its window's values."""
    states = bank.state_dicts()
    for row, i in enumerate(bank._med_ix):
        if row in bank._demoted:
            continue
        dual = states[i]["dual"]
        values = np.concatenate(
            [decode_ring(dual["raw"]), decode_ring(dual["corr"])]
        ).astype(np.int64)
        np.testing.assert_array_equal(
            bank._hist[row],
            np.bincount(values, minlength=bank.grid_limit),
        )


class TestDetectorBank:
    @given(
        st.integers(1, 4),                       # detectors
        st.integers(2, 7),                       # window
        st.integers(0, 4),                       # warmup
        st.lists(st.integers(0, 30), min_size=1, max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_median_bank_matches_scalars(self, n, window, warmup, stream):
        thresholds = [0.5 + 0.5 * i for i in range(n)]
        scalars, bank = _median_pair(thresholds, window, warmup)
        for t, v in enumerate(stream):
            # desynchronize the values across detectors deterministically
            column = [(v + 3 * i + t * i) % 31 for i in range(n)]
            _assert_same_step(scalars, bank, column)

    @given(st.lists(st.integers(0, 30), min_size=5, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_off_grid_values_demote_exactly(self, stream):
        """Values beyond ``grid_limit`` fall back to the scalar detector
        for that anchor without changing a single output."""
        scalar = OnlineOutlierDetector(threshold=1.0, window=4, warmup=2)
        bank = VectorizedDetectorBank(
            [OnlineOutlierDetector(threshold=1.0, window=4, warmup=2)],
            grid_limit=8,  # force demotion on any value >= 8
        )
        for v in stream:
            _assert_same_step([scalar], bank, [v])
        if any(v >= 8 for v in stream):
            assert bank._demoted  # demotion actually happened

    def test_fractional_value_demotes(self):
        scalar = OnlineOutlierDetector(threshold=1.0, window=3, warmup=1)
        bank = VectorizedDetectorBank(
            [OnlineOutlierDetector(threshold=1.0, window=3, warmup=1)]
        )
        for v in [1.0, 2.5, 3.0, 2.5, 9.0, 1.5]:
            _assert_same_step([scalar], bank, [v])
        assert bank._demoted

    @given(
        st.integers(2, 6),                       # period
        st.lists(st.integers(0, 6), min_size=1, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_periodic_bank_matches_scalars(self, period, stream):
        scalars = [
            OnlinePeriodicDetector(period=period, amplitude=2.0),
            OnlinePeriodicDetector(period=period + 1, amplitude=3.0),
        ]
        bank = VectorizedDetectorBank(
            [OnlinePeriodicDetector(period=period, amplitude=2.0),
             OnlinePeriodicDetector(period=period + 1, amplitude=3.0)]
        )
        for t, v in enumerate(stream):
            _assert_same_step(scalars, bank, [v, (v + t) % 7])

    @given(
        st.lists(st.integers(0, 20), min_size=4, max_size=30),
        st.integers(1, 25),
    )
    @settings(max_examples=80, deadline=None)
    def test_state_roundtrip_mid_stream(self, stream, cut):
        """state_dicts -> from_states mid-stream continues identically,
        and the emitted states equal the scalar detectors' own."""
        cut = min(cut, len(stream))
        scalars = [
            OnlineOutlierDetector(threshold=1.0, window=3, warmup=2),
            OnlineOutlierDetector(threshold=2.0, window=3, warmup=2),
        ]
        bank = VectorizedDetectorBank(
            [OnlineOutlierDetector(threshold=1.0, window=3, warmup=2),
             OnlineOutlierDetector(threshold=2.0, window=3, warmup=2)]
        )
        for v in stream[:cut]:
            _assert_same_step(scalars, bank, [v, v + 1])
        states = bank.state_dicts()
        assert json.dumps(states) == json.dumps(
            [d.state_dict() for d in scalars]
        )
        bank = VectorizedDetectorBank.from_states(states)
        scalars = [restore_detector(s) for s in states]
        for v in stream[cut:]:
            _assert_same_step(scalars, bank, [v, v + 1])

    def test_mixed_bank_process_matrix(self, rng):
        dets = [
            OnlineOutlierDetector(threshold=1.5, window=5),
            OnlinePeriodicDetector(period=4, amplitude=2.0),
            OnlineOutlierDetector(threshold=3.0, window=5),
        ]
        x = rng.integers(0, 12, size=(3, 60)).astype(np.float64)
        bank = VectorizedDetectorBank(
            [restore_detector(d.state_dict()) for d in dets]
        )
        flags, corrected = bank.tick_many(x)
        for i, det in enumerate(dets):
            ref = det.process_array(x[i])
            np.testing.assert_array_equal(flags[i], ref.flags)
            np.testing.assert_array_equal(corrected[i], ref.corrected)

    @given(
        st.integers(2, 6),                        # window
        st.integers(0, 3),                        # warmup
        st.lists(st.integers(0, 12), min_size=2, max_size=60),
        st.integers(1, 9),                        # chunk size
    )
    @settings(max_examples=100, deadline=None)
    def test_tick_many_matches_scalars(self, window, warmup, stream, chunk):
        """Chunked ``tick_many`` = the scalar detectors step by step,
        outputs and final checkpoint state alike, for any chunking and
        across internal block boundaries."""
        def mk():
            return [
                OnlineOutlierDetector(
                    threshold=0.5, window=window, warmup=warmup
                ),
                OnlinePeriodicDetector(period=3, amplitude=2.0),
                OnlineOutlierDetector(
                    threshold=1.5, window=window, warmup=warmup
                ),
            ]

        scalars = mk()
        bank = VectorizedDetectorBank(mk())
        bank.TICK_BLOCK = 4  # force multi-block paths on tiny streams
        matrix = np.array(
            [
                [v % 13 for v in stream],
                [(v * t) % 5 for t, v in enumerate(stream)],
                [(v + t) % 13 for t, v in enumerate(stream)],
            ],
            dtype=np.float64,
        )
        for a in range(0, matrix.shape[1], chunk):
            block = matrix[:, a:a + chunk]
            flags, corrected = bank.tick_many(block)
            for i, det in enumerate(scalars):
                for j in range(block.shape[1]):
                    out, co = det.process(float(block[i, j]))
                    assert bool(flags[i, j]) == out
                    assert float(corrected[i, j]) == co
        assert json.dumps(bank.state_dicts()) == json.dumps(
            [d.state_dict() for d in scalars]
        )
        # a single tick() continues seamlessly from tick_many state
        _assert_same_step(scalars, bank, [3.0, 0.0, 7.0])

    @given(
        st.lists(st.integers(0, 12), min_size=4, max_size=30),
        st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_tick_many_demotes_off_grid_mid_chunk(self, stream, where):
        """An off-grid value inside a chunk demotes its anchor without
        perturbing the other rows or the outputs."""
        where = min(where, len(stream) - 1)
        scalars = [
            OnlineOutlierDetector(threshold=1.0, window=4, warmup=2),
            OnlineOutlierDetector(threshold=2.0, window=4, warmup=2),
        ]
        bank = VectorizedDetectorBank(
            [OnlineOutlierDetector(threshold=1.0, window=4, warmup=2),
             OnlineOutlierDetector(threshold=2.0, window=4, warmup=2)],
            grid_limit=16,
        )
        matrix = np.array(
            [stream, [v + 1 for v in stream]], dtype=np.float64
        )
        matrix[0, where] = 99.0  # beyond grid_limit: demotes row 0 only
        flags, corrected = bank.tick_many(matrix)
        for i, det in enumerate(scalars):
            ref = det.process_array(matrix[i])
            np.testing.assert_array_equal(flags[i], ref.flags)
            np.testing.assert_array_equal(corrected[i], ref.corrected)
        assert 0 in bank._demoted and 1 not in bank._demoted
        assert json.dumps(bank.state_dicts()) == json.dumps(
            [d.state_dict() for d in scalars]
        )

    @given(_insert_only_case())
    @settings(max_examples=80, deadline=None)
    def test_insert_only_kernel_matches_scalars(self, case):
        """Every block but the last is insert-only (the window outlasts
        the stream until the last chunk, which crosses into
        evictions): flags, corrected values, states and
        histograms equal the scalar detectors' after every chunk."""
        thresholds, streams, window, warmup, chunks, cells = case
        scalars, bank = _median_pair(thresholds, window, warmup)
        bank.PROBE_CELLS = cells
        _assert_chunks_match_scalars(scalars, bank, streams, chunks)

    @given(_eviction_case())
    @settings(max_examples=80, deadline=None)
    def test_eviction_blocks_match_scalars(self, case):
        """Streams several windows long, in chunks of up to three
        windows: flags, corrected values, states and histograms equal
        the scalar detectors' after every chunk, demotion included."""
        thresholds, streams, window, warmup, chunks, block, cells = case
        scalars, bank = _median_pair(thresholds, window, warmup)
        bank.TICK_BLOCK = block
        bank.PROBE_CELLS = cells
        _assert_chunks_match_scalars(scalars, bank, streams, chunks)
        assert 6 in bank._demoted

    def test_production_window_matches_scalars(self):
        """A ``stream``-shaped bank at the default one-day window, fed
        ~700-sample calls over 2.4 windows: the eviction blocks equal the
        scalar detectors call for call, and the final states alike."""
        x = _production_signals(seed=7)

        def mk():
            return [
                OnlineOutlierDetector(threshold=t, window=8640, warmup=30)
                for t in (0.5, 0.5, 1.5, 3.0, 1.0)
            ] + [OnlinePeriodicDetector(period=360, amplitude=1.0)]

        scalars = mk()
        bank = VectorizedDetectorBank(mk())
        rng = np.random.default_rng(11)
        a = 0
        while a < x.shape[1]:
            block = x[:, a:a + int(rng.integers(600, 800))]
            a += block.shape[1]
            flags, corrected = bank.tick_many(block)
            for i, det in enumerate(scalars):
                ref = det.process_array(block[i])
                np.testing.assert_array_equal(flags[i], ref.flags)
                np.testing.assert_array_equal(corrected[i], ref.corrected)
        assert json.dumps(bank.state_dicts()) == json.dumps(
            [d.state_dict() for d in scalars]
        )

    def test_layout_errors(self):
        with pytest.raises(BankLayoutError):
            VectorizedDetectorBank([])
        with pytest.raises(BankLayoutError):
            VectorizedDetectorBank([
                OnlineOutlierDetector(threshold=1.0, window=3),
                OnlineOutlierDetector(threshold=1.0, window=5),
            ])
        with pytest.raises(BankLayoutError):
            VectorizedDetectorBank([object()])


# ---------------------------------------------------------------------------
# ring text: window rings round-trip bit for bit
# ---------------------------------------------------------------------------

#: floats a JSON float list could not carry bit for bit, or at all
_SPECIAL = [-0.0, 0.0, 5e-324, 1e308, float("inf"), float("-inf"),
            float("nan")]
_ring_value = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(), st.integers(0, 20).map(float)
)


def _bits(values):
    return np.asarray(list(values), dtype="<f8").tobytes()


class TestRingText:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dual_window_round_trip(self, capacity, data):
        raw = data.draw(st.lists(_ring_value, max_size=capacity + 1))
        corr = data.draw(st.lists(_ring_value, max_size=capacity))
        win = _DualWindow(capacity)
        win._raw, win._corr = deque(raw), deque(corr)
        state = json.loads(json.dumps(win.state_dict()))
        assert isinstance(state["raw"], str)
        back = _DualWindow.from_state(state)
        assert _bits(back._raw) == _bits(raw)
        assert _bits(back._corr) == _bits(corr)
        assert back.state_dict() == state

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bank_states_round_trip(self, capacity, n, data):
        """Vector rows (on the grid, ``-0.0`` included) and demoted rows
        (any other float) write their rings bit for bit, and a bank
        rebuilt from the states writes the same states again."""
        n_raw = data.draw(st.integers(0, capacity + 1))
        n_corr = data.draw(st.integers(0, capacity))
        rings = []
        for _ in range(n):
            value = data.draw(st.sampled_from(
                [st.sampled_from([0.0, -0.0, 1.0, 7.0]), _ring_value]
            ))
            rings.append((
                data.draw(st.lists(value, min_size=n_raw, max_size=n_raw)),
                data.draw(st.lists(value, min_size=n_corr, max_size=n_corr)),
            ))
        bank = VectorizedDetectorBank([
            OnlineOutlierDetector.from_state({
                "kind": "median", "threshold": 1.0, "window": capacity,
                "warmup": 2, "seen": n_raw,
                "dual": {"capacity": capacity, "raw": raw, "corr": corr},
            })
            for raw, corr in rings
        ])
        states = json.loads(json.dumps(bank.state_dicts()))
        for state, (raw, corr) in zip(states, rings):
            assert _bits(decode_ring(state["dual"]["raw"])) == _bits(raw)
            assert _bits(decode_ring(state["dual"]["corr"])) == _bits(corr)
        again = VectorizedDetectorBank.from_states(states)
        assert again.state_dicts() == states

    def test_list_rings_still_load(self):
        """A ring written as a JSON float list (the format before the
        ring text) loads to the same window as its text form."""
        win = _DualWindow(4)
        win._raw, win._corr = deque([0.0, 3.0, -0.0]), deque([2.0, 0.5])
        text = win.state_dict()
        listed = {"capacity": 4, "raw": [0.0, 3.0, -0.0], "corr": [2.0, 0.5]}
        assert _DualWindow.from_state(listed).state_dict() == text

    @pytest.mark.parametrize("ring", [
        "not base64!",       # not base64
        "eJwDAAAAAAE",       # padding cut off
        "AAAA",              # not zlib
        "eJxLTEoGAAJNASc=",  # three bytes: not whole float64s
    ])
    def test_corrupt_ring_text_is_a_value_error(self, ring):
        with pytest.raises(ValueError):
            _DualWindow.from_state({"capacity": 2, "raw": ring, "corr": []})


# ---------------------------------------------------------------------------
# end-to-end: the online engine == the scalar references, through checkpoints
# ---------------------------------------------------------------------------

def pred_json(predictions):
    return json.dumps([p.to_dict() for p in predictions])


@pytest.fixture()
def _restore_helo(fitted_elsa):
    """Put the shared session pipeline's HELO state back afterwards."""
    helo_state = fitted_elsa.online_state_dict()
    yield
    fitted_elsa.restore_online_state(helo_state)


def _stream_predictions(elsa, scenario, fast, chunk=700, hop=None):
    """Run one online engine over the test window.

    ``fast=True`` is the product: columnar-indexed classification and
    the engine's own ``feed``.  ``fast=False`` is the record-at-a-time
    reference: a linear template scan, ``feed_scalar`` and per-anchor
    scalar detectors.  ``hop`` round-trips the predictor through
    ``state_dict`` onto a *fresh* instance of the other engine after
    that many chunks — a mid-stream checkpoint crossing the two.
    """
    t0, t1 = scenario.train_end, scenario.t_end

    def engine(fast, state=None):
        if not fast:
            return scalar_engine(elsa, t0, t1, state)
        predictor = elsa.streaming_predictor(t0, t1)
        if state is not None:
            predictor.load_state(state)
        return predictor

    predictor = engine(fast)
    window = [r for r in scenario.records if t0 <= r.timestamp < t1]
    for k, i in enumerate(range(0, len(window), chunk)):
        batch = window[i : i + chunk]
        if hop is not None and k == hop:
            # checkpoint onto the *other* engine mid-stream
            fast = not fast
            predictor = engine(fast, predictor.state_dict())
        n_types = elsa.model.n_types
        if fast:
            batch = RecordBatch.from_records(batch)
            ids = elsa.classify(batch)
            predictor.feed(batch, np.where(ids < n_types, ids, -1))
        else:
            ids = classify_linear(elsa, batch)
            ids = [t if (t is not None and t < n_types) else None
                   for t in ids]
            feed_scalar(predictor, batch, ids)
    return predictor.finish()


class TestEndToEndEquivalence:
    def test_fast_equals_legacy(
        self, fitted_elsa, small_scenario, _restore_helo
    ):
        helo = fitted_elsa.online_state_dict()
        fast = _stream_predictions(fitted_elsa, small_scenario, fast=True)
        fitted_elsa.restore_online_state(helo)
        legacy = _stream_predictions(fitted_elsa, small_scenario, fast=False)
        assert fast  # the scenario must actually produce predictions
        assert pred_json(fast) == pred_json(legacy)

    def test_checkpoint_crosses_paths(
        self, fitted_elsa, small_scenario, _restore_helo
    ):
        """A checkpoint written by the engine resumes on the scalar
        reference (and vice versa) with byte-identical predictions."""
        helo = fitted_elsa.online_state_dict()
        reference = _stream_predictions(
            fitted_elsa, small_scenario, fast=True
        )
        fitted_elsa.restore_online_state(helo)
        fast_to_legacy = _stream_predictions(
            fitted_elsa, small_scenario, fast=True, hop=2
        )
        fitted_elsa.restore_online_state(helo)
        legacy_to_fast = _stream_predictions(
            fitted_elsa, small_scenario, fast=False, hop=3
        )
        assert pred_json(fast_to_legacy) == pred_json(reference)
        assert pred_json(legacy_to_fast) == pred_json(reference)

    def test_batched_feed_equals_scalar_feed(
        self, fitted_elsa, small_scenario, _restore_helo
    ):
        """Chunk size (including chunks that close no sample) never
        changes the output."""
        helo = fitted_elsa.online_state_dict()
        big = _stream_predictions(
            fitted_elsa, small_scenario, fast=True, chunk=5000
        )
        fitted_elsa.restore_online_state(helo)
        tiny = _stream_predictions(
            fitted_elsa, small_scenario, fast=True, chunk=13
        )
        assert pred_json(big) == pred_json(tiny)


@pytest.fixture(scope="module")
def classified_window(fitted_elsa, small_scenario):
    """The test window classified once, in time order."""
    helo_state = fitted_elsa.online_state_dict()
    stream = fitted_elsa.make_stream(
        small_scenario.records, small_scenario.train_end,
        small_scenario.t_end,
    )
    fitted_elsa.restore_online_state(helo_state)
    return stream


class TestRunEqualsBatchReference:
    @given(
        st.floats(0.0, 0.8),                       # window start (fraction)
        st.floats(0.05, 0.4),                      # window length (fraction)
        st.integers(0, 2**32 - 1),                 # shuffle seed
        st.sampled_from(["hybrid", "signal"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_shuffled_streams_match_the_batch_engine(
        self, fitted_elsa, classified_window, start, length, seed, method
    ):
        """``HybridPredictor.run`` over any record order of a window ≡
        the whole-window batch engine, predictions and counters alike."""
        full = classified_window
        span = full.t_end - full.t_start
        t0 = full.t_start + start * span
        t1 = min(full.t_end, t0 + length * span)
        ts = full.batch.timestamps
        keep = np.flatnonzero((ts >= t0) & (ts < t1))
        rows = keep[np.random.default_rng(seed).permutation(len(keep))]
        stream = TestStream(
            batch=full.batch.take(rows),
            event_ids=full.event_ids[rows],
            n_types=full.n_types,
            t_start=t0,
            t_end=t1,
            sampling_period=full.sampling_period,
        )
        make = (
            fitted_elsa.hybrid_predictor if method == "hybrid"
            else fitted_elsa.signal_predictor
        )
        expect, too_late = batch_predict(make(), stream)
        predictor = make()
        got = predictor.run(stream)
        assert pred_json(got) == pred_json(expect)
        assert predictor.n_too_late == too_late
        assert predictor.chain_usage == Counter(p.chain_key for p in got)

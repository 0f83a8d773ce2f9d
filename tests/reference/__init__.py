"""Scalar reference implementations, kept as test oracles.

Each module holds the plain, one-thing-at-a-time form of a product path:

* :mod:`.matching` — the linear template scan behind the indexed
  matcher, and record-at-a-time online classification over it;
* :mod:`.engines` — the record-at-a-time feed loop over per-anchor
  scalar detectors, and the whole-window batch engine (signal
  extraction, per-anchor ``process_array``, a scalar trigger walk,
  ``LocationIndex`` lookups);
* :mod:`.codec` — the field-by-field NDJSON codec (``json.dumps`` per
  record dict, ``parse_timestamp``/``Severity`` per decoded row);
* :mod:`.crosscorr` — the per-lag Pearson loop behind the FFT
  cross-correlation.

None of this runs in the product.  The equivalence suites
(``tests/test_fast_path.py``, ``tests/test_columnar.py``,
``tests/test_resilience_checkpoint.py``, ``tests/test_ingest.py``,
``tests/test_crosscorr.py``) and
the legacy sides of ``benchmarks/perf_smoke.py`` and
``benchmarks/bench_perf_kernels.py`` compare the product against these
oracles.
"""

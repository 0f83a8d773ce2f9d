# Convenience targets for the standard loops.

.PHONY: install test bench reproduce examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

reproduce:
	python -m repro reproduce --out reproduction.md
	@echo "wrote reproduction.md; per-figure reports in benchmarks/reports/"

examples:
	python examples/quickstart.py
	python examples/correlation_explorer.py
	python examples/checkpoint_integration.py
	python examples/mercury_cluster.py
	python examples/adaptive_prediction.py
	python examples/signal_gallery.py
	python examples/online_monitoring.py
	python examples/live_monitoring.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

# Development targets for the repro package.

.PHONY: install test docstrings bench campaign bench-campaign \
	monitor-smoke serve-smoke examples all

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

docstrings:
	python tools/check_docstrings.py --threshold 100 --quiet src/repro

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s

campaign:
	PYTHONPATH=src python -m repro.cli init-demo /tmp/repro_demo.json
	PYTHONPATH=src python -m repro.cli campaign \
		--project /tmp/repro_demo.json \
		--config comm-server=1,wf-engine=2,app-server=3 \
		--duration 2000 --warmup 200 --replications 5 --workers 2 \
		--no-failures

bench-campaign:
	PYTHONPATH=src python benchmarks/bench_campaign.py --check

monitor-smoke:
	PYTHONPATH=src python tools/monitor_smoke.py

serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/ecommerce_configuration.py
	PYTHONPATH=src python examples/availability_planning.py
	PYTHONPATH=src python examples/capacity_planning.py
	PYTHONPATH=src python examples/simulation_validation.py
	PYTHONPATH=src python examples/dynamic_reconfiguration.py
	PYTHONPATH=src python examples/worklist_management.py

all: test bench

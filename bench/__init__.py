"""One layered benchmark, from workflow spec to served recommendation.

Run every workload, untraced then traced, with the correctness gates
binding::

    python -m bench --check

or one workload in one mode (the form ``BENCHMARK.json`` names)::

    python -m bench --workload spec-corpus --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and what each metric means.
"""

"""perfbench — the repository benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the unmodified program and prints one JSON
result line.  The orchestrator never imports ``repro``: every program
step runs in its own process through :mod:`perfbench.program`.
"""

"""The system benchmark's own code: inputs, launcher protocol, load
generator, oracle and per-layer rungs.

Nothing here imports :mod:`repro.workloads` or the program's HTTP client:
the inputs and the measuring side stay fixed while later changes move the
program underneath them.
"""

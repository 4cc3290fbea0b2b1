"""Provenance stub for the removed NumPy-vectorized batch lanes.

The batched engine's per-site callbacks once ran NumPy pre-passes over
whole value and double-double shadow columns.  The leave-one-out
ablation measured them within noise on every benchmark workload, so
they were deleted: :mod:`repro.machine.batched` loops the lanes in
Python through the analysis' per-site steps, and
:mod:`repro.bigfloat.doubledouble` holds the one definition of the
double-double kernels and guards.

Only this module remains, because the benchmark harness
(``perfbench/workloads.py``) still reports ``lanes.HAVE_NUMPY`` as the
``numpy_lanes`` field of its provenance line.  It can go together with
that field.
"""

#: The vectorized lanes no longer exist, whether or not NumPy does.
HAVE_NUMPY = False

"""Compiled trial kernel — flat integer-indexed fast paths.

Compiles a generated workload once into contiguous arrays
(:class:`CompiledWorkload`) and runs the trial hot loop — metric weight
evaluation, Algorithm SLICING, EDF list scheduling — against them,
bit-identical to the string-keyed reference implementation in
``repro.core`` / ``repro.sched`` (which stays available as the oracle
via ``engine="paired-ref"``, ``use_kernel=False`` or ``kernel=False``).

A third tier, :mod:`repro.kernel.vec`, lifts the weight stage, the
slicing tail ranking, and a lockstep seed-batch EDF engine onto NumPy
arrays — engaged automatically for wide seed batches when NumPy is
importable (``REPRO_VEC=0`` opts out, ``=1`` forces it everywhere) —
still bit-identical on the default tie-break, with an automatic
pure-Python fallback when NumPy is absent.

See ``docs/performance.md`` for the architecture and the measured
speedups.
"""

from .compiled import CompiledWorkload, compile_workload
from .edf import KernelSchedule, kernel_schedule_edf
from .metrics import KERNEL_METRIC_TYPES, kernel_weights
from .slicing import KernelAssignment, kernel_slice
from .trial import kernel_supported, run_trial_kernel, run_trial_vec
from .vec import (
    VEC_MIN_LANES,
    vec_available,
    vec_enabled,
    vec_fastmath,
    vec_mode,
)

__all__ = [
    "CompiledWorkload",
    "compile_workload",
    "KernelAssignment",
    "kernel_slice",
    "KernelSchedule",
    "kernel_schedule_edf",
    "KERNEL_METRIC_TYPES",
    "kernel_weights",
    "kernel_supported",
    "run_trial_kernel",
    "run_trial_vec",
    "VEC_MIN_LANES",
    "vec_available",
    "vec_enabled",
    "vec_fastmath",
    "vec_mode",
]

"""Performance kernels for the numeric hot paths.

See :mod:`repro.perf.config` for kernel selection and
:mod:`repro.perf.lsap_kernels` for the vectorized Hungarian search.
"""

from repro.perf.config import (
    KERNELS,
    get_kernel,
    reset_kernels,
    resolve_kernel,
    set_kernel,
    use_kernel,
)
from repro.perf.lsap_kernels import hungarian_min_rect

__all__ = [
    "KERNELS",
    "get_kernel",
    "hungarian_min_rect",
    "reset_kernels",
    "resolve_kernel",
    "set_kernel",
    "use_kernel",
]

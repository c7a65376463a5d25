"""Performance kernels for the numeric hot paths.

See :mod:`repro.perf.lsap_kernels` for the vectorized Hungarian search.
"""

from repro.perf.lsap_kernels import hungarian_min_rect

__all__ = ["hungarian_min_rect"]

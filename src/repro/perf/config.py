"""Kernel selection for the Hungarian LSAP solver.

The ``"lsap"`` domain has two interchangeable kernels for
:mod:`repro.matching.lsap`: ``"vectorized"`` (rectangular-aware
augmenting-path search with vectorized inner loops,
:mod:`repro.perf.lsap_kernels`) and ``"reference"`` (the original
index-array implementation, the oracle).

Both kernels produce the same assignment for every LSAP input; the
differential suite in ``tests/test_perf_kernels.py`` enforces that.  The
default favours the fast kernel and can be overridden process-wide via
:func:`set_kernel`, per call site via the ``kernel=`` argument
:func:`repro.matching.lsap.hungarian` accepts, or at startup via the
environment variable ``REPRO_LSAP_KERNEL``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: domain -> allowed kernel names, fastest (default) first.
KERNELS: dict[str, tuple[str, ...]] = {
    "lsap": ("vectorized", "reference"),
}

_ENV_VARS = {
    "lsap": "REPRO_LSAP_KERNEL",
}

_active: dict[str, str] = {}


def _validate(domain: str, kernel: str) -> str:
    try:
        allowed = KERNELS[domain]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown kernel domain {domain!r}; domains: {known}") from None
    if kernel not in allowed:
        raise ValueError(
            f"unknown {domain} kernel {kernel!r}; available: {', '.join(allowed)}"
        )
    return kernel


def get_kernel(domain: str) -> str:
    """The active kernel for ``domain`` (env override wins over default)."""
    try:
        default = KERNELS[domain][0]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown kernel domain {domain!r}; domains: {known}") from None
    if domain in _active:
        return _active[domain]
    env_value = os.environ.get(_ENV_VARS.get(domain, ""), "")
    if env_value:
        return _validate(domain, env_value)
    return default


def set_kernel(domain: str, kernel: str) -> None:
    """Select ``kernel`` for ``domain`` process-wide."""
    _active[domain] = _validate(domain, kernel)


def reset_kernels() -> None:
    """Drop all process-wide selections (back to env/defaults)."""
    _active.clear()


@contextmanager
def use_kernel(domain: str, kernel: str):
    """Temporarily select a kernel (the differential tests' main tool)."""
    _validate(domain, kernel)
    previous = _active.get(domain)
    _active[domain] = kernel
    try:
        yield
    finally:
        if previous is None:
            _active.pop(domain, None)
        else:
            _active[domain] = previous


def resolve_kernel(domain: str, kernel: str | None) -> str:
    """An explicit per-call choice, falling back to the active kernel."""
    if kernel is None:
        return get_kernel(domain)
    return _validate(domain, kernel)

"""Numeric sanitizer: NaN/Inf/overflow traps for the modelling hot paths.

Two complementary probes around :mod:`repro.roofline` and
:mod:`repro.mlcore` arithmetic:

* :func:`numeric_trap` — a context manager that routes numpy's
  floating-point error machinery (divide, overflow, invalid) to the
  sanitizer event log for the duration of a block, instead of the
  default warn-once-and-continue;
* :func:`check_finite` — an explicit assertion that a computed array is
  wholly finite, recording a ``non-finite`` event (with counts) when a
  NaN or Inf slipped through.

Underflow is deliberately left at numpy's default: gradual underflow to
zero is expected in distance and efficiency computations and flagging it
would bury the real signals.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.sanitizers.events import record
from repro.sanitizers.runtime import enabled

__all__ = ["check_finite", "numeric_trap"]


def check_finite(site: str, array) -> None:
    """Record a ``non-finite`` event if ``array`` contains NaN or Inf."""
    if not enabled():
        return
    values = np.asarray(array, dtype=float)
    finite = np.isfinite(values)
    if finite.all():
        return
    record(
        "non-finite",
        site=site,
        nan_count=int(np.isnan(values).sum()),
        inf_count=int(np.isinf(values).sum()),
        size=int(values.size),
    )


@contextmanager
def numeric_trap(site: str):
    """Trap numpy FP errors (divide/overflow/invalid) inside the block."""
    if not enabled():
        yield
        return

    def _on_fp_error(err: str, _flag: int) -> None:
        record("fp-error", site=site, error=err)

    with np.errstate(divide="call", over="call", invalid="call", call=_on_fp_error):
        yield

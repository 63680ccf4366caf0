"""Static analysis and runtime sanitizing for the SAGE reproduction.

Two halves:

* :mod:`repro.analysis.sanitizer` — an opt-in runtime pass
  (``repro run --sanitize``) that inspects every scheduled work unit and
  memory access batch of a traversal and reports structured diagnostics
  for write-write hazards, out-of-bounds indices, dtype overflow in
  address arithmetic and frontier invariant violations.
* :mod:`repro.analysis.lint` — a repo-specific AST lint
  (``python -m repro.analysis.lint src/``) with ratcheted-baseline
  enforcement of the hot-path, metric-naming, determinism, diagnostics
  and lock-discipline rules (SAGE001-SAGE007).
"""

from repro.analysis.sanitizer import (
    FINDING_CODES,
    Finding,
    Sanitizer,
    SanitizerError,
)

__all__ = [
    "FINDING_CODES",
    "Finding",
    "Sanitizer",
    "SanitizerError",
]

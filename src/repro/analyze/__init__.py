"""Static analysis for Tioga-2 programs: lint without executing.

Three non-executing passes over three layers of the system, all reporting
through the shared :class:`Diagnostic`/:class:`Report` vocabulary with
stable ``T2-*`` codes (catalog: ``docs/STATIC_ANALYSIS.md``):

- :func:`check_program` (``repro.analyze.checker``) — schema/type inference
  over a boxes-and-arrows program;
- :func:`analyze_expression` / :func:`check_expression`
  (``repro.analyze.exprcheck``) — the expression typechecker with source
  positions;
- :func:`verify_plan` / :func:`assert_valid_plan`
  (``repro.analyze.planverify``) — plan-IR invariant verification, also
  installable as a runtime hook via ``REPRO_PLAN_VERIFY=1``;
- :func:`check_program_deep` / :func:`abstract_eval`
  (``repro.analyze.absint``) — abstract interpretation over expressions
  and programs (interval/nullability/constancy/sign domains), behind
  ``repro lint --deep``.

The heavy passes are imported lazily so ``repro.analyze.diagnostics`` stays
importable from low-level modules (e.g. ``repro.dataflow.graph``) without
creating import cycles.
"""

from __future__ import annotations

from repro.analyze.diagnostics import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    Report,
    code_info,
)

__all__ = [
    "CODES",
    "ERROR",
    "INFO",
    "WARNING",
    "Diagnostic",
    "Report",
    "code_info",
    "check_program",
    "check_program_deep",
    "analyze_expression",
    "check_expression",
    "verify_plan",
    "assert_valid_plan",
    "install_from_env",
    "abstract_eval",
]

_LAZY = {
    "check_program": "repro.analyze.checker",
    "CheckContext": "repro.analyze.checker",
    "analyze_expression": "repro.analyze.exprcheck",
    "check_expression": "repro.analyze.exprcheck",
    "types_compatible": "repro.analyze.exprcheck",
    "verify_plan": "repro.analyze.planverify",
    "assert_valid_plan": "repro.analyze.planverify",
    "install_from_env": "repro.analyze.planverify",
    "AbstractValue": "repro.analyze.absint",
    "HazardProofs": "repro.analyze.absint",
    "Interval": "repro.analyze.absint",
    "abstract_eval": "repro.analyze.absint",
    "analyze_hazards": "repro.analyze.absint",
    "check_program_deep": "repro.analyze.absint",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.analyze' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

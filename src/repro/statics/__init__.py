"""Project-specific static analysis (``repro check --lint``).

The reproduction's headline claims live in the binary-forking work–span
model, and its regression gates (``repro bench compare``,
``tests/test_golden_costs.py``) compare model costs *bit-exactly*.  Two
invariants therefore have to hold everywhere, forever:

1. every loop executed inside an instrumented phase is *accounted* —
   charged to the :class:`~repro.runtime.metrics.CostAccumulator` the
   phase binds (directly or through a primitive that charges);
2. model costs are *deterministic* — no wall clock, no raw randomness,
   no hash-order dependence may reach a cost, counter, or ordered output.

This package turns those invariants from review lore into machine-checked
rules: :mod:`repro.statics.engine` is a small AST rule engine (per-rule
metadata, ``# repro: noqa[RULE]`` inline suppressions, a committed
``statics_baseline.json`` for grandfathered findings) and
:mod:`repro.statics.rules` holds the codebase-specific rules RS001–RS005
and RS007–RS010.
:mod:`repro.statics.races` is the companion *dynamic* checker: it drives
representative solves under the
:class:`~repro.runtime.racecheck.RaceChecker` shadow-memory mode and
reports fork–join conflicts (``repro check --race``).
"""

from .engine import (
    Baseline,
    Finding,
    LintReport,
    ModuleContext,
    ProjectRule,
    Rule,
    RuleMeta,
    lint_paths,
    lint_source,
    run_lint,
)
from .flow import FLOW_RULES, cross_validate_rs012, flow_rules_by_id
from .races import RACE_PROBES, RaceCheckReport, run_race_probes
from .rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "FLOW_RULES",
    "Baseline",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ProjectRule",
    "RACE_PROBES",
    "RaceCheckReport",
    "Rule",
    "RuleMeta",
    "cross_validate_rs012",
    "flow_rules_by_id",
    "lint_paths",
    "lint_source",
    "rules_by_id",
    "run_lint",
    "run_race_probes",
]

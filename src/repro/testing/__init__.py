"""Property-based and differential correctness harness for the TC pipeline.

The paper's headline numbers rest on stacked randomized estimators; this
package makes their correctness *cheap to trust* after any refactor:

* :mod:`~repro.testing.strategies` — graph fuzzers with known-by-construction
  counts (planted triangles, adversarial raw streams, stars, cliques, ...).
* :mod:`~repro.testing.metamorphic` — metamorphic relations (relabel /
  orientation / union / color-count / remap invariance) as checkable objects.
* :mod:`~repro.testing.differential` — one graph through every kernel ×
  executor × baseline, asserting bit-identical counts and span/metric parity.
* :mod:`~repro.testing.statistical` — seed-sweep Chebyshev acceptance for
  the samplers, with explicit failure probabilities.
* :mod:`~repro.testing.fuzz` — the seeded fuzz driver behind
  ``repro-count --fuzz N`` and the ``verify_installation`` smoke budget.
* :mod:`~repro.testing.pytest_plugin` — fixtures for test suites.

See ``docs/testing.md`` for the policy and how to reproduce fuzz failures.
"""

from .differential import DifferentialReport, DifferentialRunner
from .fuzz import FuzzFailure, FuzzReport, fuzz_iteration, run_fuzz
from .metamorphic import ALL_RELATIONS, MetamorphicRelation, RelationResult, check_all_relations
from .statistical import (
    AcceptanceBound,
    SeedSweepResult,
    binomial_uniform_bound,
    empirical_chebyshev_bound,
    seed_sweep,
    sweep_misra_gries,
    sweep_reservoir,
    sweep_uniform,
)
from .strategies import (
    CASE_FAMILIES,
    FAMILY_NAMES,
    GraphCase,
    adversarial_stream,
    graph_cases,
    make_case,
    planted_triangles,
    sample_case,
)

__all__ = [
    "DifferentialReport",
    "DifferentialRunner",
    "FuzzFailure",
    "FuzzReport",
    "fuzz_iteration",
    "run_fuzz",
    "ALL_RELATIONS",
    "MetamorphicRelation",
    "RelationResult",
    "check_all_relations",
    "AcceptanceBound",
    "SeedSweepResult",
    "binomial_uniform_bound",
    "empirical_chebyshev_bound",
    "seed_sweep",
    "sweep_misra_gries",
    "sweep_reservoir",
    "sweep_uniform",
    "CASE_FAMILIES",
    "FAMILY_NAMES",
    "GraphCase",
    "adversarial_stream",
    "graph_cases",
    "make_case",
    "planted_triangles",
    "sample_case",
]

"""Correctness checks of the served-rewrite benchmark.

Both checks run untimed inside the benchmark command and return a list of
human-readable mismatches; any mismatch makes the command exit non-zero.

* :func:`plan_mismatches` compares served plans (view names and cost)
  against a plain unsharded :class:`repro.ViewMatcher` + ``Optimizer``
  over the same view definitions (:func:`reference_plans`).
* :func:`stored_view_mismatches` re-executes every stored view's query
  over the live tables and bag-compares it with the stored relation
  (``repro.difftest.compare``).
"""

from __future__ import annotations

import math

from repro import ViewMatcher
from repro.difftest.compare import compare_results
from repro.engine.executor import QueryResult, execute
from repro.optimizer.optimizer import Optimizer

#: A plan summary: (view names read, estimated cost).
Plan = tuple[tuple[str, ...], float]

#: Significant digits floats are compared at (incremental sums and a
#: recomputation add the same values in different orders).
FLOAT_DIGITS = 9


def reference_plans(catalog, stats, registered_views, sqls) -> dict[str, Plan]:
    """Plans of ``sqls`` from an unsharded matcher over the same views.

    ``registered_views`` are the served snapshot's described views, in
    the order they were registered when the plans were served (candidate
    order breaks cost ties). The reference re-indexes them into one plain
    filter tree and optimizes every query from its SQL text afresh, with
    the pre-verifier and the compensation-template cache off, so every
    candidate gets a full ``match_view``. Binding, the server's memos,
    sharding, the merged candidate order, pre-verifier rejects and the
    templates stored per view context (contexts the reference shares) are
    all outside the reference.
    """
    matcher = ViewMatcher.from_registered_views(
        catalog, registered_views,
        use_preverifier=False, use_template_cache=False,
    )
    optimizer = Optimizer(catalog, stats, matcher=matcher)
    plans = {}
    for sql in sqls:
        result = optimizer.optimize(catalog.bind_sql(sql))
        plans[sql] = (tuple(result.view_names), result.cost)
    return plans


def plan_mismatches(
    served: dict[str, Plan], reference: dict[str, Plan]
) -> list[str]:
    """Queries whose served plan differs from the reference plan."""
    problems = []
    for sql, (views, cost) in reference.items():
        got = served.get(sql)
        if got is None:
            problems.append(f"no served plan for {sql!r}")
            continue
        got_views, got_cost = got
        if tuple(got_views) != tuple(views) or not math.isclose(
            got_cost, cost, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(
                f"served {got_views} cost {got_cost!r}, reference {views} "
                f"cost {cost!r} for {sql!r}"
            )
    return problems


def stored_view_mismatches(database, view_definitions) -> list[str]:
    """Stored views that are not bag-equal to their query's re-execution."""
    problems = []
    for name, statement in view_definitions:
        relation = database.relation(name)
        stored = QueryResult(
            columns=tuple(relation.columns), rows=list(relation.rows)
        )
        diff = compare_results(
            execute(statement, database), stored, float_digits=FLOAT_DIGITS
        )
        if not diff.equal:
            problems.append(f"stored view {name}: {diff.summary(limit=2)}")
    return problems

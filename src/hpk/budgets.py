"""Enumeration budgets shared by the brute-force searches.

Every potentially explosive search in the package (horn filling, natural
isomorphism search, lifting) charges work units against a budget.  Running
out is a distinguished outcome, never a wrong answer: the search raises
:class:`BudgetExceeded` and callers surface it loudly.

A search runs with the budget its caller passes; without one, with the
``HPK_BUDGET`` environment variable (a single integer applied to all
searches) if it is set, else with its default.
"""

import os

DEFAULT_FILLER_BUDGET = 10**6
# governs no search since 2-cell rewriting was removed; kept because the CLI
# reports it as _meta.budgets.rewrite, which the golden output digests pin
DEFAULT_REWRITE_BUDGET = 10**5
DEFAULT_ISO_SEARCH_BUDGET = 10**6
DEFAULT_LIFT_BUDGET = 10**6


class BudgetExceeded(Exception):
    """A bounded search ran out of budget before reaching a verdict."""

    def __init__(self, what, budget):
        super().__init__(f"{what}: enumeration budget of {budget} exceeded")
        self.what = what
        self.budget = budget


def resolve_budget(default, budget=None):
    """The budget a search runs with: ``budget`` if one is given, else
    ``HPK_BUDGET`` if it is set, else ``default``.  A budget given either way
    must be positive."""
    if budget is not None:
        name, value = "budget", budget
    else:
        raw = os.environ.get("HPK_BUDGET")
        if raw is None:
            return default
        try:
            name, value = "HPK_BUDGET", int(raw)
        except ValueError:
            raise ValueError(f"HPK_BUDGET must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class Meter:
    """Counts work units and raises once the budget is exhausted."""

    def __init__(self, what, budget):
        self.what = what
        self.budget = budget
        self.used = 0

    def tick(self, amount=1):
        self.used += amount
        if self.used > self.budget:
            raise BudgetExceeded(self.what, self.budget)

"""Shared exceptions, the search-node budget and the depth-first walker.

`_depth_first` is the one backtracking search behind `is_d_collapsible`
and `is_shellable`.  It keeps its own stack instead of recursing, so a
path of any length (a collapse of thousands of steps) stays within
Python's recursion limit, and it spends the caller's `Budget` once per
state entered.
"""


class VertexRangeError(ValueError):
    """A vertex label is negative or exceeds the supported bitmask width."""


class NotAFaceError(ValueError):
    """A face argument is not a face of the complex at hand."""


class NotFreeError(ValueError):
    """A claimed free pair is not free in the complex at hand."""


class NotPureError(ValueError):
    """An operation that requires a pure complex was given a non-pure one."""


class UndominatableError(ValueError):
    """No dominating set exists for the requested target set."""


class IsolatedVertexError(ValueError):
    """A domination parameter that forbids isolated vertices got one."""


class HypothesisNotMetError(ValueError):
    """A conditional check was invoked on an instance outside its hypotheses.

    Raised so callers can distinguish "skip" from "false"; property suites
    skip these instead of asserting.
    """


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its node budget before reaching a verdict.

    Deliberately not a boolean result: budget exhaustion is never conflated
    with "false".
    """


DEFAULT_NODE_BUDGET = 10_000_000


class Budget:
    """Counts search nodes against a hard limit.

    Each `spend()` counts one node: a state a search enters, a candidate
    it tests, or a question answered by one lookup.  The spend past the
    limit raises and stays counted in `used`.  One Budget is confined to a
    single top-level invariant evaluation and is never shared across
    threads.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit=DEFAULT_NODE_BUDGET):
        if limit <= 0:
            raise ValueError("budget limit must be positive")
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"search exceeded node budget of {self.limit}"
            )

    def __repr__(self):
        return f"Budget(limit={self.limit}, used={self.used})"


def _depth_first(start, is_goal, key, moves, budget: Budget):
    """The moves along the first path from `start` to a goal state, in
    depth-first order, or None when no path reaches one.

    `moves(state)` lazily yields (move, next state) pairs, tried in order.
    One budget unit is spent per state entered, before its goal test.  A
    state whose key already failed is skipped without expanding it again,
    so the key must determine whether a goal is reachable.  The stack holds
    one [key, moves left, move taken] entry per open state.
    """
    dead = set()
    stack = []
    state = start
    while True:
        budget.spend()
        if is_goal(state):
            return [entry[2] for entry in stack]
        k = key(state)
        if k not in dead:
            stack.append([k, moves(state), None])
        while stack:
            top = stack[-1]
            step = next(top[1], None)
            if step is not None:
                top[2], state = step
                break
            dead.add(top[0])
            stack.pop()
        else:
            return None

"""Shared exceptions, the search-node budget and the one search driver.

`_drive` runs a generator as a recursive call from one explicit stack:
a node `yield`s the child node it needs and is sent the child's return
value.  Every memoized search runs on it, so a search of any depth stays
within Python's recursion limit:

- `_depth_first`, the backtracking search behind `is_d_collapsible` and
  `is_shellable` (a collapse of thousands of steps is one path);
- the M_k / M'_k engine, `invariants._MkEngine`;
- the k-vertex decomposition search, `homology.is_k_vertex_decomposable`.

Each search keeps its memo, its budget spends and its candidate order in
its own nodes.  `hypergraphs._branch` keeps a stack of its own (it needs
no memo and no return value), and `homology.verify_shedding_sequence` is
one loop with no search.
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


def _check_int(value, name: str) -> None:
    """TypeError naming a count argument (a budget limit, a dimension, d,
    k, k_max or trials) that is not an int, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def _check_count(value, name: str, least: int = 0) -> None:
    """Reject a count argument named `name`: TypeError unless it is an int
    and not a bool (`_check_int`), ValueError unless it is >= least."""
    _check_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_limit(limit) -> None:
    """Reject a node budget limit: TypeError unless it is an int and not a
    bool, ValueError unless it is positive."""
    _check_int(limit, "budget limit")
    if limit <= 0:
        raise ValueError("budget limit must be positive")


class Budget:
    """Counts search nodes against a hard limit.

    Each `spend()` counts one node: a state a search enters, a candidate
    it tests, or a question answered by one lookup.  The spend past the
    limit raises and stays counted in `used`.  `spend(units)` charges a
    walk already taken, such as a hypergraph's kept cover walk, as that
    many single spends would: past the limit it raises with `used` at
    limit + 1.  One Budget is confined to a single top-level invariant
    evaluation and is never shared across threads.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit=DEFAULT_NODE_BUDGET):
        _check_limit(limit)
        self.limit = limit
        self.used = 0

    def spend(self, units: int = 1):
        self.used += units
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExceededError(
                f"search exceeded node budget of {self.limit}"
            )

    def __repr__(self):
        return f"Budget(limit={self.limit}, used={self.used})"


def _drive(call):
    """The return value of the generator `call`, run as a recursive call.

    A node `yield`s a child generator where it would call itself and is
    sent the child's return value; the open nodes wait on one stack, so
    the depth of the recursion is no Python frame depth.  An exception
    raised in a node (a spent budget) ends the drive.
    """
    stack = [call]
    value = None
    while True:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(child)
            value = None


def _depth_first(start, is_goal, key, moves, budget: Budget):
    """The moves along the first path from `start` to a goal state, in
    depth-first order, or None when no path reaches one.

    `moves(state)` lazily yields (move, next state) pairs, tried in order.
    One budget unit is spent per state entered, before its goal test.  A
    state whose key already failed is skipped without expanding it again,
    so the key must determine whether a goal is reachable.  Each state
    entered is one node on `_drive`; a path comes back up last move first.
    """
    dead = set()

    def enter(state):
        budget.spend()
        if is_goal(state):
            return []
        k = key(state)
        if k in dead:
            return None
        for move, nxt in moves(state):
            path = yield enter(nxt)
            if path is not None:
                path.append(move)
                return path
        dead.add(k)
        return None

    path = _drive(enter(start))
    return None if path is None else path[::-1]

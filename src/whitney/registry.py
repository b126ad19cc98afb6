"""The identity registry and the one runner of its checks.

``_identity`` declares each check at its definition, and the registry
holds one generator of (params, lhs, rhs) per check.  ``run_check`` stops
at the first point whose sides differ and renders both sides of it.  The
declarations are in ``whitney.identities``, which this module never
imports: importing the ``whitney`` package imports them, so the registry
is full wherever the package is.
"""

import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

from .errors import BadGrid, BadParameter, UnknownIdentity
from .grammar import XYPoly
from .poly import Poly
from .qformat import count, rat_str


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    summary: str
    grid: dict
    evaluate: object
    variant: object = None


@dataclass
class CheckReport:
    """Outcome of one identity check.

    ``grid_size`` counts comparisons evaluated; evaluation stops at the
    first counterexample, so on failure it is the 1-based index of the
    failing point.  A counterexample records the grid point and both
    rendered sides, enough to re-evaluate it with matching overrides.
    """

    name: str
    grid_size: int
    status: str
    counterexample: dict | None
    elapsed_ms: int
    notes: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


_BASE = {"max_n": 8, "m": (1, 2, 3), "r": (0, 1, 2, 3)}

REGISTRY: dict = {}


def _axis(axis, grid):
    """The name of one axis and its values at `grid`.

    An axis is a grid key ("n" runs over 0..max_n, any other key over its
    tuple of values) or a pair (name, values) whose values are a fixed
    tuple or a function of the grid.
    """
    if isinstance(axis, str):
        return axis, range(grid["max_n"] + 1) if axis == "n" else grid[axis]
    name, values = axis
    return name, values(grid) if callable(values) else values


def _walk(sides, axes):
    """Evaluator of a stateless identity: sides(**point) at each point of
    the product of `axes`, the last axis varying fastest."""

    def evaluate(grid):
        names, values = zip(*(_axis(axis, grid) for axis in axes))
        for step in product(*values):
            params = dict(zip(names, step))
            lhs, rhs = sides(**params)
            yield params, lhs, rhs

    return evaluate


def _identity(name, summary, axes=None, grid=None, bind=None, variant=None):
    """Declare the decorated function as the identity check `name`.

    With `axes` the function gives both sides at one grid point and
    `_walk` iterates the axes; without, it is the evaluator itself, a
    generator of (params, lhs, rhs) taking the grid first, in the order
    `_walk` would take.  `bind` fixes
    keyword arguments, so that one function serves twin identities;
    `grid` extends the base grid; a `variant` evaluator flags the check.
    """

    def declare(fn):
        bound = partial(fn, **bind) if bind else fn
        g = dict(_BASE)
        g.update(grid or {})
        evaluate = bound if axes is None else _walk(bound, axes)
        REGISTRY[name] = IdentityCheck(name, summary, g, evaluate, variant)
        return fn

    return declare


# -- runner --------------------------------------------------------------


def registry_names() -> list:
    return sorted(REGISTRY)


def _lookup(name) -> IdentityCheck:
    check = REGISTRY.get(name)
    if check is None:
        raise UnknownIdentity(
            "unknown identity %r; known: %s" % (name, ", ".join(registry_names()))
        )
    return check


def _gate(check, overrides):
    """The check's grid under `overrides`.  Reject a key the grid lacks, a
    value that is not a tuple where the grid holds one, and bounds no walk
    can take: a max_n, max_h or seed that is not a nonnegative int, or an m
    that is not a positive int."""
    name, grid = check.name, dict(check.grid)
    for key, value in overrides.items():
        if key not in grid:
            raise BadGrid("identity %r has no grid key %r" % (name, key))
        if isinstance(grid[key], tuple) and not isinstance(value, tuple):
            raise BadGrid("identity %r: %s must be a tuple, got %r" % (name, key, value))
        grid[key] = value
    try:
        for key in ("max_n", "max_h"):
            if key in grid:
                count(grid[key], key)
        for m in grid.get("m", ()):
            count(m, "m", 1)
        for seed in grid.get("seeds", ()):
            count(seed, "seed")
    except BadParameter as exc:
        raise BadGrid("identity %r: %s" % (name, exc)) from None
    return grid


def _render(v):
    if isinstance(v, Poly):
        return [rat_str(c) for c in v.coeffs]
    if isinstance(v, XYPoly):
        return [[a, b, rat_str(c)] for (a, b), c in sorted(v.terms.items())]
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    return rat_str(v)


def _scan(evaluate, grid):
    points = 0
    for params, lhs, rhs in evaluate(grid):
        points += 1
        if lhs != rhs:
            return points, {"params": dict(params), "lhs": _render(lhs), "rhs": _render(rhs)}
    return points, None


def run_check(name: str, overrides: dict = None) -> CheckReport:
    """Evaluate one registered identity over its grid (or an override).

    Overrides may replace any default grid key, e.g. {"max_n": 4,
    "m": (2,), "r": (3,)}.  Passing the parameters of a reported
    counterexample as singleton overrides re-evaluates that point.  An
    unknown grid key, a tuple key given a value that is not a tuple, a
    negative max_n or max_h, an m that is not a positive int, or a grid
    with no points raises BadGrid, which is a ValueError; a check that
    compared nothing never passes.
    """
    check = _lookup(name)
    grid = _gate(check, overrides or {})
    start = time.perf_counter()
    points, fail = _scan(check.evaluate, grid)
    if points == 0:
        raise BadGrid("identity %r evaluated no grid points" % (name,))
    notes = ()
    if check.variant is not None:
        # flagged entries always report both outcomes: the statement as
        # printed, and the form recomputed from the connection constants
        _, v_fail = _scan(check.variant, grid)
        notes = ("literal statement: %s" % ("pass" if fail is None else "FAIL"),
                 "connection-constant route: %s" % ("pass" if v_fail is None else "FAIL"))
        if v_fail is not None:
            fail = dict(fail) if fail is not None else {}
            fail["correction_counterexample"] = v_fail
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CheckReport(name=name, grid_size=points, status="pass" if fail is None else "fail",
                       counterexample=fail, elapsed_ms=elapsed_ms, notes=notes)


def run_all(overrides: dict = None, names=None) -> list:
    """Run every registered check, or those named, sorted by name.

    Each check takes only the overrides that name keys of its own grid.
    """
    out = []
    for name in registry_names() if names is None else sorted(names):
        grid = _lookup(name).grid
        applicable = {k: v for k, v in (overrides or {}).items() if k in grid}
        out.append(run_check(name, applicable))
    return out

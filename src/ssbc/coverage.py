"""Exact finite-sample laws of split-conformal coverage.

With n calibration points and a level alpha on the grid {u/(n+1)}, the
infinite-test coverage follows Beta(n+1-u, u); over a finite window of m
test points the covered count follows Beta-Binomial(m; n+1-u, u).  The
integer rung u is what the searches pass to :func:`tail_prob`, the source
of every tail the package decides on; this module also owns the maps from
a level to a count (:func:`order_index`, :func:`highest_grid_index_below`,
:func:`window_threshold`), the float snapping that keeps their ceil honest
at exact grid points, and :class:`Record`, the base of the package's value
types.
"""

from __future__ import annotations

import math

from .specfun import beta_survival, betabinom_survival
from .specfun import check_int  # re-exported: the package's one integer validator

INFINITE_TEST = "infinite"
FINITE_WINDOW = "window"

# Relative slack (in units of the scale argument) under which a float is
# treated as the exact integer it is, before applying ceil/floor: a few
# double rounding units.  The rounding noise of a grid level or a decimal
# level times a scale up to 1e12 measured below 1.7e-16 * scale; a wider
# band snaps true non-integers once 1 / scale nears it.
_SNAP_TOL = 4 * 2.0**-52


def check_unit(name: str, value: float) -> None:
    """Raise ValueError unless 0 < value < 1."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def snapped_ceil(value: float, scale: float = 1.0) -> int:
    """ceil(value), except values within snapping distance of an integer
    are taken as that integer (representation noise must not shift the
    order statistic by one)."""
    nearest = round(value)
    if abs(value - nearest) <= _SNAP_TOL * max(1.0, abs(scale)):
        return int(nearest)
    return math.ceil(value)


class Record:
    """Immutable value type.

    The fields of a subclass are the parameters of its ``__init__``, in
    order.  It stores every one with ``vars(self).update(field=field, ...)``
    and then validates them, so Python's own call binding gives defaults
    and the TypeError for a missing, unknown, repeated or surplus argument.
    Equality and hashing go by the field values, and the repr is
    ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError; pickling restores ``__dict__``.  A report whose JSON is
    its fields takes :meth:`_to_dict` as its ``to_dict``.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def _to_dict(self) -> dict:
        """The fields in order, except those that are None, with tuples as
        lists and records in them as their ``to_dict()``."""
        out = {}
        for name in self.__match_args__:
            value = self.__dict__[name]
            if isinstance(value, tuple):
                value = [v.to_dict() if isinstance(v, Record) else v for v in value]
            if value is not None:
                out[name] = value
        return out

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a record")

    __delattr__ = __setattr__


class CoverageRegime(Record):
    """Inference regime: infinite test stream, or a finite window of size m."""

    def __init__(self, kind: str, m: int | None = None) -> None:
        vars(self).update(kind=kind, m=m)
        if kind not in (INFINITE_TEST, FINITE_WINDOW):
            raise ValueError(f"unknown regime kind {kind!r}")
        if kind == FINITE_WINDOW:
            check_int("window size m", m)
        elif m is not None:
            raise ValueError("m is only meaningful for the finite-window regime")

    @classmethod
    def infinite(cls) -> "CoverageRegime":
        return cls(INFINITE_TEST)

    @classmethod
    def window(cls, m: int) -> "CoverageRegime":
        return cls(FINITE_WINDOW, m)

    @property
    def is_window(self) -> bool:
        return self.kind == FINITE_WINDOW


class CalibrationContext(Record):
    """Calibration size n, target miscoverage level, and risk tolerance."""

    def __init__(self, n: int, alpha_target: float, delta: float) -> None:
        vars(self).update(n=n, alpha_target=alpha_target, delta=delta)
        check_int("calibration size n", n)
        check_unit("alpha_target", alpha_target)
        check_unit("delta", delta)


def order_index(alpha: float, n: int) -> int:
    """The order-statistic index k = ceil((1-alpha)(n+1)), in 1..n+1.

    k = n+1 signals the degenerate everything-set (threshold = +inf).
    """
    check_int("n", n)
    check_unit("alpha", alpha)
    k = snapped_ceil((1.0 - alpha) * (n + 1), scale=n + 1)
    return max(1, min(n + 1, k))


def highest_grid_index_below(alpha_target: float, n: int) -> int:
    """Largest u with u/(n+1) strictly below alpha_target (0 if none)."""
    u_max = snapped_ceil(alpha_target * (n + 1), scale=n + 1) - 1
    return max(0, min(n, u_max))


def window_threshold(alpha_target: float, m: int) -> int:
    """Smallest covered count of a window of size m that meets the target:
    x* = ceil((1-alpha_target) m), snapped and clipped to 0..m+1.  A window
    with fewer covered points violates the target."""
    x_star = snapped_ceil((1.0 - alpha_target) * m, scale=m)
    return max(0, min(m + 1, x_star))


def tail_prob(n: int, u: int, regime: CoverageRegime, alpha_target: float) -> float:
    """Pr(coverage >= 1 - alpha_target) at rung u, the grid level u/(n+1).

    Infinite test: Pr(Z >= 1-alpha_target), Z ~ Beta(n+1-u, u).  Finite
    window of size m: Pr(X >= x*), X ~ Beta-Binomial(m; n+1-u, u), with x*
    the :func:`window_threshold`; equality at the threshold counts as
    success.  Raises ValueError unless 1 <= u <= n.
    """
    check_int("calibration size n", n)
    check_int("rung u", u, 1, n)
    check_unit("alpha_target", alpha_target)
    a, b = n + 1 - u, u
    if not regime.is_window:
        return beta_survival(1.0 - alpha_target, a, b)
    m = regime.m
    return betabinom_survival(window_threshold(alpha_target, m), m, a, b)

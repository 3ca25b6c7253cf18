"""Exact finite-sample laws of split-conformal coverage.

With n calibration points and a level alpha on the grid {u/(n+1)}, the
infinite-test coverage follows Beta(n+1-u, u); over a finite window of m
test points the covered count follows Beta-Binomial(m; n+1-u, u).  The
integer rung u is what the searches pass to :func:`tail_prob`, the source
of every tail the package decides on; this module also owns the maps from
a level to a count (:func:`order_index`, :func:`highest_grid_index_below`,
:func:`window_threshold`) and :class:`Record`, the base of the package's
value types.

A level means the decimal that ``repr`` prints, N / 10**d, and each map is
an exact integer ceiling of it times a count.  A grid level u/(n+1) prints
as no such rational in general, so a rung travels as its integer u.
"""

from __future__ import annotations

from .specfun import beta_survival, betabinom_survival
from .specfun import check_int  # re-exported: the package's one integer validator

INFINITE_TEST = "infinite"
FINITE_WINDOW = "window"


def check_unit(name: str, value: float) -> None:
    """Raise ValueError unless 0 < value < 1."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _decimal(level: float) -> tuple[int, int]:
    """(N, D) with N / D the decimal that repr prints for the level and D
    a power of ten; a level in (0, 1) prints as one in (0, 1)."""
    mantissa, _, exponent = repr(float(level)).partition("e")
    whole, _, digits = mantissa.partition(".")
    return int(whole + digits), 10 ** (len(digits) - int(exponent or 0))


class Record:
    """Immutable value type.

    The fields of a subclass are the parameters of its ``__init__``, in
    order.  It stores every one with ``vars(self).update(field=field, ...)``
    and then validates them, so Python's own call binding gives defaults
    and the TypeError for a missing, unknown, repeated or surplus argument.
    Equality and hashing go by the field values, and the repr is
    ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError; pickling restores ``__dict__``.  A report's JSON is
    :meth:`_to_dict`, which it takes as its ``to_dict``; only
    AdjustmentReport, whose key order the golden outputs pin, writes its own.
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

    def _to_dict(self, keep: tuple[str, ...] = ()) -> dict:
        """The fields in order, leaving out None unless named in ``keep``, with
        a record spliced in as its ``_to_dict()`` and a tuple as a list of those."""
        out = {}
        for name in self.__match_args__:
            value = self.__dict__[name]
            if isinstance(value, Record):
                out.update(value._to_dict())
                continue
            if isinstance(value, tuple):
                value = [v._to_dict() if isinstance(v, Record) else v for v in value]
            if value is not None or name in keep:
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

    def _to_dict(self) -> dict:
        """The regime as every report prints it: "regime", then "m" for a window."""
        return {"regime": self.kind, "m": self.m} if self.is_window else {"regime": self.kind}


class CalibrationContext(Record):
    """Calibration size n, target miscoverage level, and risk tolerance."""

    def __init__(self, n: int, alpha_target: float, delta: float) -> None:
        vars(self).update(n=n, alpha_target=alpha_target, delta=delta)
        check_int("calibration size n", n)
        check_unit("alpha_target", alpha_target)
        check_unit("delta", delta)


def order_index(alpha: float, n: int) -> int:
    """The order-statistic index k = ceil((1-alpha)(n+1)), in 1..n+1: the
    :func:`window_threshold` of a window of n+1.

    k = n+1 signals the degenerate everything-set (threshold = +inf).
    """
    check_int("n", n)
    return window_threshold(alpha, n + 1)


def highest_grid_index_below(alpha_target: float, n: int) -> int:
    """Largest u with u/(n+1) strictly below alpha_target (0 if none):
    ceil(alpha_target (n+1)) - 1."""
    N, D = _decimal(alpha_target)
    return (N * (n + 1) - 1) // D


def window_threshold(alpha_target: float, m: int) -> int:
    """Smallest covered count of a window of size m that meets the target:
    x* = ceil((1-alpha_target) m), in 1..m, with alpha_target read as its
    decimal.  A window with fewer covered points violates the target."""
    check_int("window size m", m)
    check_unit("alpha_target", alpha_target)
    N, D = _decimal(alpha_target)
    return -((N - D) * m // D)


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

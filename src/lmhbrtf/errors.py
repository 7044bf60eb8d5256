"""Exception types shared across the package, and the one rule by which
every numeric setting the package takes is checked."""

import contextlib
import math
import numbers

import numpy as np


class ImaginaryResidueError(ValueError):
    """A tensor expected to be real carries too much imaginary energy.

    Raised when dropping the imaginary part would silently hide an
    inconsistency (e.g. a transform-domain tensor that is not
    conjugate-symmetric).
    """


class NumericalBreakdownError(RuntimeError):
    """The inference loop produced a state it cannot continue from
    (singular precision matrix, non-positive variance, ...)."""


def _check_number(name: str, value, low=None, high=None, integer: bool = False,
                  open_low: bool = False):
    """*value* as a plain ``int`` (with *integer*) or finite ``float`` in
    [*low*, *high*] (None: no bound; *open_low* excludes *low*), or a
    ValueError naming the setting *name*.  An integer setting takes only an
    integer type (not ``2.0``); a 0-d array counts as its element.  The
    message words the bounds the package uses: an integer from 0 or 1, a
    float from 0 or unbounded, or a closed interval.
    """
    value = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    number = None
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            number = int(value) if integer else float(value)
    if (number is None or not -math.inf < number < math.inf  # NaN fails too
            or (low is not None and (number < low or open_low and number == low))
            or (high is not None and number > high)):
        sign = "positive" if low or open_low else "nonnegative"
        need = (f"{'an integer' if integer else 'a number'} in [{low}, {high}]"
                if high is not None else f"a {sign} integer" if integer
                else "finite" if low is None else f"finite and {sign}")
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return number


def _check_integer_array(name: str, value, length=None, high=None) -> np.ndarray:
    """*value* as an int64 vector of *length* entries (None: one or more)
    in [0, *high*] (None: no upper bound), or a ValueError naming *name*;
    a float or bool dtype is an error, not truncated."""
    array = np.asarray(value)
    if (array.dtype.kind not in "iu"
            or array.shape != ((max(array.size, 1),) if length is None else (length,))
            or array.min() < 0 or high is not None and array.max() > high):
        count = "integers, one or more in a 1-D vector," if length is None else f"{length} integers"
        bound = "inf)" if high is None else f"{high}]"
        raise ValueError(f"{name} must hold {count} in [0, {bound}, got {value!r}")
    return array.astype(np.int64)

"""Exception types shared across the package, and the intake checks that raise them."""

import operator

import numpy as np


class ModulusError(ValueError):
    """Invalid or mismatched modulus."""


class DimensionError(ValueError):
    """Shape mismatch between matrices/vectors."""


class HypothesisError(ValueError):
    """A required arithmetic hypothesis fails (e.g. missing roots of unity)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class TheoremViolationError(RuntimeError):
    """A checked identity that must hold unconditionally failed.

    Raising this is always a bug (in this package or in the inputs claimed
    to satisfy the preconditions), never a recoverable condition.
    """


def check_bound(need, bound: int, what: str) -> int:
    """``need`` if it is at most ``bound``, else DomainError in the one format
    of the package's refusals.  A pair (base, exp) stands for base**exp with
    base >= 1, which is not formed when exp >= ``bound.bit_length()``."""
    if isinstance(need, tuple):
        base, exp = need
        if base > 1 and exp >= bound.bit_length():  # base**exp >= 2**exp > bound
            raise DomainError(f"{what}: {base}^{exp} exceeds the supported bound {bound}")
        need = base**exp
    if need > bound:
        raise DomainError(f"{what}: {need} exceeds the supported bound {bound}")
    return need


def check_integer(value, what: str, bound: int | None = None) -> int:
    """``value`` as a Python int (numpy integers pass); DomainError for a
    bool, a float or a non-number, and, given ``bound``, for a value outside
    [0, bound)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if bound is not None and not 0 <= value < bound:
        raise DomainError(f"{what}: {value} outside [0, {bound})")
    return value


def _holds_bool(seq) -> bool:
    """Whether the nested lists and tuples ``seq`` hold a bool, a numpy bool
    or a boolean array, by one pass of ``type`` over each sequence."""
    kinds = set(map(type, seq))
    if bool in kinds or np.bool_ in kinds:
        return True
    nested = kinds & {list, tuple, np.ndarray}
    return bool(nested) and any(
        v.dtype == bool if type(v) is np.ndarray else _holds_bool(v) for v in seq if type(v) in nested
    )


def check_integers(values, what: str, bound: int | None = None) -> np.ndarray:
    """``values`` as an int64 array of the same shape (an int64 array itself,
    not a copy).  DomainError for a dtype that is not an integer one (the cast
    would truncate a float and read a bool as 0 or 1; an object array passes
    when it holds Python ints within int64), for a list or tuple that holds
    a bool or a boolean array among its ints, and for an entry outside
    [0, bound), by one maximum: read as unsigned, a negative entry is at
    least 2^63 >= bound.  A uint64 array is bounded by 2^63 at most, below
    which the cast keeps every entry.  DimensionError for ragged input; empty
    input gives an empty int64 array."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise DimensionError(f"{what} must form a rectangular array") from None
    if not arr.size:
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "O" and all(type(v) is int for v in arr.flat):
        try:
            arr = arr.astype(np.int64)
        except OverflowError:
            pass  # refused below as an object array
    if arr.dtype.kind not in "iu":
        raise DomainError(f"{what} must be integers of at most 64 bits, got dtype {arr.dtype}")
    if isinstance(values, (list, tuple)) and _holds_bool(values):  # numpy reads [True, 2] as int64
        raise DomainError(f"{what} must be integers of at most 64 bits, got a bool entry")
    if arr.dtype.kind == "u" and arr.itemsize == 8:
        bound = 2**63 if bound is None else min(bound, 2**63)
    ints = arr.astype(np.int64, copy=False)
    if bound is not None:
        unsigned = ints.view(np.uint64)
        if unsigned.max() >= bound:
            raise DomainError(f"{what}: {arr[unsigned >= bound][0]} outside [0, {bound})")
    return ints

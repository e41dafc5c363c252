"""Exception types shared across the package."""


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

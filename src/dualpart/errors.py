"""Exception types shared across the library.

The CLI maps these onto exit codes: InputError -> 1, GuardExceeded -> 2,
VerificationFailure -> 3.
"""


class InputError(ValueError):
    """Malformed or inconsistent input: bad JSON, shape mismatch, bad partition."""


class GuardExceeded(RuntimeError):
    """A configurable size guard would be exceeded by this computation."""


class VerificationFailure(RuntimeError):
    """An exact identity that must hold failed to verify.

    Typical causes: a character partition that is not constant on block sums,
    or a MacWilliams transform producing a non-integer count.
    """


def count_text(n: int) -> str:
    """n in decimal up to 1024 bits, else a power-of-two lower bound (Python prints
    no int past 4300 digits)."""
    return str(n) if n.bit_length() <= 1024 else f"at least 2^{n.bit_length() - 1}"

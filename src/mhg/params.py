"""Parameter sequences (delta, K1, K2, C0, C1) and their admissibility cases.

A sequence is *acceptable* when it satisfies the basic range constraints and
*admissible* when it additionally falls into one of the numerical cases (IIA,
IIB, III) under which a primitive 3-constrained class with these parameters
actually exists.  Case numbering starts at II for historical reasons.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class AdmissibilityCase(enum.Enum):
    NOT_ACCEPTABLE = "NotAcceptable"
    ACCEPTABLE_NOT_ADMISSIBLE = "AcceptableNotAdmissible"
    CASE_IIA = "IIA"
    CASE_IIB = "IIB"
    CASE_III = "III"


ADMISSIBLE_CASES = frozenset(
    {AdmissibilityCase.CASE_IIA, AdmissibilityCase.CASE_IIB, AdmissibilityCase.CASE_III}
)


def is_acceptable(delta: int, k1: int, k2: int, c0: int, c1: int) -> bool:
    """Range and parity constraints: finite delta >= 3, 1 <= K1 <= K2 <= delta,
    2*delta+2 <= C0, C1 <= 3*delta+2 with C0 even and C1 odd."""
    if delta < 3:
        return False
    if not 1 <= k1 <= k2 <= delta:
        return False
    for c in (c0, c1):
        if not 2 * delta + 2 <= c <= 3 * delta + 2:
            return False
    return c0 % 2 == 0 and c1 % 2 == 1


def classify(delta: int, k1: int, k2: int, c0: int, c1: int) -> AdmissibilityCase:
    """Admissibility case of a raw tuple. C = min(C0, C1), C' = max(C0, C1)."""
    if not is_acceptable(delta, k1, k2, c0, c1):
        return AdmissibilityCase.NOT_ACCEPTABLE
    c, cp = min(c0, c1), max(c0, c1)
    if c <= 2 * delta + k1:
        # Case II: C = 2K1 + 2K2 + 1, K1 + K2 >= delta, K1 + 2K2 <= 2delta - 1,
        # split by whether C' sits directly above C.
        if c == 2 * k1 + 2 * k2 + 1 and k1 + k2 >= delta and k1 + 2 * k2 <= 2 * delta - 1:
            if cp == c + 1:
                return AdmissibilityCase.CASE_IIA
            if k1 == k2 and 3 * k2 == 2 * delta - 1:
                return AdmissibilityCase.CASE_IIB
        return AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE
    # Case III: C > 2delta + K1.
    if k1 + 2 * k2 >= 2 * delta - 1 and 3 * k2 >= 2 * delta:
        if k1 + 2 * k2 == 2 * delta - 1 and c < 2 * delta + k1 + 2:
            return AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE
        if cp > c + 1 and c < 2 * delta + k2:
            return AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE
        return AdmissibilityCase.CASE_III
    return AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE


class _ParameterFields(NamedTuple):
    delta: int
    k1: int
    k2: int
    c0: int
    c1: int


class ParameterSequence(_ParameterFields):
    """Acceptable parameter tuple. Construction rejects non-acceptable input."""

    __slots__ = ()

    def __new__(cls, delta: int, k1: int, k2: int, c0: int, c1: int):
        if not is_acceptable(delta, k1, k2, c0, c1):
            raise ValueError(f"not an acceptable parameter sequence: ({delta}, {k1}, {k2}, {c0}, {c1})")
        return super().__new__(cls, delta, k1, k2, c0, c1)

    @property
    def c(self) -> int:
        return min(self.c0, self.c1)

    @property
    def c_prime(self) -> int:
        return max(self.c0, self.c1)

    @property
    def case(self) -> AdmissibilityCase:
        return classify(self.delta, self.k1, self.k2, self.c0, self.c1)

    @property
    def is_admissible(self) -> bool:
        return self.case in ADMISSIBLE_CASES

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return f"({self.delta}, {self.k1}, {self.k2}, {self.c0}, {self.c1})"


def admissible(p: ParameterSequence) -> ParameterSequence:
    """p itself, or ValueError when it is acceptable but not admissible."""
    if not p.is_admissible:
        raise ValueError(f"parameters {p} are not admissible")
    return p


def enumerate_admissible(delta: int) -> list[ParameterSequence]:
    """All admissible tuples with the given delta, in lexicographic order."""
    out = []
    for k1 in range(1, delta + 1):
        for k2 in range(k1, delta + 1):
            for c0 in range(2 * delta + 2, 3 * delta + 3):
                if c0 % 2:
                    continue
                for c1 in range(2 * delta + 3, 3 * delta + 3, 2):
                    if classify(delta, k1, k2, c0, c1) in ADMISSIBLE_CASES:
                        out.append(ParameterSequence(delta, k1, k2, c0, c1))
    return out

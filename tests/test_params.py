import pytest

from mhg.families import active_tags, walk_bound
from mhg.magic import default_context, magic_distances
from mhg.params import (
    AdmissibilityCase,
    ParameterSequence,
    admissible,
    classify,
    enumerate_admissible,
    is_acceptable,
)

# Hand-checked classifications.
CASES = [
    ((5, 3, 3, 16, 13), AdmissibilityCase.CASE_IIB),
    ((5, 3, 3, 14, 13), AdmissibilityCase.CASE_IIA),
    ((4, 1, 3, 14, 11), AdmissibilityCase.CASE_III),
    ((4, 1, 3, 12, 11), AdmissibilityCase.CASE_III),
    ((4, 2, 3, 12, 11), AdmissibilityCase.CASE_III),
    ((4, 2, 3, 14, 11), AdmissibilityCase.CASE_III),
    ((3, 1, 3, 10, 9), AdmissibilityCase.CASE_III),
    ((3, 1, 1, 8, 9), AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE),
    ((2, 1, 1, 8, 7), AdmissibilityCase.NOT_ACCEPTABLE),
    ((5, 3, 3, 13, 16), AdmissibilityCase.NOT_ACCEPTABLE),  # parities swapped
    ((5, 3, 2, 16, 13), AdmissibilityCase.NOT_ACCEPTABLE),  # K1 > K2
    ((5, 3, 3, 28, 13), AdmissibilityCase.NOT_ACCEPTABLE),  # C0 > 3*delta+2
]

DELTA3_ADMISSIBLE = [
    (3, 1, 2, 10, 9),
    (3, 1, 2, 10, 11),
    (3, 1, 3, 8, 9),
    (3, 1, 3, 10, 9),
    (3, 1, 3, 10, 11),
    (3, 2, 2, 10, 9),
    (3, 2, 2, 10, 11),
    (3, 2, 3, 10, 9),
    (3, 2, 3, 10, 11),
    (3, 3, 3, 10, 11),
]


@pytest.mark.parametrize("raw,expected", CASES)
def test_classify(raw, expected):
    assert classify(*raw) is expected


def test_acceptable_matches_classify():
    assert is_acceptable(5, 3, 3, 16, 13)
    assert is_acceptable(3, 1, 1, 8, 9)
    assert not is_acceptable(2, 1, 1, 8, 7)


def test_sequence_properties():
    p = ParameterSequence(5, 3, 3, 16, 13)
    assert p.c == 13
    assert p.c_prime == 16
    assert p.case is AdmissibilityCase.CASE_IIB
    assert p.is_admissible
    assert p.as_tuple() == (5, 3, 3, 16, 13)
    assert str(p) == "(5, 3, 3, 16, 13)"


def test_sequence_rejects_non_acceptable():
    with pytest.raises(ValueError):
        ParameterSequence(2, 1, 1, 8, 7)
    with pytest.raises(ValueError):
        ParameterSequence(5, 3, 3, 13, 16)


def test_acceptable_but_not_admissible_constructs():
    p = ParameterSequence(3, 1, 1, 8, 9)
    assert not p.is_admissible
    assert p.case is AdmissibilityCase.ACCEPTABLE_NOT_ADMISSIBLE


def test_enumerate_delta3_frozen():
    got = [p.as_tuple() for p in enumerate_admissible(3)]
    assert got == DELTA3_ADMISSIBLE
    assert all(p.case is AdmissibilityCase.CASE_III for p in enumerate_admissible(3))


def test_enumerate_counts():
    assert len(enumerate_admissible(3)) == 10
    assert len(enumerate_admissible(4)) == 20
    assert len(enumerate_admissible(5)) == 33


def test_delta5_case_split():
    by_case = {}
    for p in enumerate_admissible(5):
        by_case.setdefault(p.case, []).append(p.as_tuple())
    assert by_case[AdmissibilityCase.CASE_IIA] == [(5, 3, 3, 14, 13)]
    assert by_case[AdmissibilityCase.CASE_IIB] == [(5, 3, 3, 16, 13)]
    assert len(by_case[AdmissibilityCase.CASE_III]) == 31


def test_enumerate_sorted_and_consistent():
    for delta in range(3, 7):
        seqs = enumerate_admissible(delta)
        tuples = [p.as_tuple() for p in seqs]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
        for p in seqs:
            assert p.delta == delta
            assert p.is_admissible


def test_case_invariants():
    """Each case implies its defining inequalities for C = min(C0, C1)."""
    for delta in range(3, 9):
        for p in enumerate_admissible(delta):
            d, k1, k2 = p.delta, p.k1, p.k2
            c, cp = p.c, p.c_prime
            case = p.case
            if case in (AdmissibilityCase.CASE_IIA, AdmissibilityCase.CASE_IIB):
                assert c <= 2 * d + k1
                assert c == 2 * k1 + 2 * k2 + 1
                assert k1 + k2 >= d
                assert k1 + 2 * k2 <= 2 * d - 1
            if case is AdmissibilityCase.CASE_IIA:
                assert cp == c + 1
            if case is AdmissibilityCase.CASE_IIB:
                assert k1 == k2 and 3 * k2 == 2 * d - 1
                assert cp > c + 1
            if case is AdmissibilityCase.CASE_III:
                assert c > 2 * d + k1
                assert k1 + 2 * k2 >= 2 * d - 1
                assert 3 * k2 >= 2 * d
                if k1 + 2 * k2 == 2 * d - 1:
                    assert c >= 2 * d + k1 + 2
                if cp > c + 1:
                    assert c >= 2 * d + k2


def test_admissible_is_the_one_refusal():
    """params.admissible passes an admissible tuple through and refuses the
    others with one message, which every route that needs admissibility
    raises (the command line's is in test_cli.py)."""
    p = ParameterSequence(5, 3, 3, 16, 13)
    assert admissible(p) is p
    bad = ParameterSequence(3, 1, 1, 8, 9)
    message = r"^parameters \(3, 1, 1, 8, 9\) are not admissible$"
    for route in (admissible, active_tags, walk_bound, magic_distances, default_context):
        with pytest.raises(ValueError, match=message):
            route(bad)

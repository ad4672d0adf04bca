import hashlib
import json
import random

import pytest

from exactfem import element, geometry, multiindex, verify
from exactfem.errors import UnknownCheckError
from exactfem.exact import mat_rank
from exactfem.geometry import difference_matrix, is_affinely_independent, reference_vertices
from exactfem.verify import (
    catalog_ids,
    random_independent_family,
    run_suite,
)

REQUIRED_IDS = {
    "1364", "1366", "1367", "1368",
    "1493", "1495", "1496", "1498", "1500", "1501",
    "3.3.2", "3.3.8i", "3.3.8ii", "3.3.8iii",
    "1449", "1450",
    "1514", "1516", "1522", "1523", "1529", "1531", "1534", "1540",
    "1543", "1549", "1550", "1553", "1554", "1555", "1559", "1560",
    "1563", "1564", "1565", "1574", "1581", "1584", "1586",
    "1590", "1591", "1592", "1593", "1595", "1597", "1598", "1599",
    "1604", "1605", "1607",
    "1617", "1620", "1626",
    "1621", "1623", "1628", "1629", "1631",
    "1487", "1504", "1506", "1542", "1548", "1589", "1600", "1609",
    "1613", "1630", "1632",
}


def test_catalog_covers_required_ids():
    ids = set(catalog_ids())
    missing = REQUIRED_IDS - ids
    assert not missing, f"missing catalog ids: {sorted(missing)}"
    assert len(ids) == len(catalog_ids()), "duplicate catalog ids"


def test_small_sweep_passes():
    report = run_suite(d_max=2, k_max=2, samples=2, seed=42)
    assert report.passed
    assert all(c.cases > 0 for c in report.checks)
    data = report.to_json_dict()
    assert data["totals"]["failed"] == 0
    assert data["totals"]["checks"] == len(report.checks)


def test_filter_runs_only_named_checks():
    report = run_suite(d_max=2, k_max=2, samples=1, seed=1, only=["1605"])
    assert [c.id for c in report.checks] == ["1605"]
    assert report.passed


def test_unknown_id_rejected():
    with pytest.raises(UnknownCheckError):
        run_suite(only=["9999"])


def test_reports_are_reproducible():
    a = run_suite(d_max=2, k_max=2, samples=2, seed=7).to_json()
    b = run_suite(d_max=2, k_max=2, samples=2, seed=7).to_json()
    assert a == b
    json.loads(a)  # parseable


def test_filtering_does_not_change_check_data():
    full = run_suite(d_max=2, k_max=2, samples=2, seed=9)
    solo = run_suite(d_max=2, k_max=2, samples=2, seed=9, only=["1626"])
    full_result = next(c for c in full.checks if c.id == "1626")
    assert solo.checks[0] == full_result


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        run_suite(d_max=0)
    with pytest.raises(ValueError):
        run_suite(samples=0)


def test_random_independent_family():
    rng = random.Random(123)
    fam1 = random_independent_family(1, rng)
    assert fam1[0] != fam1[1]
    fam3 = random_independent_family(3, rng)
    assert mat_rank(difference_matrix(fam3)) == 3
    assert is_affinely_independent(fam3)
    # bounded data: small numerators and denominators
    for fam in (fam1, fam3):
        for pt in fam:
            for c in pt:
                assert abs(c.numerator) <= 10 * c.denominator and c.denominator <= 4

    again = random.Random(123)
    assert random_independent_family(1, again) == fam1


def test_table_rendering_mentions_totals():
    report = run_suite(d_max=1, k_max=1, samples=1, seed=0, only=["1364"])
    table = report.to_table()
    assert "1 checks, 1 passed, 0 failed" in table
    assert "binomial" in table


def test_small_sweep_report_is_pinned():
    # Case counts and counterexample text are part of the report; any change
    # to what a check sweeps shows up here.
    text = run_suite(d_max=2, k_max=2, samples=2, seed=0).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9db4027583a00a78257e48e201598d1fcee1e2066065b8b61fc785dafd7c5109"
    )


def _fault_binomial(real):
    return lambda n, p: real(n, p) + (1 if (n, p) == (5, 2) else 0)


@pytest.mark.parametrize(
    "target, attr, fault, check_id, expected",
    [
        (
            geometry, "face_hyperplane_contains", lambda real: lambda *a: True,
            "1563", (False, 3, "opposite vertex accepted at (1, 0)"),
        ),
        (
            multiindex, "binomial", _fault_binomial,
            "1364", (False, 73, "symmetry fails at (5, 2)"),
        ),
        (
            element, "build_element",
            lambda real: lambda fam, k: real(reference_vertices(len(fam) - 1), k),
            "1629", (False, 9, "degenerate family accepted at d = 1"),
        ),
        (
            verify, "divide_by_last_variable",
            lambda real: lambda p: None if p.dim == 2 and p.is_zero() else real(p),
            "1531", (False, 7, "zero does not split to zeros"),
        ),
    ],
)
def test_failures_report_case_count_and_counterexample(
    monkeypatch, target, attr, fault, check_id, expected
):
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    report = run_suite(d_max=2, k_max=3, samples=2, seed=5, only=[check_id])
    (result,) = report.checks
    assert (result.passed, result.cases, result.counterexample) == expected
    assert not report.passed

"""Self-tests of the gradient-check harness: its table and its power to fail."""

import pytest

from msml.gradcheck import CASES, TOLERANCES, check_case

CASE_IDS = [(scope, name) for scope, cases in CASES.items() for name in cases]


def test_every_case_has_exactly_one_tolerance():
    assert set(TOLERANCES) == {name for _, name in CASE_IDS}


@pytest.mark.parametrize("scope,name", CASE_IDS, ids=[name for _, name in CASE_IDS])
def test_perturbed_gradient_fails(scope, name):
    assert check_case(scope, name, 0, perturb=1e-3) > TOLERANCES[name]

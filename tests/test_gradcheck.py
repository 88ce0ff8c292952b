"""Self-tests of the gradient-check harness: its table and its power to fail."""

import pytest

from helpers import bias_gradients
from msml.gradcheck import CASES, TOLERANCES, check_case

CASE_IDS = [(scope, name) for scope, cases in CASES.items() for name in cases]


def test_every_case_has_exactly_one_tolerance():
    # TOLERANCES is read off CASES by name, so a name in two scopes would lose a tolerance
    assert set(TOLERANCES) == {name for _, name in CASE_IDS} and len(TOLERANCES) == len(CASE_IDS)


@pytest.mark.parametrize("scope,name", CASE_IDS, ids=[name for _, name in CASE_IDS])
def test_perturbed_gradient_fails(monkeypatch, scope, name):
    assert check_case(scope, name, 0) <= TOLERANCES[name]
    bias_gradients(monkeypatch, scope, 1e-3)
    assert check_case(scope, name, 0) > TOLERANCES[name]

"""Fixtures shared by the whole suite."""

import pytest

from repro.core.constraints import ConstraintSet
from repro.core.ordering import ConstraintPlan


@pytest.fixture
def complete_constraint_lists(monkeypatch):
    """Every plan answers the way an explicit ``ConstraintSet`` does: its
    complete list, whatever the scope.  That is the paper's behaviour and
    what the reference backend runs, so it is both the baseline the
    selection rule (``ConstraintPlan.select``) is compared against and the
    way a test about the pre-filter walks themselves keeps them running.
    """
    monkeypatch.setattr(ConstraintPlan, "select", ConstraintSet.select)

"""The relations of ``relations.py`` that hold today, on the Tier-1 domain:
seeded log-uniform draws with n and m up to 3,000, 3-digit levels and delta
in [1e-6, 0.9], both regimes.  ``python tests/relations.py --seconds N``
runs them, and the ones that fail today, over the wide domain."""

from __future__ import annotations

import random

import pytest

from relations import HOLDING, TIER1, run

# draws per relation, and the fewest comparisons each must make
PLAN = {"delta_monotone": (400, 800), "alpha_monotone": (400, 800),
        "dkwm_below_ssbc": (800, 100), "feasible_bracket": (400, 400)}


@pytest.mark.parametrize("name", sorted(HOLDING))
def test_relation_holds(name):
    draws, least = PLAN[name]
    answered, checks, broken = run(HOLDING[name], TIER1, random.Random(name), draws)
    assert broken == []
    assert answered == draws and checks >= least

"""Robustness census of the parameter box that validate accepts.

Seeded sets drawn over the whole box (census_sets) run through
evolve_trajectory in closed form, with every RuntimeWarning an error, and
each outcome is put in one class. Inside the box no set may meet a bare
exception, an OutOfRange, a refused steady state or a NonPhysicalInput off
the marginal coupling |nu| = omega1*omega2. Two known classes occur at
every exponent, omega = 1 included, and are counted and allowed: at the
marginal coupling with little damping the lower mode moves freely, and over
long times its squeezing outgrows what the float entries of sigma resolve
(NonPhysicalInput); and the discord is NaN on some rows, the pure ones
(t = 0, lambda = 0) and others of near-pure or strongly squeezed states.
Just outside each bound of the box, every set is refused with an
InvalidParameters that names the bound.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscbath import (
    InvalidParameters,
    OscbathError,
    coupling_bound,
    evolve_trajectory,
    initial_squeezed_vacuum,
    propagate,
    require_valid,
    steady_state,
)
from oscbath.model import _BOX_EXPONENT, _BOX_MAX, _BOX_MIN, _SQUEEZING_LIMIT
from helpers import FIG1A, census_sets

CENSUS_SEED = 18
CENSUS_SETS = 1200

# the classes a set inside the box may fall in
ALLOWED = {
    "finite",
    "NonPhysicalInput at the marginal coupling",
    "NaN discord on a pure row",
    "NaN discord on another row",
}


def census(exponent: int, count: int, seed: int) -> collections.Counter:
    """Class counts of ``count`` census sets of the box of ``exponent``: an
    error's class name (with " at the marginal coupling" there), "bare
    exception", or "finite" for a trajectory, plus the sets whose discord
    is NaN on a pure row (t = 0 or lambda = 0) or on another row."""
    counts = collections.Counter()
    for params, grid in census_sets(np.random.default_rng(seed), count, exponent):
        where = " at the marginal coupling" if abs(params.nu) == coupling_bound(params) else ""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = evolve_trajectory(params, grid)
        except OscbathError as exc:
            counts[type(exc).__name__ + where] += 1
            continue
        except Exception:  # noqa: BLE001 - counted; the test allows none
            counts["bare exception"] += 1
            continue
        counts["finite"] += 1
        nan = np.isnan(traj.report.discord)
        pure = (traj.times == 0.0) | (params.lambda_ == 0.0)
        counts["NaN discord on a pure row"] += bool((nan & pure).any())
        counts["NaN discord on another row"] += bool((nan & ~pure).any())
    return counts


def test_census_inside_the_box():
    counts = census(_BOX_EXPONENT, CENSUS_SETS, CENSUS_SEED)
    assert set(counts) <= ALLOWED, counts


# (field, the value just outside the bound, the bound as the message names it)
JUST_OUTSIDE = [
    ("omega", math.nextafter(_BOX_MIN, 0.0), "2**-11 <= omega <= 2**11"),
    ("omega", math.nextafter(_BOX_MAX, math.inf), "2**-11 <= omega <= 2**11"),
    ("lambda_", math.nextafter(_BOX_MAX, math.inf), "0 <= lambda <= 2**11"),
    ("temperature", math.nextafter(_BOX_MAX, math.inf), "0 <= temperature <= 2**11"),
    ("r", math.nextafter(_SQUEEZING_LIMIT, math.inf), "0 <= r <= 4.5790"),
]


@pytest.mark.parametrize("field, value, bound", JUST_OUTSIDE)
def test_just_outside_each_bound_is_refused(field, value, bound):
    # the bound itself is inside the box
    require_valid(dataclasses.replace(FIG1A, nu=0.0, **{field: math.nextafter(value, 1.0)}))
    for params, _ in census_sets(np.random.default_rng(CENSUS_SEED), 20, _BOX_EXPONENT):
        outside = dataclasses.replace(params, **{field: value})
        calls = [require_valid, lambda p: evolve_trajectory(p),
                 lambda p: propagate(initial_squeezed_vacuum(min(p.r, 1.0)), p, 1.0)]
        if outside.lambda_:
            calls.append(steady_state)
        for call in calls:
            with pytest.raises(InvalidParameters, match=re.escape(bound)):
                call(outside)


_FIELDS = {"omega": (_BOX_MIN, _BOX_MAX), "lambda_": (0.0, _BOX_MAX),
           "temperature": (0.0, _BOX_MAX), "r": (0.0, _SQUEEZING_LIMIT)}
_NAMES = {"omega": "omega", "lambda_": "lambda", "temperature": "temperature", "r": "r"}


@st.composite
def outside_the_box(draw):
    """A field and a value beyond its bound: below, above, inf or NaN."""
    field = draw(st.sampled_from(sorted(_FIELDS)))
    low, high = _FIELDS[field]
    value = draw(st.floats(max_value=math.nextafter(low, -math.inf), allow_nan=False)
                 | st.floats(min_value=math.nextafter(high, math.inf))
                 | st.just(math.nan))
    return field, value


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(outside_the_box())
def test_every_set_outside_the_box_is_refused(problem):
    field, value = problem
    params = dataclasses.replace(FIG1A, nu=0.0, **{field: value})
    with pytest.raises(InvalidParameters, match=rf"^{_NAMES[field]} must satisfy .*"
                                                rf"\(got {re.escape(str(value))}\)$"):
        require_valid(params)
    with pytest.raises(InvalidParameters, match=f"{_NAMES[field]} must satisfy"):
        evolve_trajectory(params)

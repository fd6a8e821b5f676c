"""The msp stage's floats against ``tests/exact.py``'s exact values, on the
bundled data: each column's largest error, in ulps, stays within a bound
pinned at the maximum measured on the bundled msp run."""

import math
from fractions import Fraction

import pytest

import exact
from agripellet.costs import COST_COLUMNS
from agripellet.pipeline import run_pipeline
from agripellet.pricing import BREAK_EVEN_COLUMNS

# The largest error of each column on the bundled msp run, in ulps of the
# exact value; the three differences of larger terms (tax, cash flow and NPV,
# whose exact value is 0) in ulps of their largest term.  A change that moves
# a column's rounding sets its bound to the new maximum and says why.
MAX_ULPS = {
    "epc_usd": 0.47432708740234375,          # Vietnam
    "tfc_usd": 1.251870272317693,            # Ireland
    "capex_usd": 1.4822256150950974,         # Ireland
    "opex_usd_per_y": 1.4791545867919922,    # United Arab Emirates
    "msp_usd_per_t": 2.4220675438627257,     # Thailand
    "msp_usd_per_tj": 2.8385542636816843,    # Lebanon
    "npv_at_msp_usd": 29.0,                  # Indonesia
    "revenue_usd_per_y": 2.848653058921424,  # Portugal
    "tax_usd_per_y": 2.7608731466236205,     # Thailand
    "cash_flow_usd_per_y": 2.156204499859949,  # Portugal
    "annuity_factor": 7.296540698112907,     # Germany
}


@pytest.fixture(scope="module")
def msp_run(dataset):
    """Each row of the bundled msp run: its values, its exact costs and
    break-even columns, and the largest terms of the differences."""
    columns = run_pipeline(dataset, "msp").columns
    cfg = dataset.config
    rows = []
    for row in range(len(columns["country"])):
        value = {name: col[row] for name, col in columns.items()}
        solved, largest = exact.break_even(value, cfg.horizon_years, cfg.salvage_rate)
        rows.append((value, {**exact.cost_cascade(value), **solved}, largest))
    return rows


@pytest.mark.parametrize("column", [*COST_COLUMNS, *BREAK_EVEN_COLUMNS])
def test_column_is_within_its_pinned_ulps(msp_run, column):
    errors = [float(exact.ulp_error(value[column], exact_values[column], largest.get(column)))
              for value, exact_values, largest in msp_run if value[column] is not None]
    assert errors and max(errors) <= MAX_ULPS[column]


@pytest.mark.parametrize("x", [1.0, 1.5, 0.1, 3.0, 1e300, 2.2250738585072014e-308, 5e-324])
def test_ulp_is_the_float_spacing(x):
    assert exact.ulp(Fraction(x)) == Fraction(math.ulp(x)) == exact.ulp(Fraction(-x))


@pytest.mark.parametrize("r", [0.0, 5e-324, 1e-9, 0.05, 0.08, 1.0])
def test_annuity_is_the_sum_of_the_discounts(r):
    rate = Fraction(r)
    assert exact.annuity(rate, 20) == sum((1 + rate) ** -t for t in range(1, 21))

import pytest

from agripellet.dataio import DataError
from agripellet.yoy import GrowthResult, yoy_growth


def test_growth_simple_pair():
    result = yoy_growth([(2020, 100.0), (2021, 150.0)])
    assert result.average == pytest.approx(0.5)
    assert result.pairs[0].growth == pytest.approx(0.5)


def test_growth_constant_series():
    result = yoy_growth([(2012, 5.0), (2013, 5.0), (2014, 5.0)])
    assert result.average == 0.0


def test_growth_constant_rate_round_trip():
    # a series built from a constant 79.2%/y growth rate returns that average
    values = [(2012, 120_000.0)]
    for year in range(2013, 2023):
        values.append((year, values[-1][1] * 1.792))
    result = yoy_growth(values)
    assert isinstance(result, GrowthResult)
    assert len(result.pairs) == 10
    assert result.average == pytest.approx(0.792, rel=1e-12)


def test_growth_zero_base_years_skipped():
    result = yoy_growth([(2019, 0.0), (2020, 10.0), (2021, 20.0)])
    assert result.pairs[0].growth is None
    assert result.average == pytest.approx(1.0)


def test_growth_errors():
    with pytest.raises(DataError, match="at least two"):
        yoy_growth([(2020, 1.0)])
    with pytest.raises(DataError, match="consecutive"):
        yoy_growth([(2018, 1.0), (2020, 2.0)])
    with pytest.raises(DataError, match="duplicate"):
        yoy_growth([(2020, 1.0), (2020, 2.0)])
    with pytest.raises(DataError, match="zero"):
        yoy_growth([(2020, 0.0), (2021, 0.0)])

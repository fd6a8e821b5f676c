"""Reference implementations that tests compare the package with.

The break-even solver as plain loops, linear in the horizon but plainly
right, checks the closed forms in ``agripellet.pricing``; ``format_cell``
spells out, one value at a time, the CSV cell each typed value is written as;
and the reference writer builds each per-country file the plain way, typed
rows through ``csv.writer`` and ``{column: value}`` records through
``json``, against which ``agripellet.reporting``'s streamed writer is compared
byte for byte.
"""

from dataclasses import asdict
from pathlib import Path

from agripellet.dataio import DataError, write_csv
from agripellet.pricing import BreakEvenInputs, annual_cash_flow, salvage_value
from agripellet.reporting import _SAME_AS, PLOT_COLUMNS, REPORT_COLUMNS, write_json

BISECTION_BRACKET = (0.0, 1e6)  # $/t


def npv(price: float, inputs: BreakEvenInputs) -> float:
    """Net present value over the horizon, summed year by year."""
    _, _, cf = annual_cash_flow(price, inputs)
    total = 0.0
    factor = 1.0
    for _ in range(inputs.n):
        factor /= 1.0 + inputs.r
        total += cf * factor
    return total + salvage_value(inputs) * factor - inputs.capex


def solve_msp_bisection(inputs: BreakEvenInputs, npv_tol: float = 1e-5,
                        max_iter: int = 200) -> float:
    """Root of the year-by-year NPV(price) by bisection on the fixed price bracket.

    Iterates until the residual NPV at the midpoint is within ``npv_tol``
    dollars, so the returned price satisfies the break-even condition to the
    same tolerance as the closed form.
    """
    lo, hi = BISECTION_BRACKET
    f_lo = npv(lo, inputs)
    f_hi = npv(hi, inputs)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise DataError(
            f"no sign change on price bracket [{lo}, {hi}]: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = npv(mid, inputs)
        if abs(f_mid) <= npv_tol:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return mid


def format_cell(value) -> str:
    """One CSV cell: empty for None, ``true``/``false``, ``repr`` for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table_values(columns, result) -> list:
    """One list of typed values per evaluated country; a column its stage or a
    plan-less country leaves out reads None."""
    names = [_SAME_AS.get(name, name) for name in columns]
    return [[r.values.get(name) for name in names] for r in result.reports]


def table_rows(columns, result) -> list:
    """The CSV form: header plus one row per country, bools spelled as in JSON."""
    return [list(columns), *([format_cell(v) if isinstance(v, bool) else v for v in row]
                             for row in table_values(columns, result))]


def table_records(columns, result) -> dict:
    """The JSON form: one ``{column: value}`` record per country, plus failures."""
    return {"countries": [dict(zip(columns, row)) for row in table_values(columns, result)],
            "errors": [{"country": name, "message": msg} for name, msg in result.errors]}


def write_table(path, columns, result) -> None:
    """One per-country output, as CSV or, for a ``.json`` path, as JSON."""
    path = Path(path)
    if path.suffix == ".json":
        write_json(path, table_records(columns, result))
    else:
        write_csv(path, table_rows(columns, result))


def write_report_files(out_dir, result) -> None:
    """``countries.csv``, ``global.json`` and the plot CSVs, each built on its own."""
    out_dir = Path(out_dir)
    write_csv(out_dir / "countries.csv", table_rows(REPORT_COLUMNS, result))
    write_json(out_dir / "global.json", {"global": asdict(result.global_report),
                                         **table_records(REPORT_COLUMNS, result)})
    for name, columns in PLOT_COLUMNS.items():
        write_csv(out_dir / name, table_rows(columns, result))

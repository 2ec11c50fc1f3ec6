"""Chain file parsing and result serialization.

Input formats, chosen by the file's suffix:

* ``.csv`` with header ``name,tolerance,influence`` (the influence column is
  optional and defaults to 1).  The tolerance column holds the half-width
  magnitude: sign glyphs are rejected there, influence cells may be
  negative.
* ``.json`` object ``{"contributors": [{"name", "tolerance", "influence"?}]}``.

Output formats for results, sweep curves and study rows:

* ``table``  aligned human-readable text, 4 significant digits.
* ``csv`` / ``json``  full precision; floats are written with their
  shortest round-tripping representation, so read-back is lossless.
  JSON has no spelling for inf or nan and writes them as null.

All files are UTF-8; CRLF and LF are both accepted on read, LF is written.
A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Sequence, Union

from .bounds import Method, ToleranceResult
from .chain import Contributor, StackChain, build_chain
from .study import StudyRow

__all__ = ["ChainFileError", "CurvePoint", "read_chain", "write_results"]

Destination = Union[str, Path, IO[str]]


class ChainFileError(ValueError):
    """Chain file failed to parse or validate; message carries the location."""


@dataclass(frozen=True)
class CurvePoint:
    """One (confidence level, method, half-width) row of a sweep curve."""

    rho: float
    method: Method
    t: float


def _reject_sign_glyphs(cell: str, where: str, allow_ascii_sign: bool) -> None:
    if "±" in cell or "−" in cell:
        raise ChainFileError(f"{where}: sign glyphs are not allowed, got {cell!r}")
    if not allow_ascii_sign and cell[:1] in ("+", "-"):
        raise ChainFileError(
            f"{where}: tolerance is a magnitude, leading sign not allowed, got {cell!r}"
        )


def _parse_number(cell: str, where: str, allow_ascii_sign: bool) -> float:
    cell = cell.strip()
    if not cell:
        raise ChainFileError(f"{where}: empty numeric cell")
    _reject_sign_glyphs(cell, where, allow_ascii_sign)
    try:
        value = float(cell)
    except ValueError:
        raise ChainFileError(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ChainFileError(f"{where}: value must be finite, got {cell!r}")
    return value


def _contributor(where: str, name: str, half_width: float, influence: float) -> Contributor:
    try:
        return Contributor(name=name, half_width=half_width, influence=influence)
    except ValueError as exc:
        raise ChainFileError(f"{where}: {exc}") from None


def _read_chain_csv(path: Path) -> StackChain:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header: list[str] | None = None
        contributors: list[Contributor] = []
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if header is None:
                header = [cell.strip().lower() for cell in row]
                if header not in (["name", "tolerance"], ["name", "tolerance", "influence"]):
                    raise ChainFileError(
                        f"{path}:{reader.line_num}: header must be "
                        f"'name,tolerance[,influence]', got {','.join(header)!r}"
                    )
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ChainFileError(
                    f"{where}: expected {len(header)} cells, got {len(row)}"
                )
            name = row[0].strip()
            if not name:
                raise ChainFileError(f"{where}: field 'name': must be non-empty")
            tol = _parse_number(row[1], f"{where}: field 'tolerance'", allow_ascii_sign=False)
            infl = 1.0
            if len(header) == 3 and row[2].strip():
                infl = _parse_number(row[2], f"{where}: field 'influence'", allow_ascii_sign=True)
            contributors.append(_contributor(where, name, tol, infl))
        if header is None:
            raise ChainFileError(f"{path}: empty file")
    return _build(contributors, str(path))


def _json_number(obj: dict, key: str, where: str, required: bool) -> float | None:
    if key not in obj:
        if required:
            raise ChainFileError(f"{where}: missing field {key!r}")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChainFileError(f"{where}: field {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the largest double
        number = math.inf
    if not math.isfinite(number):
        raise ChainFileError(f"{where}: field {key!r} must be finite, got {value!r}")
    return number


def _read_chain_json(path: Path) -> StackChain:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChainFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # an integer past the digit limit, or bytes not UTF-8
            raise ChainFileError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or "contributors" not in doc:
        raise ChainFileError(f"{path}: top level must be an object with a 'contributors' list")
    items = doc["contributors"]
    if not isinstance(items, list):
        raise ChainFileError(f"{path}: 'contributors' must be a list")
    contributors: list[Contributor] = []
    for i, item in enumerate(items):
        where = f"{path}: contributors[{i}]"
        if not isinstance(item, dict):
            raise ChainFileError(f"{where}: must be an object")
        name = item.get("name")
        if not isinstance(name, str) or not name.strip():
            raise ChainFileError(f"{where}: field 'name' must be a non-empty string")
        tol = _json_number(item, "tolerance", where, required=True)
        infl = _json_number(item, "influence", where, required=False)
        contributors.append(
            _contributor(where, name.strip(), tol, 1.0 if infl is None else infl)
        )
    return _build(contributors, str(path))


def _build(contributors: list[Contributor], source: str) -> StackChain:
    try:
        return build_chain(contributors)
    except ValueError as exc:
        raise ChainFileError(f"{source}: {exc}") from None


def read_chain(path: "str | Path") -> StackChain:
    """Load a stack chain from a ``.csv`` or ``.json`` file, by its suffix.

    Raises ChainFileError with the offending line or field on any parse or
    validation problem; contributor order is preserved.
    """
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".csv":
        return _read_chain_csv(p)
    if suffix == ".json":
        return _read_chain_json(p)
    raise ChainFileError(f"{p}: cannot determine format (expected .csv or .json)")


def _record(item: object) -> dict:
    """Column name -> cell value, in output column order."""
    if isinstance(item, StudyRow):
        rec = {"chain_id": item.chain_id, "s1": item.s1, "d_factor": item.d_factor}
        for m, t in item.ts.items():
            rec[f"{m.value}_t"] = t
            rec[f"{m.value}_f"] = item.fs[m]
        rec["mc_t"] = item.mc_t
        return rec
    if isinstance(item, (ToleranceResult, CurvePoint)):
        rec = {f.name: getattr(item, f.name) for f in fields(item)}
        rec["method"] = item.method.value
        return rec
    raise ValueError(f"cannot serialize values of type {type(item).__name__}")


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _write_table(records: Sequence[dict], fh: IO[str]) -> None:
    cells = [list(records[0])] + [[_table_cell(v) for v in r.values()] for r in records]
    widths = [max(len(line[j]) for line in cells) for j in range(len(cells[0]))]
    numeric = [not isinstance(v, str) for v in records[0].values()]
    for k, line in enumerate(cells):
        out = []
        for j, cell in enumerate(line):
            if k > 0 and numeric[j]:
                out.append(cell.rjust(widths[j]))
            else:
                out.append(cell.ljust(widths[j]))
        fh.write("  ".join(out).rstrip() + "\n")


def _write_csv(records: Sequence[dict], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(records[0])
    for r in records:
        writer.writerow([_csv_cell(v) for v in r.values()])


def _write_json(records: Sequence[dict], fh: IO[str]) -> None:
    # inf and nan have no JSON spelling; null keeps the file strict JSON
    cells = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in r.items()} for r in records]
    json.dump(cells, fh, indent=2, allow_nan=False)
    fh.write("\n")


def write_results(results: Sequence[object], fmt: str, destination: Destination) -> None:
    """Serialize tolerance results, curve points, or study rows.

    ``fmt`` is one of table, csv, json.  ``destination`` is a path or an
    open text handle; handles are written to but not closed.  The result
    list must be nonempty and homogeneous: every record has the first
    one's columns, in order.
    """
    if not results:
        raise ValueError("nothing to write: results are empty")
    writers = {"table": _write_table, "csv": _write_csv, "json": _write_json}
    key = str(fmt).lower()
    if key not in writers:
        raise ValueError(f"unknown format {fmt!r}, expected table, csv, or json")
    records = [_record(r) for r in results]
    if any(list(r) != list(records[0]) for r in records):
        raise ValueError("results must be homogeneous")
    if hasattr(destination, "write"):
        writers[key](records, destination)  # type: ignore[arg-type]
    else:
        with open(Path(destination), "w", encoding="utf-8", newline="") as fh:
            writers[key](records, fh)

"""Chain file parsing and result serialization round-trips."""

import csv
import io
import json
import math

import pytest

from stacktol import (
    ChainFileError,
    CurvePoint,
    Method,
    StackChain,
    analyze_all,
    read_chain,
    t_wc,
    write_results,
)
from stacktol.study import StudyRow
from conftest import CASE_BOUNDS, CASE_NAMES


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestReadCsv:
    def test_with_influence(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance,influence\na,2,1\nb,2,-0.5\n")
        chain = read_chain(p)
        assert chain.weighted_bounds == (2.0, 1.0)

    def test_without_influence_column(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance\na,2\nb,1\n")
        assert read_chain(p).weighted_bounds == (2.0, 1.0)

    def test_empty_influence_cell_defaults(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance,influence\na,2,\n")
        assert read_chain(p).weighted_bounds == (2.0,)

    def test_zero_influence_dropped(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance,influence\na,2,0\nb,1,1\n")
        chain = read_chain(p)
        assert [c.name for c in chain.contributors] == ["b"]

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"name,tolerance\r\n\r\na,2\r\nb,1\r\n")
        assert read_chain(p).weighted_bounds == (2.0, 1.0)

    def test_byte_order_mark_skipped(self, tmp_path):
        text = "name,tolerance,influence\na,2,1\nb,2,-0.5\n"
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_chain(bom) == read_chain(_write(tmp_path, "c.csv", text))

    def test_case_study_chain(self, tmp_path):
        rows = "\n".join(f"{n},{w}" for n, w in zip(CASE_NAMES, CASE_BOUNDS))
        p = _write(tmp_path, "case.csv", "name,tolerance\n" + rows + "\n")
        chain = read_chain(p)
        assert len(chain) == 10
        assert t_wc(chain) == pytest.approx(2.85, abs=1e-12)

    def test_order_preserved(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance\nz,3\na,1\nm,2\n")
        assert [c.name for c in read_chain(p).contributors] == ["z", "a", "m"]

    @pytest.mark.parametrize(
        "cell", ["±1", "-1", "+1", "−1", "1-2", "abc", "", "inf", "nan", "1e400"]
    )
    def test_bad_tolerance_cells(self, tmp_path, cell):
        p = _write(tmp_path, "c.csv", f"name,tolerance\na,{cell}\n")
        with pytest.raises(ChainFileError):
            read_chain(p)

    def test_blank_name_names_location(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance\ngood,1\n   ,2\n")
        with pytest.raises(ChainFileError, match=r"c\.csv:3: field 'name'"):
            read_chain(p)

    def test_zero_tolerance_names_location(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance\ngood,1\nbad,0\n")
        with pytest.raises(ChainFileError, match=r"c\.csv:3.*bad"):
            read_chain(p)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("c.csv", "name,tolerance\nx,0\n"),
            ("c.json", '{"contributors": [{"name": "x", "tolerance": 0}]}'),
        ],
    )
    def test_contributor_error_names_it_once(self, tmp_path, name, text):
        p = _write(tmp_path, name, text)
        with pytest.raises(ChainFileError) as exc:
            read_chain(p)
        assert str(exc.value).count("'x'") == 1

    def test_signed_influence_allowed_but_glyphs_rejected(self, tmp_path):
        ok = _write(tmp_path, "ok.csv", "name,tolerance,influence\na,2,-1.5\n")
        assert read_chain(ok).weighted_bounds == (3.0,)
        bad = _write(tmp_path, "bad.csv", "name,tolerance,influence\na,2,±1\n")
        with pytest.raises(ChainFileError):
            read_chain(bad)

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path, "c.csv", "part,size\na,2\n")
        with pytest.raises(ChainFileError, match="header"):
            read_chain(p)

    def test_wrong_cell_count(self, tmp_path):
        p = _write(tmp_path, "c.csv", "name,tolerance\na,2,9\n")
        with pytest.raises(ChainFileError, match=":2"):
            read_chain(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "c.csv", "")
        with pytest.raises(ChainFileError, match="empty"):
            read_chain(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_chain(tmp_path / "nope.csv")

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"name,tolerance\n\xff,1\n")
        with pytest.raises(ChainFileError, match=r"c\.csv: .*utf-8"):
            read_chain(p)

    def test_unknown_suffix_needs_fmt(self, tmp_path):
        p = _write(tmp_path, "c.txt", "name,tolerance\na,2\n")
        with pytest.raises(ChainFileError, match="format"):
            read_chain(p)


class TestReadJson:
    def test_happy_path(self, tmp_path):
        doc = {"contributors": [
            {"name": "a", "tolerance": 2, "influence": 1},
            {"name": "b", "tolerance": 2, "influence": -0.5},
            {"name": "c", "tolerance": 1},
        ]}
        p = _write(tmp_path, "c.json", json.dumps(doc))
        assert read_chain(p).weighted_bounds == (2.0, 1.0, 1.0)

    def test_byte_order_mark_skipped(self, tmp_path):
        text = json.dumps({"contributors": [{"name": "a", "tolerance": 2},
                                            {"name": "b", "tolerance": 1, "influence": -1}]})
        bom = tmp_path / "bom.json"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_chain(bom) == read_chain(_write(tmp_path, "c.json", text))

    def test_syntax_error_carries_location(self, tmp_path):
        p = _write(tmp_path, "c.json", '{"contributors": [}')
        with pytest.raises(ChainFileError, match=r"c\.json:1:"):
            read_chain(p)

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path):
        # json.load raises a plain ValueError on an integer of more than 4300 digits
        p = _write(tmp_path, "c.json", '{"contributors": [{"name": "a", "tolerance": 1%s}]}'
                   % ("0" * 5000))
        with pytest.raises(ChainFileError, match=r"c\.json: .*4300 digits"):
            read_chain(p)

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_bytes(b'{"contributors": [{"name": "\xff", "tolerance": 1}]}')
        with pytest.raises(ChainFileError, match=r"c\.json: .*utf-8"):
            read_chain(p)

    @pytest.mark.parametrize(
        "item",
        [
            {"name": "a"},
            {"name": "a", "tolerance": "2"},
            {"name": "a", "tolerance": True},
            {"name": "a", "tolerance": 0},
            {"name": "a", "tolerance": -1},
            {"name": "", "tolerance": 1},
            {"tolerance": 1},
            {"name": "a", "tolerance": 1, "influence": "x"},
            "not an object",
            {"name": "a", "tolerance": 10**400},  # an integer past the largest double
            {"name": "a", "tolerance": math.inf},  # written as Infinity
            {"name": "a", "tolerance": 1, "influence": math.nan},  # written as NaN
            {"name": "a", "tolerance": 1, "influence": 0},  # no contributor left
        ],
    )
    def test_bad_contributors(self, tmp_path, item):
        p = _write(tmp_path, "c.json", json.dumps({"contributors": [item]}))
        with pytest.raises(ChainFileError):
            read_chain(p)

    @pytest.mark.parametrize("doc", ["[]", "{}", '{"contributors": 3}'])
    def test_bad_top_level(self, tmp_path, doc):
        p = _write(tmp_path, "c.json", doc)
        with pytest.raises(ChainFileError):
            read_chain(p)


class TestWriteResults:
    def test_csv_round_trip_exact(self, table_chain, tmp_path):
        results = analyze_all(table_chain, 0.0027)
        path = tmp_path / "r.csv"
        write_results(results, "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for res, row in zip(results, rows):
            assert row["method"] == res.method.value
            assert float(row["t"]) == res.t  # bitwise equality after parse
            assert float(row["coverage"]) == res.coverage
            if res.f is None:
                assert row["f"] == "" and row["rho"] == ""
            else:
                assert float(row["f"]) == res.f
                assert float(row["rho"]) == res.rho

    def test_json_round_trip_exact(self, table_chain, tmp_path):
        results = analyze_all(table_chain, 0.05)
        path = tmp_path / "r.json"
        write_results(results, "json", path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert len(doc) == 8
        for res, obj in zip(results, doc):
            assert obj["t"] == res.t
            assert obj["f"] == res.f  # None -> null -> None

    def test_table_formatting(self, table_chain):
        buf = io.StringIO()
        write_results(analyze_all(table_chain, 0.0027), "table", buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 9
        assert lines[0].split()[:3] == ["method", "t", "t_clamped"]
        assert "7.416" in lines[2]  # rss row, 4 significant digits
        assert "-" in lines[1]  # wc row has no f

    def test_curve_csv_cardinality(self, tmp_path):
        methods = [Method.WC, Method.RSS, Method.CHERNOV, Method.HOEFFDING]
        points = [
            CurvePoint(rho=r, method=m, t=1.0 + i)
            for i, r in enumerate([0.01 * (k + 1) for k in range(50)])
            for m in methods
        ]
        path = tmp_path / "curve.csv"
        write_results(points, "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rho,method,t"
        assert len(lines) == 1 + 200

    def test_study_row_columns(self, tmp_path):
        row = StudyRow(
            chain_id=0, s1=0.1, d_factor=0.2,
            ts={Method.CHERNOV: 1.5, Method.HOEFFDING: 3.0},
            fs={Method.CHERNOV: 1.1, Method.HOEFFDING: 3.0},
            mc_t=None,
        )
        path = tmp_path / "study.csv"
        write_results([row], "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "chain_id,s1,d_factor,chernov_t,chernov_f,hoeffding_t,hoeffding_f,mc_t"
        assert lines[1].endswith(",")  # empty mc_t cell

    @pytest.mark.parametrize(
        "rows",
        [
            [CurvePoint(rho=0.01, method=Method.CHERNOV, t=2.5)],
            [StudyRow(chain_id=0, s1=0.1, d_factor=0.2,
                      ts={Method.LIPSCHITZ: 1.5, Method.WC: 3.0},
                      fs={Method.LIPSCHITZ: 1.1, Method.WC: 2.0}, mc_t=1.2)],
        ],
    )
    def test_json_and_table_columns_match_csv(self, rows):
        outs = {}
        for fmt in ("csv", "json", "table"):
            buf = io.StringIO()
            write_results(rows, fmt, buf)
            outs[fmt] = buf.getvalue()
        header = outs["csv"].splitlines()[0].split(",")
        assert list(json.loads(outs["json"])[0]) == header
        assert outs["table"].splitlines()[0].split() == header

    def test_rows_with_other_columns_are_rejected(self):
        rows = [
            StudyRow(chain_id=0, s1=0.1, d_factor=0.2, ts={Method.CHERNOV: 1.5},
                     fs={Method.CHERNOV: 1.1}, mc_t=None),
            StudyRow(chain_id=1, s1=0.1, d_factor=0.2,
                     ts={Method.WC: 3.0, Method.RSS: 2.0},
                     fs={Method.WC: None, Method.RSS: None}, mc_t=None),
        ]
        for fmt in ("table", "csv", "json"):
            with pytest.raises(ValueError, match="homogeneous"):
                write_results(rows, fmt, io.StringIO())

    def test_lf_only_output(self, table_chain, tmp_path):
        path = tmp_path / "r.csv"
        write_results(analyze_all(table_chain, 0.05), "csv", path)
        assert b"\r" not in path.read_bytes()

    def test_writes_to_handle_without_closing(self, table_chain):
        buf = io.StringIO()
        write_results(analyze_all(table_chain, 0.05), "csv", buf)
        assert not buf.closed and buf.getvalue().startswith("method,")

    def test_errors(self, table_chain):
        results = analyze_all(table_chain, 0.05)
        with pytest.raises(ValueError, match="empty"):
            write_results([], "csv", io.StringIO())
        with pytest.raises(ValueError, match="homogeneous"):
            write_results([results[0], CurvePoint(0.05, Method.WC, 1.0)], "csv", io.StringIO())
        with pytest.raises(ValueError, match="format"):
            write_results(results, "yaml", io.StringIO())
        with pytest.raises(ValueError):
            write_results([math.pi], "csv", io.StringIO())

"""Results CSVs: the exact bytes written for sweep rows and trade-off points."""

import pytest

from hude.bench import ResultRow
from hude.distributions import read_rows, write_rows
from hude.tradeoff import TradeoffPoint

RESULT_ROWS = [
    ResultRow("elimination", 2000, 500, 50, 3, None, 1.0, 4012.5, 61234.25, 7),
    ResultRow("subset", 2000, 500, 50, 3, 1519, 0.97, 666.6666666666666, 98765.5, 7),
]
RESULT_META = {"config": {"sweep_param": "k", "sweep_values": [2000], "seed": 7}, "version": "0.1.0"}
RESULT_TEXT = (
    '# {"config":{"seed":7,"sweep_param":"k","sweep_values":[2000]},"version":"0.1.0"}\n'
    "algorithm,k,n,S,ell,L,accuracy,mean_ops,mean_time_ns,seed\n"
    "elimination,2000,500,50,3,,1.0,4012.5,61234.25,7\n"
    "subset,2000,500,50,3,1519,0.97,666.6666666666666,98765.5,7\n"
)

_CURVE_CELLS = [
    ("numeric-lop", 0.0, "alpha-boundary;clamped"),
    ("analytic-lower", 0.125, "o1-dropped"),
    ("explicit-gapss", 1.0, "o1-dropped;clamped"),
    ("upper-half-uniform", 0.8312, ""),
    ("upper-simplified", 0.85, ""),
    ("prior-general", 0.9666666666666667, "user-constant"),
]
TRADEOFF_ROWS = [
    TradeoffPoint(curve, 30.0, 0.03333333333333333, 0.016, 1, rho_q, flags)
    for curve, rho_q, flags in _CURVE_CELLS
]
TRADEOFF_META = {
    "rho_u": 1,
    "epsilon": 1.0,
    "w_u": 0.5,
    "curves": [curve for curve, _, _ in _CURVE_CELLS],
    "version": "0.1.0",
}
TRADEOFF_TEXT = (
    '# {"curves":["numeric-lop","analytic-lower","explicit-gapss","upper-half-uniform",'
    '"upper-simplified","prior-general"],"epsilon":1.0,"rho_u":1,"version":"0.1.0","w_u":0.5}\n'
    "curve,s,inv_s,w_q,rho_u,rho_q,flags\n"
    "numeric-lop,30.0,0.03333333333333333,0.016,1,0.0,alpha-boundary;clamped\n"
    "analytic-lower,30.0,0.03333333333333333,0.016,1,0.125,o1-dropped\n"
    "explicit-gapss,30.0,0.03333333333333333,0.016,1,1.0,o1-dropped;clamped\n"
    "upper-half-uniform,30.0,0.03333333333333333,0.016,1,0.8312,\n"
    "upper-simplified,30.0,0.03333333333333333,0.016,1,0.85,\n"
    "prior-general,30.0,0.03333333333333333,0.016,1,0.9666666666666667,user-constant\n"
)


@pytest.mark.parametrize(
    "rows, metadata, text",
    [
        (RESULT_ROWS, RESULT_META, RESULT_TEXT),
        (RESULT_ROWS, None, RESULT_TEXT.split("\n", 1)[1]),
        (TRADEOFF_ROWS, TRADEOFF_META, TRADEOFF_TEXT),
        (TRADEOFF_ROWS, None, TRADEOFF_TEXT.split("\n", 1)[1]),
    ],
    ids=["results", "results-no-metadata", "tradeoff", "tradeoff-no-metadata"],
)
def test_golden_text(tmp_path, rows, metadata, text):
    path = tmp_path / "rows.csv"
    write_rows(rows, path, metadata)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize(
    "rows, row_type", [(RESULT_ROWS, ResultRow), (TRADEOFF_ROWS, TradeoffPoint)]
)
def test_round_trip(tmp_path, rows, row_type):
    path = tmp_path / "rows.csv"
    write_rows(rows, path, {"tag": "round-trip"})
    back = read_rows(path, row_type)
    assert back == rows


def _malformed(text):
    """(lines, 1-based line at fault) per defect, from a metadata + header + 2-row text."""
    meta, header, first, second = text.splitlines(keepends=True)[:4]
    cells = second.split(",")
    cells[1] = "many"
    return {
        "short-row": ([meta, header, first, second.rsplit(",", 1)[0] + "\n"], 4),
        "long-row": ([meta, header, first.replace("\n", ",9\n"), second], 3),
        "non-numeric-cell": ([meta, header, first, ",".join(cells)], 4),
        "wrong-header": ([meta, header.replace(",", ";", 1), first, second], 2),
        "header-only": ([meta, header], 2),
    }


MALFORMED = [
    pytest.param(row_type, lines, line, id=f"{row_type.__name__}-{defect}")
    for row_type, text in ((ResultRow, RESULT_TEXT), (TradeoffPoint, TRADEOFF_TEXT))
    for defect, (lines, line) in _malformed(text).items()
]


@pytest.mark.parametrize("row_type, lines, line", MALFORMED)
def test_malformed_file_names_its_line(tmp_path, row_type, lines, line):
    path = tmp_path / "rows.csv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        read_rows(path, row_type)


def test_writer_refuses_what_it_cannot_write(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="no rows"):
        write_rows([], path)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_rows(RESULT_ROWS, path, {"rho_u": float("nan")})
    assert not path.exists()

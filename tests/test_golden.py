"""Byte-for-byte pins of the CLI outputs, generated before the sweep went columnar.

The files under ``tests/data`` were written by ``gaussdisc sweep --out F``,
``gaussdisc sweep --spacing linear --out F`` and ``gaussdisc point --mu 2``.
"""

import pathlib

import pytest

from gaussdisc import cli

DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "extra, golden",
    [([], "sweep_default.csv"), (["--spacing", "linear"], "sweep_linear.csv")],
)
def test_sweep_csv_is_byte_identical(tmp_path, capsys, extra, golden):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *extra, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()
    assert capsys.readouterr().out == f"wrote 200 rows to {out}\n"


def test_sweep_bracket_crossing_message(tmp_path, capsys):
    # just above mu = 1 the local error bracket crosses by rounding: the
    # input is valid, so the crossing is an invariant violation
    argv = ["sweep", "--mu-min", "1.000001", "--mu-max", "2", "--points", "5"]
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: internal invariant violation at mu=1.000001: "
        "p_minus_local <= p_plus_local\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_point_json_is_byte_identical(capsys):
    assert cli.main(["point", "--mu", "2"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == (DATA / "point_mu2.json").read_text(encoding="utf-8")
    assert captured.err == ""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits
from kntorus import cli, cocycle, propagation
from kntorus.algebra import build_structure_table
from kntorus.basis import formal_params, lambda_coefficients
from kntorus.cocycle import DEFAULT_SIGN_CONVENTION, build_cocycle_table, reconciliation_report
from kntorus.config import TorusConfig
from kntorus.errors import DegenerateModuliError
from kntorus.verify import SUITES, CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_two_point(capsys):
    code, out, _ = run_cli(
        capsys, "params", "--tau-re", "0", "--tau-im", "1", "--q-re", "0",
        "--q-im", "0",
    )
    assert code == 0
    # q = 0 is stored as 0j whatever the signs of its zeros
    assert run_cli(capsys, "params", "--q-re", "-0", "--q-im", "-0")[1] == out
    payload = json.loads(out)
    assert payload["config"]["two_point"] is True
    results = payload["results"]
    assert abs(results["separation_time"] - math.log(2) / 2) < 1e-10
    assert abs(results["mu"][0] - 0.5) < 1e-10 and abs(results["mu"][1]) < 1e-10
    assert results["lambda"]["lam7"] == [0.0, 0.0]
    assert set(payload) == {"config", "results", "checks"}


def test_params_csv(capsys):
    code, out, _ = run_cli(capsys, "params", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,re,im"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "e1" in names and "lam7" in names and "separation_time" in names


def test_verify_quick_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "elliptic", "--tau-re", "0", "--tau-im", "1", "--q-re", "0.2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["all_passed"] is True
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "max_residual", "tolerance"}
        assert check["status"] == "pass"


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_suite(suite, cfg, window=8):
        return [
            CheckResult(name="stub", status="fail", max_residual=1.0, tolerance=0.1),
            CheckResult(name="unconverged", status="fail", max_residual=0.0, tolerance=0.1,
                        detail="segment did not converge"),
        ]

    monkeypatch.setattr(cli, "verify_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "elliptic")
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["all_passed"] is False
    # the detail key appears only where a check has one
    assert [c.get("detail") for c in payload["checks"]] == [None, "segment did not converge"]


def test_table_brackets_csv(capsys):
    # the text equals the per-row formatting of build_structure_table's rows;
    # the signed-zero lams pin that no zero part of a constant is -0.0, on
    # which the writer's one repr per distinct value relies
    derived = lambda_coefficients(TorusConfig(tau=1j, q=0.2))
    generic = ["--tau-re", "0.1", "--tau-im", "1.1", "--q-re", "0.2", "--q-im", "0.05"]
    signed = ["--lam5", "-1.5", "-0.0", "--lam6", "-0.0", "2", "--lam7", "-3", "-0.0"]
    signed_params = formal_params(complex(-1.5, -0.0), complex(-0.0, 2), complex(-3, -0.0))
    cases = [
        (2, "original", [], derived),
        (2, "shifted", [], derived),
        (32, "original", [], derived),
        (32, "shifted", [], derived),
        (32, "original", generic, lambda_coefficients(TorusConfig(tau=0.1 + 1.1j, q=0.2 + 0.05j))),
        (8, "original", ["--lam5", "0", "0"], formal_params()),
        (8, "original", signed, signed_params),
        (8, "shifted", signed, signed_params),
    ]
    for window, indexing, argv, params in cases:
        code, out, _ = run_cli(
            capsys, "table", "brackets", *argv, "--window", str(window), "--indexing", indexing,
            "--format", "csv",
        )
        assert code == 0
        expect = build_structure_table(params, window, indexing=indexing).rows()
        assert out == "\n".join(
            ["i,j,k,re,im", *(f"{i},{j},{k},{c.real!r},{c.imag!r}" for i, j, k, c in expect)]
        ) + "\n"
        if window == 2:
            # the lines read back to the rows bit for bit, in order
            lines = out.strip().splitlines()
            keys = [tuple(int(x) for x in line.split(",")[:3]) for line in lines[1:]]
            assert keys == sorted(keys)
            table = []
            for line in lines[1:]:
                i, j, k, re, im = line.split(",")
                table.append((int(i), int(j), int(k), (float(re).hex(), float(im).hex())))
            assert table == [(i, j, k, bits(c)) for i, j, k, c in expect]


# a lam part is often a zero of either sign; an omitted lam is 0
lam_parts = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))
table_lams = st.lists(st.none() | st.builds(complex, lam_parts, lam_parts), min_size=3, max_size=3)
TABLE_GEOMETRIES = (
    TorusConfig(tau=1j, q=0.2),
    TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j),
    TorusConfig(tau=0.3 + 1.1j, q=0),  # two-point: lam7 = 0
)


def _table_argv(lams, cfg):
    """(argv, params, config) of a table: the formal params of lams where
    any is given, else cfg's derived ones, with cfg as the config."""
    if any(lam is not None for lam in lams):
        argv = [
            arg
            for flag, lam in zip(("--lam5", "--lam6", "--lam7"), lams)
            if lam is not None
            for arg in (flag, repr(lam.real), repr(lam.imag))
        ]
        return argv, formal_params(*(0j if lam is None else lam for lam in lams)), None
    argv = ["--tau-re", repr(cfg.tau.real), "--tau-im", repr(cfg.tau.imag),
            "--q-re", repr(cfg.q.real), "--q-im", repr(cfg.q.imag)]
    return argv, lambda_coefficients(cfg), cfg


@settings(max_examples=60, deadline=None)
@given(table_lams, st.sampled_from(TABLE_GEOMETRIES), st.integers(1, 40), st.sampled_from(("original", "shifted")))
@example([0j, None, None], TABLE_GEOMETRIES[0], 40, "original")  # --lam5 0 0, the Witt table
@example([None] * 3, TABLE_GEOMETRIES[2], 40, "shifted")
@example([None] * 3, TABLE_GEOMETRIES[1], 256, "original")
def test_table_brackets_csv_is_the_per_row_text(lams, cfg, window, indexing):
    # the writer formats each key's text once and joins the mapped columns;
    # its text must be the plain per-row formatting of the table's rows.
    # Without a lam the constants are cfg's, else the formal ones
    argv, params, _ = _table_argv(lams, cfg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["table", "brackets", *argv, "--window", str(window), "--indexing", indexing, "--format", "csv"]
        )
    assert code == 0
    rows = build_structure_table(params, window, indexing=indexing).rows()
    assert out.getvalue() == "\n".join(
        ["i,j,k,re,im", *(f"{i},{j},{k},{c.real!r},{c.imag!r}" for i, j, k, c in rows)]
    ) + "\n"


def _cocycle_envelope(params, window, cfg=None) -> dict:
    """The table cocycle envelope built from the library's values, one dict
    per entry and per reconciliation record."""
    config = {"command": "table", "window": window}
    if cfg is not None:
        config.update({"tau": cli._c(cfg.tau), "q": cli._c(cfg.q), "two_point": cfg.two_point, "tol": cfg.tol})
    sigma_c, sigma_chi = DEFAULT_SIGN_CONVENTION
    table = build_cocycle_table(params, window)
    results = {
        "window": window,
        "params": cli._lam_json(params),
        "method": "sum",
        "sign_convention": {"sigma_c": sigma_c, "sigma_chi": sigma_chi},
        "entries": [{"i": i, "j": j, "chi": cli._c(c)} for (i, j), c in table.items()],
        "reconciliation": [
            {**e, "chi_sum": cli._c(e["chi_sum"]), "chi_closed": cli._c(e["chi_closed"])}
            for e in reconciliation_report(params, window, table)
        ],
    }
    return {"config": config, "results": results, "checks": []}


@settings(max_examples=60, deadline=None)
@given(table_lams, st.sampled_from(TABLE_GEOMETRIES), st.integers(1, 40))
@example([0j, None, None], TABLE_GEOMETRIES[0], 16)  # --lam5 0 0, the Witt table
@example([None] * 3, TABLE_GEOMETRIES[2], 32)  # q = 0: chi_closed's zero parts keep their sign
@example([None] * 3, TABLE_GEOMETRIES[1], 256)
def test_table_cocycle_is_the_per_record_text(lams, cfg, window):
    # the writer fills one template per record by %r;
    # its JSON must be json.dumps of the envelope built one dict per record,
    # and its CSV the per-row formatting of build_cocycle_table's entries
    argv, params, config = _table_argv(lams, cfg)
    texts = {}
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["table", "cocycle", *argv, "--window", str(window), "--format", fmt])
        assert code == 0
        texts[fmt] = out.getvalue()
    assert texts["json"] == _stdlib_json(_cocycle_envelope(params, window, config)) + "\n"
    chi = build_cocycle_table(params, window).items()
    assert texts["csv"] == "\n".join(["i,j,re,im", *(f"{i},{j},{c.real!r},{c.imag!r}" for (i, j), c in chi)]) + "\n"


def test_negative_numbers_in_exponent_notation_are_arguments(capsys):
    # argparse's own pattern reads -1.2e-05 as an option; every negative
    # float repr writes is a value, and -inf and -nan reach the refusals
    for argv in (
        ("table", "cocycle", "--lam7", "0", "-1.2e-5", "--window", "2"),
        ("levellines", "--u", "-1e-05", "--samples", "16"),
        ("params", "--tau-re", "-1.5e-05"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        assert json.loads(out)["results"], argv
    # the value read is the one written
    code, out, _ = run_cli(capsys, "table", "cocycle", "--lam7", "0", "-1.2e-5", "--window", "2", "--format", "csv")
    chi = build_cocycle_table(formal_params(0j, 0j, complex(0, -1.2e-5)), 2).items()
    assert code == 0 and out == "\n".join(["i,j,re,im", *(f"{i},{j},{c.real!r},{c.imag!r}" for (i, j), c in chi)]) + "\n"
    for argv, message in (
        (("levellines", "--u", "-inf", "--samples", "16"), "error: u must be finite, got -inf\n"),
        (("table", "cocycle", "--lam5", "-inf", "0", "--window", "2"), "error: lam5 must be finite, got (-inf+0j)\n"),
        (("table", "brackets", "--lam6", "0", "-nan"), "error: lam6 must be finite, got nanj\n"),
        (("params", "--tau-re", "-inf"), "error: tau must be finite"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(message), err


def test_table_cocycle_witt(capsys):
    code, out, _ = run_cli(
        capsys, "table", "cocycle", "--lam5", "0", "0", "--window", "8",
    )
    assert code == 0
    payload = json.loads(out)
    entries = {(e["i"], e["j"]): e["chi"] for e in payload["results"]["entries"]}
    for m in range(2, 9):
        expect = 13.0 / 6.0 * (m**3 - m)
        assert abs(entries[(m, -m)][0] - expect) < 1e-9
        assert abs(entries[(m, -m)][1]) < 1e-12
    assert payload["results"]["reconciliation"] == []
    assert payload["results"]["sign_convention"] == {"sigma_c": 1, "sigma_chi": -1}
    assert payload["results"]["method"] == "sum" and payload["results"]["window"] == 8


def test_table_cocycle_derived_reports(capsys):
    code, out, _ = run_cli(
        capsys, "table", "cocycle", "--tau-re", "0", "--tau-im", "1", "--q-re", "0.2",
        "--window", "6",
    )
    assert code == 0
    payload = json.loads(out)
    report = payload["results"]["reconciliation"]
    assert isinstance(report, list)
    for entry in report:
        assert set(entry) == {"i", "j", "chi_sum", "chi_closed", "abs_diff"}
    # the CSV rows read back to build_cocycle_table's entries bit for bit
    code, out, _ = run_cli(
        capsys, "table", "cocycle", "--tau-re", "0", "--tau-im", "1", "--q-re", "0.2",
        "--window", "6", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,re,im"
    table = {}
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        table[int(i), int(j)] = (float(re).hex(), float(im).hex())
    expect = build_cocycle_table(lambda_coefficients(TorusConfig(tau=1j, q=0.2)), 6)
    assert list(table) == sorted(expect)
    assert table == {key: bits(c) for key, c in expect.items()}


def test_table_formal_lambdas(capsys):
    for indexing in ("original", "shifted"):
        code, out, _ = run_cli(
            capsys, "table", "brackets", "--lam5", "1.5", "0", "--window", "2", "--indexing", indexing,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["params"]["lam5"] == [1.5, 0.0]
        assert payload["results"]["params"]["provenance"] == "formal"
        assert payload["results"]["window"] == 2 and payload["results"]["indexing"] == indexing


def test_overflowing_tables_name_the_lams(capsys, monkeypatch):
    # each lam is finite, but the entries formed from them are not
    for argv in (
        ("table", "cocycle", "--lam5", "1e200", "0", "--window", "4"),
        ("table", "cocycle", "--lam5", "1e200", "0", "--window", "4", "--format", "csv"),
        ("table", "brackets", "--lam5", "1e308", "1e308", "--format", "csv"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == "error: --lam5/--lam6/--lam7: the table would hold numbers that are not finite\n"
    # a reconciliation entry is written too
    entry = {"i": 2, "j": -2, "chi_sum": 1j, "chi_closed": complex(math.inf, 0), "abs_diff": math.inf}
    monkeypatch.setattr(cli, "reconciliation_report", lambda params, window, table: [entry])
    code, out, err = run_cli(capsys, "table", "cocycle", "--window", "2")
    assert code == 2 and out == "" and err.startswith("error: --lam5/--lam6/--lam7: ")


def test_levellines_csv(capsys):
    code, out, _ = run_cli(
        capsys, "levellines", "--u", "0.0", "--samples", "32", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,re,im"
    assert len(lines) > 1
    for line in lines[1:]:
        u, re, im = (float(x) for x in line.split(","))
        assert u == 0.0


def test_levellines_json_schema(capsys):
    code, out, _ = run_cli(capsys, "levellines", "--u", "0.5", "--samples", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["count"] == len(payload["results"]["points"])


def _stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_matches_stdlib_on_every_envelope(capsys, monkeypatch):
    # the stdlib encoder is the oracle: every envelope the CLI writes is
    # written as json.dumps writes it, the NaN residual at tau = 0.02i too
    envelopes = []
    write = cli._write_json

    def record(value, out, newline="\n"):
        if newline == "\n":  # the top level; nested values start further in
            envelopes.append(value)
        write(value, out, newline)

    monkeypatch.setattr(cli, "_write_json", record)
    for argv in (
        ("params",),
        *(("verify", suite) for suite in (*SUITES, "all")),
        ("verify", "algebra", "--tau-im", "0.02"),
        ("table", "brackets", "--window", "4", "--indexing", "original"),
        ("table", "brackets", "--window", "4", "--indexing", "shifted"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1), argv
        (envelope,) = envelopes
        envelopes.clear()
        assert out == _stdlib_json(envelope) + "\n", argv
    # the cocycle and level-line envelopes hold their entries, records and
    # points as templates, which json cannot write: their oracles are the
    # envelopes built from the values
    code, out, _ = run_cli(capsys, "table", "cocycle", "--window", "8")
    cfg = TorusConfig(tau=1j, q=0.2)
    assert code == 0 and out == _stdlib_json(_cocycle_envelope(lambda_coefficients(cfg), 8, cfg)) + "\n"
    config = {"command": "levellines", "tau": cli._c(cfg.tau), "q": cli._c(cfg.q), "two_point": False, "tol": cfg.tol}
    for u in (0.3, 1e300):  # the empty list too
        code, out, _ = run_cli(capsys, "levellines", "--u", repr(u), "--samples", "32")
        points = propagation.level_line_samples(cfg, u, 32).points
        results = {"u": u, "count": len(points), "points": [cli._c(p) for p in points]}
        assert code == 0 and out == _stdlib_json({"config": config, "results": results, "checks": []}) + "\n", u


def test_json_writer_matches_stdlib_on_edge_values():
    def written(value) -> str:
        out = []
        cli._write_json(value, out)
        return "".join(out)

    obj = {
        "empty": {},
        "nested_empty": {"list": [], "dict": {}, "deeper": [[], [{}], {"x": []}]},
        "flags": [True, False, None],
        "ints": [0, -7, 2**70],
        "floats": [-0.0, 1e300, 5e-324, 0.1, math.nan, math.inf, -math.inf, np.float64(-2.5)],
        "strings": ['a "quote"', "back\\slash", "new\nline", "non-ASCII \u00e9 \u03c4 \U0001F600", ""],
        "tuple": (1, 2.5),
        "\u00e9": 1,
        "Z": 2,
    }
    for value in (obj, [], {}, [[]], "top", -0.0, math.nan, None, 3):
        assert written(value) == _stdlib_json(value), value
    # a list of records written from one template reads as its dicts at any depth
    records = cli._Records('{\n  "a": [\n    %s\n  ],\n  "b": %d\n}', [("0.5", 1), ("-0.0", 2)])
    dicts = [{"a": [0.5], "b": 1}, {"a": [-0.0], "b": 2}]
    for nest in (lambda v: v, lambda v: {"x": [v, {"y": v}]}):
        assert written(nest(records)) == _stdlib_json(nest(dicts))
    assert written({"x": cli._Records("{}", [])}) == _stdlib_json({"x": []})
    # what json cannot write, the writer refuses alike
    for value in ([1j], {"x": np.int64(3)}, [np.bool_(True)], {"s": {1}}):
        with pytest.raises(TypeError):
            _stdlib_json(value)
        with pytest.raises(TypeError):
            written(value)
    # json would coerce a non-str key; no envelope has one, and the writer refuses it
    with pytest.raises(TypeError, match="keys must be str"):
        written({1: 2})


def test_reused_parser_leaks_no_state(capsys):
    # the parser is built once per process; each call on it gives what the
    # same call gives on a freshly built parser, after a usage error and
    # after verify algebra has set args.window
    calls = (("verify", "fock", "--window", "4"), ("verify", "algebra"), ("verify", "fock"), ("table", "cocycle"))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert cli.build_parser() is parser
    assert [code for code, *_ in reused] == [2, 0, 0, 0]
    for argv, result in zip(calls, reused):
        cli.build_parser.cache_clear()
        assert run_cli(capsys, *argv) == result, argv


def test_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "basis", "--tau-re", "0", "--tau-im", "1", "--q-re", "0.2"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    code, out, _ = run_cli(capsys, "params", "--output", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert "results" in payload


@pytest.mark.parametrize("argv", [("params",), ("verify", "elliptic")], ids="-".join)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # exit 1 is verify's "a check failed", so a path that cannot be opened
    # is an error naming the flag, not a traceback
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 2 and out == "", path
        assert err.startswith(f"error: --output {path}: ") and err.count("\n") == 1, err


def test_coincident_e1_e2_exits_2(capsys):
    # on this thin lattice e2 and e1 agree to rounding, so mu = (e2 - e1)/(e3 - e1)
    # is noise: params names the coincidence instead of a math domain error
    code, out, err = run_cli(capsys, "params", "--tau-im", "0.0134")
    assert code == 2 and out == "" and err == "error: e2 coincides with e1\n"


@pytest.mark.parametrize(
    "geometry",
    [
        ("--q-re", "-0.25", "--q-im", "0.25"),
        ("--q-re", "0.25", "--q-im", "-0.25"),
        ("--tau-re", "0.3", "--tau-im", "1.1", "--q-re", "-0.175", "--q-im", "0.275"),
        ("--tau-re", "0.3", "--tau-im", "1.1", "--q-re", "0.175", "--q-im", "-0.275"),
    ],
    ids=["tau=i", "tau=i,q=(1-tau)/4", "tau=0.3+1.1i", "tau=0.3+1.1i,q=(1-tau)/4"],
)
def test_time_runs_with_an_out_puncture_at_a_quarter_period(capsys, geometry):
    # at q = +-(tau - 1)/4 the out-puncture 1/2 +- q is (1+tau)/4; the time
    # constant reads p - e3 at the interaction point tau/2, which config keeps
    # away from every puncture, so every time evaluation runs and every check passes
    for argv in (("levellines", "--u", "0.3"), ("verify", "differential"), ("verify", "all", "--window", "4")):
        code, out, err = run_cli(capsys, *argv, *geometry)
        assert code == 0 and err == "", (argv, err)
        results = json.loads(out)["results"]
        assert results["count"] > 0 if argv[0] == "levellines" else results["all_passed"] is True, argv


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "params", "--tau-im", "-1")
    assert code == 2 and "tau" in err
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "levellines", "--u", "0", "--tol", "1")
    assert code == 2 and err == "error: tol must lie in (0, 1e-4], got 1.0\n"
    # --tol is the level-line target only, q = 0 is the two-point torus and
    # --lam5 0 0 gives the Witt parameters
    for argv in (
        ("params", "--tol", "1e-8"),
        ("verify", "elliptic", "--tol", "1e-4"),
        ("params", "--two-point"),
        ("table", "cocycle", "--formal-witt"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv
    code, _, err = run_cli(capsys, "verify", "algebra", "--window", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "levellines", "--u", "0", "--samples", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "params", "--q-re", "1", "--q-im", "0")
    assert code == 2 and "q=(1+0j) is within" in err and "q = 0 gives the two-point torus" in err
    # verify writes JSON only and has no --format
    code, _, err = run_cli(capsys, "verify", "all", "--format", "csv")
    assert code == 2 and "--format" in err
    # the cocycle has no index basis to choose; the brackets default to the original one
    code, out, err = run_cli(capsys, "table", "cocycle", "--indexing", "shifted")
    assert code == 2 and out == "" and err == "error: --indexing: table cocycle has no index basis\n"
    code, out, _ = run_cli(capsys, "table", "brackets", "--window", "2")
    assert code == 0 and json.loads(out)["results"]["indexing"] == "original"


def test_verify_basis_at_small_q(capsys):
    # the half period 1/2 lies |q| from each out-puncture; a winding circle
    # of fixed radius 0.1 enclosed it (0.08) or ran through it (0.1)
    for q in ("0.08", "0.1"):
        code, out, err = run_cli(capsys, "verify", "basis", "--q-re", q)
        assert code == 0, (q, err)
        assert json.loads(out)["results"]["all_passed"] is True


def test_circle_inside_exclusion_disk_names_q(capsys):
    code, out, err = run_cli(capsys, "verify", "cocycle", "--q-re", "0.000105", "--window", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: q=(0.000105+0j): ") and "exclusion disk" not in err, err


def test_non_finite_circle_frame_names_q_and_tau(capsys):
    # on this thin lattice wp - p is 0 at a node of each out-puncture circle
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "verify", "differential", "--tau-im", "0.04")
    assert code == 2 and out == ""
    assert err.startswith("error: q=(0.2+0j), tau=0.04j: ") and "not finite" in err, err


def test_zero_pole_factor_on_the_level_line_grid_names_the_point(capsys):
    # on this thin lattice p - e1 rounds to exactly 0, so wp - p is 0 at the
    # grid node -1/2: the time function refuses it before taking the log
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "levellines", "--u", "0.3", "--tau-im", "0.04", "--samples", "16")
        with pytest.raises(DegenerateModuliError, match=r"wp - p is 0 to rounding at z=\(0.5\+0j\)"):
            propagation.time_coordinate(0.5 + 0j, TorusConfig(tau=0.04j, q=0.2))
    assert code == 2 and out == ""
    assert err == (
        "error: q=(0.2+0j), tau=0.04j: wp - p is 0 to rounding at z=(-0.5+0j), away from the punctures\n"
    )


def test_vanishing_pole_factor_names_the_label(capsys):
    # on these thin lattices |wp - p| falls to about 1e-52 at a sample point,
    # so a power of it overflows; the error names the least label whose
    # value a check reads and is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tau_im, label in (("0.02", 12), ("0.025", 16)):
            code, out, err = run_cli(capsys, "verify", "basis", "--tau-im", tau_im)
            assert code == 2 and out == ""
            assert err == (
                f"error: wp - p vanished or overflowed for label k={label}: "
                f"A_{label} is not finite at a sample point\n"
            ), (tau_im, err)


@pytest.mark.parametrize("suite", ["basis"])
def test_tall_lattice_fails_its_checks_without_a_warning(capsys, suite):
    # at tau = 20i, q = 0.4 the sample points spread over a tall cell: the
    # product and finite-difference checks fail, and the run reports them
    # (verify differential passes there: test_time_check_passes_beside_a_puncture)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "verify", suite, "--tau-im", "20", "--q-re", "0.4")
    assert code == 1 and err == "", err
    assert json.loads(out)["results"]["all_passed"] is False


def test_only_library_and_usage_errors_exit_2(capsys, monkeypatch):
    # a Python arithmetic error is a fault of the program, not of its input:
    # it propagates with its traceback instead of passing for a usage error
    def raising(exc):
        def layer(cfg):
            raise exc

        return layer

    monkeypatch.setattr(cli, "lambda_coefficients", raising(ZeroDivisionError("stray")))
    with pytest.raises(ZeroDivisionError, match="stray"):
        cli.main(["params"])
    monkeypatch.setattr(cli, "lambda_coefficients", raising(DegenerateModuliError("degenerate")))
    code, out, err = run_cli(capsys, "params")
    assert code == 2 and out == "" and err == "error: degenerate\n"


def test_thin_lattice_algebra_outcomes(capsys):
    # |wp - p| falls to 1.7e-71 at a sample point at tau = 0.015i, so the fifth
    # power that A_9 inverts vanishes and the oracle fails its own check,
    # naming the label; at 0.02 to 0.03 its drawn values overflow (to a NaN
    # at 0.02) and fail the check, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "verify", "algebra", "--tau-im", "0.015")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        failed = sorted(name for name, c in checks.items() if c["status"] == "fail")
        assert code == 1 and err == "" and len(checks) == 7
        assert failed == ["bracket_oracle_equivalence", "degeneration_monotone"]
        assert checks["bracket_oracle_equivalence"]["max_residual"] == 0.0
        assert checks["bracket_oracle_equivalence"]["detail"].startswith(
            "wp - p vanished or overflowed for label k=9:"
        )
        for tau_im in ("0.02", "0.025", "0.03"):
            code, out, err = run_cli(capsys, "verify", "algebra", "--tau-im", tau_im)
            check = {c["name"]: c for c in json.loads(out)["checks"]}["bracket_oracle_equivalence"]
            assert code == 1 and err == "" and check["status"] == "fail", tau_im
            assert math.isnan(check["max_residual"]) == (tau_im == "0.02"), tau_im


def test_levellines_samples_floor_names_flag(capsys):
    code, out, err = run_cli(capsys, "levellines", "--u", "0", "--samples", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: --samples: ") and "at least 16" in err, err


def test_flags_name_themselves(capsys):
    # non-finite values of the flags that no config field holds, refused by
    # level_line_samples and formal_params, and values below a flag's floor
    for argv, message in (
        (("levellines", "--u", "nan", "--samples", "16"), "error: u must be finite, got nan"),
        (("levellines", "--u", "inf", "--samples", "16"), "error: u must be finite, got inf"),
        (("table", "cocycle", "--lam5", "nan", "0", "--window", "2"), "error: lam5 must be finite, got (nan+0j)"),
        (("table", "brackets", "--lam6", "inf", "0", "--format", "csv"), "error: lam6 must be finite, got (inf+0j)"),
        (("table", "brackets", "--lam7", "0", "nan"), "error: lam7 must be finite, got nanj"),
        (("verify", "algebra", "--window", "0"), "error: --window: must be at least 1, got 0"),
        # only verify all, algebra and cocycle sweep a label window
        (("verify", "fock", "--window", "4"), "error: --window: verify fock has no label window"),
        (("table", "cocycle", "--window", "-3"), "error: --window: must be at least 1, got -3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err, err


def test_cost_caps(capsys):
    for argv, flag, cap in (
        (("verify", "cocycle", "--window", str(cli.MAX_VERIFY_WINDOW + 1)), "--window", cli.MAX_VERIFY_WINDOW),
        (("table", "cocycle", "--window", str(cli.MAX_TABLE_WINDOW + 1)), "--window", cli.MAX_TABLE_WINDOW),
        (("table", "brackets", "--window", "100000"), "--window", cli.MAX_TABLE_WINDOW),
        (("levellines", "--u", "0", "--samples", str(cli.MAX_SAMPLES + 1)), "--samples", cli.MAX_SAMPLES),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} ") and f"cap {cap}:" in err and "would take" in err, err
    # the scan times the nodes up to the middle one, ((R+1)^2 + 1) // 2 of them
    code, _, err = run_cli(capsys, "levellines", "--u", "0", "--samples", "513")
    assert code == 2 and err == "error: --samples 513 exceeds the cap 512: it would take 132098 time evaluations\n"
    # every size the README, the tests and the benchmark use stays admitted
    assert cli.MAX_VERIFY_WINDOW >= 8 and cli.MAX_TABLE_WINDOW >= 32 and cli.MAX_SAMPLES >= 128


def test_non_finite_geometry_names_field(capsys):
    for argv, field in (
        (("--tau-im", "nan"), "tau"),
        (("--tau-re", "inf"), "tau"),
        (("--q-re", "nan"), "q"),
    ):
        code, _, err = run_cli(capsys, "params", *argv)
        assert code == 2
        assert err.startswith(f"error: {field} must be finite"), err


def _run_cli_process(stdout, *argv) -> subprocess.CompletedProcess:
    """Run the CLI of this source tree in a new process, writing to stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "kntorus.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


def test_closed_stdout_exits_without_traceback():
    # the read end is closed before the command writes anything, as when
    # `| head` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_process(write_end, "table", "cocycle", "--window", "12", "--format", "csv")
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_line():
    # a write to stdout that fails for another reason than a closed pipe
    # is an error of the run, not a failed check, and no traceback
    with open("/dev/full", "wb") as full:
        proc = _run_cli_process(full, "params")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: standard output: ") and proc.stderr.count(b"\n") == 1, proc.stderr


def test_table_and_report_evaluate_chi_sum_once_per_key(capsys, monkeypatch):
    # the reconciliation report reads chi_sum from the table it reconciles,
    # so each key of the table is evaluated once, by build_cocycle_table
    params = lambda_coefficients(TorusConfig(tau=1j, q=0.2))
    lam = params.as_tuple()
    tables = {window: build_cocycle_table(params, window) for window in (6, 32)}
    calls, table_calls = Counter(), Counter()
    evaluate = cocycle.chi_sum

    def counted(i, j, ps):
        key = i, j, ps.as_tuple()
        calls[key] += 1
        if sys._getframe(1).f_code.co_name in ("build_cocycle_table", "reconciliation_report"):
            table_calls[key] += 1
        return evaluate(i, j, ps)

    monkeypatch.setattr(cocycle, "chi_sum", counted)
    assert run_cli(capsys, "table", "cocycle", "--window", "32")[0] == 0
    assert {calls[i, j, lam] for i, j in tables[32]} == {1}
    # 413 support pairs: each of the 89 zeros is evaluated again by the report
    assert sum(calls.values()) == 502
    # verify cocycle scans the window and checks the identity by chi_sum too
    table_calls.clear()
    assert run_cli(capsys, "verify", "cocycle", "--window", "6")[0] == 0
    assert {table_calls[i, j, lam] for i, j in tables[6]} == {1}

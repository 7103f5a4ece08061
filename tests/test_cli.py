import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import bits
from kntorus import cli
from kntorus.algebra import build_structure_table
from kntorus.basis import formal_params, lambda_coefficients
from kntorus.cocycle import build_cocycle_table
from kntorus.config import TorusConfig
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
        expect = build_structure_table(params, window, indexing=indexing)
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
    monkeypatch.setattr(cli, "reconciliation_report", lambda params, window: [entry])
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
        ("table", "cocycle", "--window", "8"),
        ("levellines", "--u", "0.3", "--samples", "32"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1), argv
        (envelope,) = envelopes
        envelopes.clear()
        assert out == _stdlib_json(envelope) + "\n", argv


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


def test_vanishing_pole_factor_names_the_label(capsys):
    # on these thin lattices |wp - p| falls to about 1e-52 at a sample point,
    # so a power of it overflows (0.02) or its inverse divides by zero (0.025)
    for tau_im in ("0.02", "0.025"):
        code, out, err = run_cli(capsys, "verify", "basis", "--tau-im", tau_im)
        assert code == 2 and out == ""
        assert err.startswith("error: wp - p vanished or overflowed for label k="), (tau_im, err)


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


def test_closed_stdout_exits_without_traceback():
    # the read end is closed before the command writes anything, as when
    # `| head` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kntorus.cli", "table", "cocycle", "--window", "12", "--format", "csv"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""

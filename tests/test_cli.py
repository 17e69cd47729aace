import csv
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from xhoglab.cli import main

jsonschema = pytest.importorskip("jsonschema")


def _schema(name):
    text = resources.files("xhoglab").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def _strip_timing(report):
    report = dict(report)
    report.pop("wall_seconds", None)
    return report


def _run(argv, out=None, capsys=None):
    rc = main(argv)
    captured = capsys.readouterr() if capsys else None
    report = json.loads(out.read_text()) if out and out.exists() else None
    return rc, captured, report


def test_xhog_report_schema_and_rerun(tmp_path, capsys):
    out = tmp_path / "a.json"
    argv = [
        "xhog", "--strategy", "naive", "--family", "canonical",
        "-n", "3", "--trials", "50", "--seed", "7", "--out", str(out),
    ]
    rc, cap, report = _run(argv, out, capsys)
    assert rc == 0
    jsonschema.validate(report, _schema("xeb_estimate"))
    assert cap.out.startswith("b=")
    assert "queries=" in cap.out
    out2 = tmp_path / "b.json"
    argv2 = argv[:-1] + [str(out2)]
    rc2, _, report2 = _run(argv2, out2, capsys)
    assert rc2 == 0
    r1, r2 = _strip_timing(report), _strip_timing(report2)
    r1["config"].pop("out"), r2["config"].pop("out")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_xhog_exact_mode(tmp_path, capsys):
    out = tmp_path / "exact.json"
    rc, cap, report = _run(
        ["xhog", "--strategy", "naive", "--family", "fourier", "-n", "3",
         "--trials", "1", "--exact", "--out", str(out)],
        out, capsys,
    )
    assert rc == 0
    assert cap.out.strip() == "b=11/4 (exact)"
    assert report["b_exact"] == "11/4"
    jsonschema.validate(report, _schema("xeb_estimate"))


def test_xhog_missing_seed_is_usage_error(capsys):
    rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_xhog_unknown_strategy(capsys):
    rc = main(["xhog", "--strategy", "nope", "--family", "canonical", "-n", "2", "--seed", "1"])
    assert rc == 2


def test_xhog_csv_export(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2",
               "--trials", "10", "--seed", "3", "--csv", str(path)])
    assert rc == 0
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["trial", "z", "score", "queries"]
    assert len(rows) == 11
    assert all(r[3] == "1" for r in rows[1:])
    capsys.readouterr()


def test_xhog_unwritable_out_is_io_error(tmp_path, capsys):
    rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2",
               "--trials", "5", "--seed", "3", "--out", str(tmp_path / "no" / "dir.json")])
    assert rc == 3
    capsys.readouterr()


def test_xhog_qubit_count_out_of_range_is_usage_error(capsys):
    for n in ("0", "15"):
        rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", n,
                   "--trials", "5", "--seed", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_xhog_random_prep_at_the_qubit_cap_stays_small(capsys):
    # a dense Haar complement at n = 14 would need gigabytes
    tracemalloc.start()
    try:
        rc = main(["xhog", "--strategy", "naive", "--family", "random_prep", "-n", "14",
                   "--trials", "5", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 64 * 2**20
    assert capsys.readouterr().out.startswith("b=")


def test_emit_config(capsys):
    rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2",
               "--seed", "9", "--emit-config"])
    assert rc == 0
    config = json.loads(capsys.readouterr().out)
    assert config["command"] == "xhog" and config["seed"] == 9


def test_verify_suite_report(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc, cap, report = _run(
        ["verify", "symmetrize", "-n", "1", "-k", "2", "--cases", "3",
         "--seed", "11", "--out", str(out)],
        out, capsys,
    )
    assert rc == 0
    jsonschema.validate(report, _schema("verify_transcript"))
    assert report["ok"] is True
    assert len(report["checks"]) == 3
    assert cap.out.count(" OK") == 3


def test_verify_rerun_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        rc, _, report = _run(
            ["verify", "oracles", "-n", "2", "--cases", "2", "--seed", "5",
             "--out", str(out)],
            out, capsys,
        )
        assert rc == 0
        report = _strip_timing(report)
        report["config"].pop("out")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope", "--seed", "1"]) == 2
    assert main(["verify", "oracles"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["uprep", "-n", "11"],
    ["uprep", "-n", "0"],  # a 1-dim helper state is always degenerate: draw_plan never returns
    ["uprep", "--trials", "0"],
    ["simplex", "-N", "0"],
    ["simplex", "--trials", "1"],
    ["simplex", "--trials", "2"],  # a 2-trial SE fails the 3-SE gate on ~1 in 5 seeds
    ["simplex", "--trials", "99"],
])
def test_verify_bad_size_is_usage_error(argv, capsys):
    rc = main(["verify", *argv, "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("k_arg", [["-n", "3", "-k", "5"], ["-n", "2", "-k", "8"]])
def test_verify_symmetrize_over_the_dense_cap_is_rejected_before_allocating(k_arg, capsys):
    # 9^5 and 5^8 rows: the dense matrices would need 52 GiB and 2.2 TiB
    tracemalloc.start()
    try:
        rc = main(["verify", "symmetrize", *k_arg, "--cases", "1", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["lp", "naive-value", "-n", "2"],
    ["xhog", "--strategy", "naive", "--family", "fourier", "-n", "2", "--exact"],
])
def test_failed_cross_check_is_exit_1_not_a_traceback(argv, monkeypatch, capsys):
    from xhoglab import fourier_lp

    real = fourier_lp._all_sign_tables
    monkeypatch.setattr(fourier_lp, "_all_sign_tables", lambda n: np.ones_like(real(n)))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: internal cross-check failed:")


def test_lp_certify(tmp_path, capsys):
    out = tmp_path / "lp.json"
    rc, cap, report = _run(["lp", "certify", "-n", "2", "--out", str(out)], out, capsys)
    assert rc == 0
    assert cap.out.strip() == "OPTIMAL b = 5/2"
    jsonschema.validate(report, _schema("lp_transcript"))
    assert report["transcript"].rstrip().endswith("OPTIMAL b = 5/2")


def test_lp_naive_value(capsys):
    rc = main(["lp", "naive-value", "-n", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "b = 11/4"


def test_lp_solve(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc, _, report = _run(["lp", "solve", "-n", "2", "--out", str(out)], out, capsys)
    assert rc == 0
    jsonschema.validate(report, _schema("lp_transcript"))
    assert report["residual"] < 1e-9


def test_lp_bad_n_is_usage_error(capsys):
    # enumeration-backed actions reject n over the cap with a usage error
    rc = main(["lp", "naive-value", "-n", "7"])
    assert rc == 2
    capsys.readouterr()


def test_argparse_errors_map_to_usage(capsys):
    assert main(["lp", "frobnicate", "-n", "2"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()

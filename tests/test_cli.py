import argparse
import ast
import builtins
import csv
import dataclasses
import importlib
import json
import math
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

# loaded here, so no tracemalloc peak below counts an import
from xhoglab import cli, fourier_lp, uprep, xhog  # noqa: F401
from xhoglab.cli import MAX_CASES, main
from xhoglab.linalg import MAX_DIM, MAX_TRIALS, UnitaryOp, trial_streams

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


def test_xhog_exact_with_csv_is_a_usage_error_before_any_work(tmp_path, capsys):
    # --exact keeps no per-trial rows; the run used to enumerate first and then fail
    rows, out = tmp_path / "rows.csv", tmp_path / "r.json"
    rc = main(["xhog", "--strategy", "naive", "--family", "fourier", "-n", "2", "--exact",
               "--csv", str(rows), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--exact" in err and "--csv" in err
    assert not rows.exists() and not out.exists()


def test_xhog_unwritable_out_is_io_error(tmp_path, capsys, monkeypatch):
    # checked before the run, which at --trials 2^25 takes half an hour, and created by neither
    monkeypatch.setattr(xhog, "run_experiment", _raising(AssertionError("the run started")))
    for out in (tmp_path / "no" / "dir.json", tmp_path):
        rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2",
                   "--trials", "5", "--seed", "3", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("I/O error:")
    assert not (tmp_path / "no").exists()


_XHOG_RUN = ["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2", "--trials", "5",
             "--seed", "3"]


@pytest.mark.parametrize("argv, flags", [
    # the CSV used to be written and then overwritten by the JSON report, with exit 0
    ([*_XHOG_RUN, "--csv", "P", "--out", "P"], ("--csv", "--out")),
    ([*_XHOG_RUN, "--csv", "./P", "--out", "P"], ("--csv", "--out")),
    # an empty name used to be skipped: exit 0 and nothing written
    ([*_XHOG_RUN, "--out", ""], ("--out",)),
    ([*_XHOG_RUN, "--csv", ""], ("--csv",)),
    (["verify", "oracles", "--seed", "1", "--cases", "1", "--out", ""], ("--out",)),
    (["lp", "certify", "-n", "1", "--out", ""], ("--out",)),
])
def test_empty_or_shared_output_path_is_usage_error(argv, flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(xhog, "run_experiment", _raising(AssertionError("the run started")))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(flag in err for flag in flags)
    assert list(tmp_path.iterdir()) == []


def test_xhog_qubit_count_out_of_range_is_usage_error(capsys):
    for n in ("0", "15"):
        rc = main(["xhog", "--strategy", "naive", "--family", "canonical", "-n", n,
                   "--trials", "5", "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "-n" in err


@pytest.mark.parametrize("extra", [
    ["--strategy", "naive", "--trials", "1000000000000"],  # a 7.3 TiB score array
    ["--strategy", "naive", "--trials", str(xhog.MAX_TRIALS + 1)],
    ["--strategy", "k_copy_mode", "-k", "100000000", "--trials", "1"],
    ["--strategy", "collision_amplify", "-k", str(MAX_DIM + 1), "--trials", "1"],
    # at the trial cap, a bad k or family is rejected before the 256 MiB score array
    ["--strategy", "k_copy_mode", "-k", "0", "--trials", str(xhog.MAX_TRIALS)],
    ["--strategy", "collision_amplify", "-k", "1", "--trials", str(xhog.MAX_TRIALS)],
    ["--strategy", "collision_amplify", "--family", "fourier", "--trials", str(xhog.MAX_TRIALS)],
    ["--strategy", "naive", "--family", "fourier", "-n", "5", "--exact"],  # over ENUM_CAP
])
def test_xhog_oversized_run_is_usage_error(extra, capsys):
    tracemalloc.start()
    try:
        rc = main(["xhog", "--family", "canonical", "-n", "1", "--seed", "1", *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the message names the flag at fault
    if "--exact" in extra:
        assert "--exact" in err and "-n <=" in err
    elif "fourier" in extra:
        assert "--family" in err
    else:
        assert ("-k" if "-k" in extra else "--trials") in err


@pytest.mark.parametrize("extra", [
    ["--strategy", "naive", "--family", "canonical", "-n", "2", "--trials", "5"],
    # the exact route enumerates and draws nothing, but checks the seed all the same
    ["--strategy", "naive", "--family", "fourier", "-n", "2", "--exact"],
])
def test_xhog_negative_seed_names_the_seed(extra, capsys):
    assert main(["xhog", *extra, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed -1 is negative\n"


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


def test_verify_oracles_at_the_qubit_cap_stays_small(capsys):
    # the circuits run on amplitude arrays; a dense prep at n = 14 would need 4 GiB
    tracemalloc.start()
    try:
        rc = main(["verify", "oracles", "-n", "14", "--cases", "1", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 16 * 2**20
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and all(ln.endswith(" OK") for ln in lines)


def test_verify_uprep_at_the_qubit_cap_stays_small(capsys):
    # each rotation is checked on its rank-2 factors; one dense N x N rotation at n = 14
    # would take 4 GiB
    tracemalloc.start()
    try:
        rc = main(["verify", "uprep", "-n", "14", "-T", "4", "--trials", "2", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 32 * 2**20
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(ln.endswith(" OK") for ln in lines)


def test_verify_uprep_rotation_streams_follow_the_sweep(monkeypatch, capsys):
    # with the first rotation stream moved below --trials, the rotation cases must still
    # start after the sweep's last stream, so no sweep trial repeats a rotation case
    monkeypatch.setattr(cli, "ROTATION_STREAM", 5)
    ranges = []

    def spy(seed, start, stop):
        ranges.append((start, stop))
        return trial_streams(seed, start, stop)

    monkeypatch.setattr(cli, "trial_streams", spy)
    monkeypatch.setattr(uprep, "trial_streams", spy)
    assert main(["verify", "uprep", "-n", "3", "-T", "2", "--trials", "8", "--seed", "1"]) == 0
    assert sorted(ranges) == [(0, 8), (8, 16)]
    (lo0, hi0), (lo1, hi1) = ranges
    assert hi0 <= lo1 or hi1 <= lo0
    capsys.readouterr()


def test_verify_uprep_report_and_rerun(tmp_path, capsys):
    out = tmp_path / "u.json"
    texts = []
    for _ in range(2):
        rc, cap, report = _run(
            ["verify", "uprep", "-n", "8", "-T", "2", "--trials", "2", "--seed", "3",
             "--out", str(out)],
            out, capsys,
        )
        assert rc == 0
        jsonschema.validate(report, _schema("verify_transcript"))
        assert report["ok"] is True
        assert len(report["checks"]) == 9 and all(c["ok"] for c in report["checks"])
        assert cap.out.count(" OK") == 9
        texts.append([ln for ln in out.read_text().splitlines() if "wall_seconds" not in ln])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("n, seeds", [(1, range(1, 51)), (2, range(1, 51)), (8, range(1, 51)),
                                      (10, range(1, 13))], ids=["n1", "n2", "n8", "n10"])
def test_verify_uprep_passes_on_correct_code(n, seeds, capsys):
    for seed in seeds:
        assert main(["verify", "uprep", "-n", str(n), "--trials", "1", "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, dense_checks", [
    (["uprep", "-n", "8", "-T", "2", "--trials", "2"], 0),  # rotations are built by from_update
    (["oracles", "-n", "8", "--cases", "3"], 0),  # the circuits run on oracle handles
])
def test_verify_runs_the_dense_unitarity_check_only_where_needed(argv, dense_checks, monkeypatch,
                                                                  capsys):
    calls = []
    init = UnitaryOp.__init__

    def counted(self, mat):
        calls.append(np.shape(mat))
        init(self, mat)

    monkeypatch.setattr(UnitaryOp, "__init__", counted)
    assert main(["verify", *argv, "--seed", "4"]) == 0
    assert len(calls) == dense_checks
    capsys.readouterr()


def _with_third_direction(rotation_R):
    def rotated(plan):
        # a phase of 1e-5 on a direction orthogonal to psi and psi_perp: the dense distance
        # is unchanged and R phi = psi_perp still holds, so only the residual (~1e-5) sees it
        r = rotation_R(plan)
        v = np.eye(len(plan.psi))[-1] - r.basis @ (r.basis.conj().T[:, -1])
        v /= np.linalg.norm(v)
        block = np.eye(3, dtype=complex)
        block[:2, :2], block[2, 2] = r.block, np.exp(1e-5j)
        return UnitaryOp.from_update(np.column_stack([r.basis, v]), block)
    return rotated


def _with_half_angle(rotation_R):
    def rotated(plan):
        theta = math.acos(plan.alpha) / 2
        beta = plan.beta / abs(plan.beta) * math.sin(theta)
        return rotation_R(dataclasses.replace(plan, alpha=math.cos(theta), beta=beta))
    return rotated


def _inverse(rotation_R):
    def rotated(plan):
        # R^dagger has R's eigenvalues, so only R phi = psi_perp tells them apart
        r = rotation_R(plan)
        return UnitaryOp.from_update(r.basis, r.block.conj().T)
    return rotated


@pytest.mark.parametrize("wrong", [_with_third_direction, _with_half_angle, _inverse])
def test_verify_uprep_fails_a_wrong_rotation(wrong, monkeypatch, capsys):
    monkeypatch.setattr(uprep, "rotation_R", wrong(uprep.rotation_R))
    assert main(["verify", "uprep", "-n", "3", "--trials", "1", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mean_distance_T1:") and lines[0].endswith(" OK")
    assert len(lines) == 9 and all(ln.endswith(" FAIL") for ln in lines[1:])


@pytest.mark.parametrize("suite", ["symmetrize", "oracles", "uprep", "simplex"])
def test_verify_negative_seed_names_the_seed(suite, capsys):
    # simplex seeds through trial_rng, the others through trial_streams: one message for both
    assert main(["verify", suite, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed -1 is negative\n"


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope", "--seed", "1"]) == 2
    assert main(["verify", "oracles"]) == 2
    capsys.readouterr()


_SIZE_FLAGS = ("-n", "-k", "-T", "--cases", "--trials", "-N")
_UNREAD = [(suite, flag) for suite, (_, flags) in cli.SUITES.items()
           for flag in _SIZE_FLAGS if flag not in flags]


@pytest.mark.parametrize("suite, flag", _UNREAD)
def test_verify_flag_the_suite_does_not_read_is_usage_error(suite, flag, tmp_path, monkeypatch,
                                                            capsys):
    # each suite parses only its own flags, so an ignored size cannot pass as a checked one
    flags = cli.SUITES[suite][1]  # kept, so a parser built here is the one later tests parse with
    monkeypatch.setitem(cli.SUITES, suite, (_raising(AssertionError("the suite ran")), flags))
    out = tmp_path / "v.json"
    assert main(["verify", suite, "--seed", "1", flag, "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} 2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("suite, defaults", [
    ("symmetrize", {"n": 2, "k": 2, "cases": 20}),
    ("oracles", {"n": 2, "cases": 20}),
    ("uprep", {"n": 2, "T": 1, "trials": 1000}),
    ("simplex", {"N": 8, "trials": 1000}),
])
def test_verify_config_holds_only_what_the_suite_reads(suite, defaults, capsys):
    assert main(["verify", suite, "--seed", "1", "--emit-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config == {"command": "verify", "suite": suite, "seed": 1, "out": None, **defaults}


@pytest.mark.parametrize("argv", [
    ["uprep", "-n", "15"],  # over linalg.MAX_QUBITS
    ["uprep", "-n", "0"],  # a 1-dim helper state is always degenerate: draw_plan never returns
    ["uprep", "--trials", "0"],
    ["simplex", "-N", "0"],
    ["simplex", "--trials", "1"],
    ["simplex", "--trials", "2"],  # a 2-trial SE fails the 3-SE gate on ~1 in 5 seeds
    ["simplex", "--trials", "99"],
    ["simplex", "-N", "16385"],  # over linalg.MAX_DIM: max_xeb_mc's chunk would pass 256 MiB
    ["simplex", "-N", "1000000000"],  # a 745 GiB chunk
    ["symmetrize", "-n", "-1"],
    ["symmetrize", "-n", "0"],
    ["symmetrize", "-k", "0"],  # an empty resource state would pass trivially
    ["symmetrize", "-k", "-1"],
    ["symmetrize", "--cases", "0"],
    ["oracles", "-n", "-1"],
    ["oracles", "-n", "0"],
    ["oracles", "-n", "15"],  # over linalg.MAX_QUBITS
    ["oracles", "-n", "64"],  # 2^64 amplitudes, rejected before any allocation
    ["oracles", "--cases", "0"],
    ["uprep", "--trials", str(MAX_TRIALS + 1)],  # over linalg.MAX_TRIALS
    ["uprep", "--trials", "1000000000000"],  # a 7.3 TiB distance array
    ["simplex", "--trials", str(MAX_TRIALS + 1)],
    ["simplex", "--trials", "1000000000000"],  # 14.6 TiB of maxima
    ["uprep", "-T", "5"],
])
def test_verify_bad_size_is_usage_error(argv, capsys):
    tracemalloc.start()
    try:
        rc = main(["verify", *argv, "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the message names the flag that is out of range
    assert all(w in err for w in argv if w[:1] == "-" and w.lstrip("-")[:1].isalpha())


@pytest.mark.parametrize("suite, checks_per_case", [(["symmetrize", "-k", "1"], 1), (["oracles"], 2)])
def test_verify_caps_the_cases(suite, checks_per_case, capsys):
    # one cap for both suites, named in the usage error and checked before the first draw
    argv = ["verify", *suite, "-n", "1", "--seed", "1", "--cases"]
    assert main([*argv, str(MAX_CASES)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines if ln.startswith("case_")]) == checks_per_case * MAX_CASES
    assert main([*argv, str(MAX_CASES + 1)]) == 2
    assert f"1 <= --cases <= {MAX_CASES}" in capsys.readouterr().err


def test_verify_simplex_accepts_the_dimension_cap(monkeypatch, capsys):
    sizes = []

    def fake_mc(n_bins, trials, seed):
        sizes.append(n_bins)
        return 0.0, 1.0  # within 3 SE of H_N/N

    monkeypatch.setattr(xhog, "max_xeb_mc", fake_mc)
    assert main(["verify", "simplex", "-N", str(MAX_DIM), "--trials", "100", "--seed", "1"]) == 0
    assert sizes == [MAX_DIM]
    capsys.readouterr()


@pytest.mark.parametrize(
    "k_arg", [["-n", "3", "-k", "6"], ["-n", "2", "-k", "8"], ["-n", "2", "-k", "7"]]
)
def test_verify_symmetrize_over_the_dense_cap_is_rejected_before_allocating(k_arg, capsys):
    # sum_G |G|^2 = 1.6e8, 8.0e8 and 4.1e7 block entries, over symmetrize.BLOCK_CAP = 2^22
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
    assert "-n" in err and "-k" in err


def _symmetrize_peak(*size):
    """(exit code, tracemalloc peak) of one verify symmetrize case, the group layout's
    build included."""
    from xhoglab import symmetrize

    symmetrize.group_layout.cache_clear()
    tracemalloc.start()
    try:
        rc = main(["verify", "symmetrize", *size, "--cases", "1", "--seed", "1"])
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_symmetrize_runs_block_wise(capsys):
    # (N+1)^k = 3125: the two dense matrices alone would take 312 MB
    rc, peak = _symmetrize_peak("-n", "2", "-k", "5")
    assert rc == 0
    assert peak < 8 * 2**20
    assert capsys.readouterr().out.rstrip().endswith(" OK")


@pytest.mark.parametrize(
    "size, peak_mib",
    [
        # (N+1)^k = 59049 rows and sum_G |G|^2 = 3965409 block entries, just under the cap;
        # the dense matrices would take 111 GB.  Measured peak ~7.7 MiB.
        (("-n", "3", "-k", "5"), 12),
        # the largest index space the cap admits: 1050625 rows, sum_G |G|^2 = 2.1e6.  |R>,
        # gamma and the layout are ~16 MiB each; measured peak ~62 MiB.
        (("-n", "10", "-k", "2"), 80),
    ],
)
def test_verify_symmetrize_runs_at_the_block_cap(size, peak_mib, capsys):
    rc, peak = _symmetrize_peak(*size)
    assert rc == 0
    assert peak < peak_mib * 2**20
    assert capsys.readouterr().out.rstrip().endswith(" OK")


def test_verify_symmetrize_fails_a_wrong_protocol_weight(monkeypatch, capsys):
    from xhoglab import symmetrize

    real = symmetrize._protocol_amplitudes

    def dephased(*args):
        # superposition weights without their phases: each block keeps its trace p_G
        gamma, prob = real(*args)
        return np.abs(gamma), prob

    monkeypatch.setattr(symmetrize, "_protocol_amplitudes", dephased)
    assert main(["verify", "symmetrize", "-n", "1", "-k", "3", "--cases", "3", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(ln.endswith(" FAIL") for ln in lines)


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


def _raising(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("argv, patch, exc, rc, prefix", [
    (["lp", "certify", "-n", "2"], "dual_certificate", fourier_lp.CertificateError("kappa < 0"),
     1, "certificate invalid: kappa < 0"),
    (["lp", "naive-value", "-n", "2"], "naive_fourier_value", fourier_lp.CrossCheckError("1 != 2"),
     1, "error: internal cross-check failed: 1 != 2"),
    (["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2", "--seed", "1"],
     "run_experiment", ValueError("no such run"), 2, "error: no such run"),
    # the unwritable path is reported before the command's work, which would raise here
    (["verify", "simplex", "-N", "8", "--trials", "100", "--seed", "1", "--out", "{tmp}/no/v.json"],
     "max_xeb_mc", AssertionError("the sweep ran"), 3, "I/O error:"),
    (["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2", "--trials", "5",
      "--seed", "1", "--csv", "{tmp}/no/rows.csv"],
     "run_experiment", AssertionError("the run started"), 3, "I/O error:"),
], ids=["certificate", "cross-check", "value", "report-write", "csv-write"])
def test_each_mapped_exception_exits_with_its_code(argv, patch, exc, rc, prefix, tmp_path,
                                                   monkeypatch, capsys):
    if patch:
        monkeypatch.setattr(fourier_lp if argv[0] == "lp" else xhog, patch, _raising(exc))
    assert main([a.format(tmp=tmp_path) for a in argv]) == rc
    cap = capsys.readouterr()
    assert cap.err.startswith(prefix) and "Traceback" not in cap.err
    assert cap.out == ""  # the summary is printed only after the report is written


def test_lp_solve_solver_failure_is_exit_1_not_a_traceback(monkeypatch, capsys):
    import scipy.optimize

    failed = SimpleNamespace(success=False, message="forced failure")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    assert main(["lp", "solve", "-n", "2"]) == 1
    cap = capsys.readouterr()
    assert cap.err == "error: internal cross-check failed: LP solver failed: forced failure\n"
    assert "Traceback" not in cap.err and cap.out == ""


def _raised_types(path):
    """(line, exception class) for every ``raise X(...)`` in one src module."""
    module = importlib.import_module(f"xhoglab.{path.stem}")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func, chain = node.exc.func, []
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            obj = getattr(module, func.id, None) or getattr(builtins, func.id)
            for attr in chain:
                obj = getattr(obj, attr)
            yield node.lineno, obj


def test_every_raise_in_src_maps_to_an_exit_code():
    # main catches only the EXIT_CODES types, so any other raise would end in a traceback
    sites = [(path.name, line, exc) for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for line, exc in _raised_types(path)]
    assert len(sites) > 30
    unmapped = [(name, line, exc.__name__) for name, line, exc in sites
                if not issubclass(exc, tuple(cli.EXIT_CODES))]
    assert unmapped == []


GOLDEN_CONFIGS = json.loads((Path(__file__).parent / "golden" / "cli_configs.json").read_text())


def _config_id(case):
    return "-".join(w for w in case["argv"].split()[:2] if not w.startswith("-"))


@pytest.mark.parametrize("case", GOLDEN_CONFIGS, ids=map(_config_id, GOLDEN_CONFIGS))
def test_report_config_is_the_parsed_command_line(case, tmp_path, capsys):
    # the golden file pins every config key: renaming an argparse dest changes the reports
    argv = case["argv"].split()
    assert main([*argv, "--emit-config"]) == 0
    assert json.loads(capsys.readouterr().out) == case["config"]
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {**case["config"], "out": str(out)}
    capsys.readouterr()


SEEDED_REPORTS = json.loads((Path(__file__).parent / "golden" / "seeded_reports.json").read_text())


def _report_ids(cases):
    """The argv words that are neither flags nor numbers; the j-th repeat of an id gets the
    suffix j, so appending a case to the golden file renames no earlier case."""
    seen = Counter()
    ids = []
    for case in cases:
        base = "-".join(w for w in case["argv"].split() if not (w.startswith("-") or w.isdigit()))
        ids.append(f"{base}{seen[base]}" if seen[base] else base)
        seen[base] += 1
    return ids


@pytest.mark.parametrize("case", SEEDED_REPORTS, ids=_report_ids(SEEDED_REPORTS))
def test_seeded_report_matches_the_golden(case, tmp_path, capsys):
    # small sizes, so no BLAS thread count can reorder a sum; a refactor that keeps the
    # RNG draws must reproduce every value bit for bit
    out = tmp_path / "r.json"
    assert main([*case["argv"].split(), "--out", str(out)]) == 0
    report = _strip_timing(json.loads(out.read_text()))
    assert report["config"].pop("out") == str(out)
    assert report == case["report"]
    capsys.readouterr()


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


@pytest.mark.parametrize("action,n,cap", [
    ("certify", "-1", 8), ("certify", "9", 8), ("certify", "20", 8), ("certify", "64", 8),
    ("solve", "-1", 4), ("solve", "0", 4), ("solve", "5", 4), ("solve", "64", 4),
    ("naive-value", "-1", 4), ("naive-value", "5", 4),
])
def test_lp_n_is_checked_before_any_work(action, n, cap, capsys):
    # certify -n 20 once spent ~30 s in math.comb; -1 and 64 raised tracebacks
    tracemalloc.start()
    try:
        rc = main(["lp", action, "-n", n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"<= {cap}" in err


@pytest.mark.parametrize("action", ["certify", "naive-value"])
def test_lp_at_n_zero(action, tmp_path, capsys):
    # N = 1: the tables keep one column of the index bits, and no table is balanced
    out = tmp_path / "r.json"
    assert main(["lp", action, "-n", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["b_exact"] == "1/1"
    capsys.readouterr()


def test_argparse_errors_map_to_usage(capsys):
    xhog_argv = ["xhog", "--family", "canonical", "-n", "3", "--seed", "1"]
    argvs = [["lp", "frobnicate", "-n", "2"], [],
             # no strategy or option reads the hidden state the oracle handles wrap
             [*xhog_argv, "--strategy", "argmax"],
             [*xhog_argv, "--strategy", "collision_amplify", "--schedule", "fixed"]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert "Traceback" not in capsys.readouterr().err, argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argvs = [["lp", "certify", "-n", "1"], ["--version"], ["xhog", "--strategy", "bogus"],
             ["verify", "uprep", "-n", "1", "-T", "2", "--trials", "2", "--seed", "1"],
             ["lp", "naive-value", "-n", "2"]]
    assert [main(argv) for argv in argvs] == [0, 0, 2, 0, 0]
    # the top-level parser, the shared report options, one per subcommand and one per verify
    # suite, each built by the first call only
    assert len(built) == 5 + len(cli.SUITES)
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()

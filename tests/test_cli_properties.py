"""Property test: every command maps sizes near its bounds to an exit code.

Each flag is drawn from a small window around each of its bounds.  The
accepted top of a range is left out where one run there takes seconds: xhog's
-k 2^14 (k queries of a 2^14-dimensional random-prep oracle), the --trials cap
2^25 of xhog, verify uprep and verify simplex, the --cases cap 2^10 of verify
symmetrize and verify oracles (tests/test_cli.py runs it once at -n 1), and lp
solve -n 4 (a 32768-row LP).  verify uprep's -n 14 is drawn: its rotations are checked on their rank-2
factors, so a run there takes ~0.1 s.  Their rejected sides are drawn.  A
rejected xhog argv is run again at --trials 2^25, unless --trials itself was
the fault, so a check that comes after the per-trial arrays are allocated
shows as a tracemalloc peak.
"""

import argparse
import tracemalloc

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# loaded here, so no tracemalloc peak below counts an import
from xhoglab import fourier_lp, xhog  # noqa: E402,F401
from xhoglab.cli import MAX_CASES, build_parser, main  # noqa: E402
from xhoglab.linalg import MAX_DIM, MAX_QUBITS, MAX_TRIALS  # noqa: E402

REJECTED_PEAK = 2**20

WINDOWS = {
    "symmetrize": {
        # symmetrize.BLOCK_CAP on sum_G |G|^2 admits k <= 2 up to n = 10 and only k = 1 from
        # n = 11 on, and k <= 8 at n = 1 and k <= 6 at n = 2
        "-n": (-1, 0, 1, 2, 10, 11, 14, 15),
        "-k": (-1, 0, 1, 2, 6, 7, 8, 9),
        "--cases": (-1, 0, 1, 2, MAX_CASES + 1),
    },
    "oracles": {"-n": (-1, 0, 1, 2, 15, 14), "--cases": (-1, 0, 1, 2, MAX_CASES + 1)},
    "uprep": {
        "-n": (-1, 0, 1, 2, 15, 14),
        "-T": (-1, 0, 1, 4, 5),
        "--trials": (-1, 0, 1, 2, MAX_TRIALS + 1),
    },
    "simplex": {"-N": (-1, 0, 1, 2, 16384, 16385), "--trials": (-1, 0, 1, 99, 100, 101, MAX_TRIALS + 1)},
}

XHOG_WINDOWS = {
    "--strategy": xhog.STRATEGIES,
    "--family": xhog.FAMILIES,
    "-n": (-1, 0, 1, 2, MAX_QUBITS, MAX_QUBITS + 1),
    "-k": (-1, 0, 1, 2, 3, MAX_DIM + 1),  # k_copy_mode needs k >= 1, collision_amplify k >= 2
    "--trials": (-1, 0, 1, 2, xhog.MAX_TRIALS + 1),
}

LP_WINDOWS = {
    "certify": (-1, 0, 1, fourier_lp.CERTIFY_CAP, fourier_lp.CERTIFY_CAP + 1, 20, 64),
    "solve": (-1, 0, 1, fourier_lp.ENUM_CAP + 1, 20, 64),
    "naive-value": (-1, 0, 1, fourier_lp.ENUM_CAP, fourier_lp.ENUM_CAP + 1, 20, 64),
}


def _traced(argv):
    """(exit code, tracemalloc peak in bytes) of one main(argv) call."""
    tracemalloc.start()
    try:
        rc = main(argv)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_a_suite_declares_is_drawn():
    # a flag added to a suite's parser without a window would never be drawn below
    shared = {"-h", "--help", "--seed", "--out", "--emit-config"}
    suites = _subcommands(_subcommands(build_parser())["verify"])
    assert sorted(suites) == sorted(WINDOWS)
    for suite, parser in suites.items():
        declared = {s for action in parser._actions for s in action.option_strings}
        assert set(WINDOWS[suite]) == declared - shared, suite


@st.composite
def verify_argv(draw):
    suite = draw(st.sampled_from(sorted(WINDOWS)))
    argv = ["verify", suite, "--seed", str(draw(st.sampled_from((-1, 0, 1))))]
    for flag, window in WINDOWS[suite].items():
        argv += [flag, str(draw(st.sampled_from(window)))]
    return argv


@settings(deadline=None, max_examples=500, derandomize=True)
@given(verify_argv())
def test_verify_near_its_bounds_exits_with_a_code(argv):
    assert main(argv) in (0, 1, 2)


@st.composite
def xhog_argv(draw):
    argv = ["xhog"]
    for flag, window in XHOG_WINDOWS.items():
        argv += [flag, str(draw(st.sampled_from(window)))]
    seed = draw(st.sampled_from((None, -1, 0, 1)))  # stochastic runs need a seed
    if seed is not None:
        argv += ["--seed", str(seed)]
    if draw(st.booleans()):
        argv.append("--exact")
    return argv


@settings(deadline=None, max_examples=300, derandomize=True)
@given(xhog_argv())
def test_xhog_near_its_bounds_exits_with_a_code(argv):
    rc, peak = _traced(argv)
    assert rc in (0, 1, 2)
    if rc != 2:
        return
    assert peak < REJECTED_PEAK
    if 1 <= int(argv[argv.index("--trials") + 1]) <= xhog.MAX_TRIALS:
        # rejected for another flag, which must not wait for the trial loop
        rc, peak = _traced(argv + ["--trials", str(xhog.MAX_TRIALS)])
        assert rc == 2 and peak < REJECTED_PEAK


@st.composite
def lp_argv(draw):
    action = draw(st.sampled_from(sorted(LP_WINDOWS)))
    return ["lp", action, "-n", str(draw(st.sampled_from(LP_WINDOWS[action])))]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(lp_argv())
def test_lp_near_its_bounds_exits_with_a_code(argv):
    rc, peak = _traced(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert peak < REJECTED_PEAK

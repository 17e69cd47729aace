"""Property test: every verify suite maps sizes near its bounds to an exit code.

Each flag is drawn from a small window around each of its bounds.  The
accepted top of the dense verifiers' -n range (9 and 10) is left out because
one run there takes seconds; their rejected side (11, 14) is drawn.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from xhoglab.cli import main  # noqa: E402

WINDOWS = {
    "symmetrize": {
        "-n": (-1, 0, 1, 2, 11, 12, 14, 15),  # (N+1)^k <= 4096 admits n = 11 only at k = 1
        "-k": (-1, 0, 1, 2, 6, 7),  # the protocol enumeration stops at k = 6
        "--cases": (-1, 0, 1, 2),
    },
    "oracles": {"-n": (-1, 0, 1, 2, 11, 14), "--cases": (-1, 0, 1, 2)},
    "uprep": {"-n": (-1, 0, 1, 2, 11, 14), "-T": (-1, 0, 1, 4, 5), "--trials": (-1, 0, 1, 2)},
    "simplex": {"-N": (-1, 0, 1, 2, 16384, 16385), "--trials": (-1, 0, 1, 99, 100, 101)},
}


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

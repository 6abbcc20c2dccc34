"""One hash over the outputs of a fixed battery of small commands.

Every command, ``cells`` method, ``orbits`` side and format runs at ranks
1-3 over six weights, with rank-4 ``verify`` at three weights, a rank-4
``table`` and a few ``element`` windows.  Each run is served in process
and recorded as ``[argv, exit code, stdout, stderr]``; the sha256 of the
JSON list is frozen, so a refactor that changes any byte of any of these
outputs, or an exit code, fails here.  No run in the battery is a usage
error, since argparse wraps its usage text to the terminal width.
"""

import contextlib
import hashlib
import io
import json

from bncells.cli import METHODS, WEIGHTLESS_METHODS, main

BATTERY_SHA256 = "1a5fc54d682f6059b7bef165475b54197b9794fb66c9b0774f32f3e6149d5e70"

WEIGHTED_METHODS = [method for method in METHODS if method not in WEIGHTLESS_METHODS]
WEIGHTS = [()] + [
    ("--a", str(a), "--b", str(b)) for a, b in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 7))
]
WINDOWS = ("1", "-1", "2,1", "-2,1", "1,-2", "3,2,1", "-3,1,2", "-1,-2,-3",
           "2,-3,1", "4,3,2,1", "-2,4,1,-3", "3,-1,-4,2")


def battery() -> list[list[str]]:
    runs = []
    for n in ("1", "2", "3"):
        for weight in WEIGHTS:
            runs.append(["verify", "--n", n, *weight])
            runs += (["cells", "--n", n, "--method", m, *weight] for m in WEIGHTED_METHODS)
            runs += (["orbits", "--n", n, "--side", s, *weight] for s in ("right", "left"))
        runs += (["cells", "--n", n, "--method", m] for m in WEIGHTLESS_METHODS)
        runs.append(["area", "--n", n])
    # rank-4 verify at (1,4), (1,3) and (2,7)
    runs += (["verify", "--n", "4", "--a", a, "--b", b] for a, b in ("14", "13", "27"))
    runs.append(["table", "--max-n", "4"])
    for window in WINDOWS:
        runs += (["element", "--w", window, "--quick"], ["element", "--w", window])
    return [[*run, "--format", fmt] for fmt in ("tsv", "json") for run in runs]


def served(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return [argv, code, out.getvalue(), err.getvalue()]


def test_the_battery_outputs_are_frozen():
    record = [served(argv) for argv in battery()]
    assert len(record) == 326
    text = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BATTERY_SHA256

"""The CLI byte corpus: argvs whose stdout, stderr and exit code are pinned.

Each argv in ``ARGVS`` runs in-process through ``ssbc.cli.main``, with
``COLUMNS=80`` so that argparse wraps ``--help`` the same way on every
terminal.  The pins are ``cli_corpus.txt``: one line per argv, holding the
exit code, the sha256 of stdout, the sha256 of stderr and the argv.  The
``--help`` pins hold for one Python minor version, since argparse's layout
changes between versions.

Running this file prints the current pins, so a change that means to move
some output re-pins with a visible diff::

    PYTHONPATH=src python tests/cli_corpus.py > tests/cli_corpus.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex

_WINDOW = "--n 50 --alpha 0.1 --delta 0.1 --regime window --m 100"
_RUNGS_INF = "rungs --n 20 --alpha 0.2 --regime inf"
_RUNGS_WINDOW = "rungs --n 20 --alpha 0.2 --regime window --m 30"
_MONDRIAN = "mondrian --k 40 --kj 12 --nj 30 --m 12 --alpha 0.2 --delta 0.15"
_SIMULATE = "simulate --n 15 --m 20 --alpha 0.25 --delta 0.2 --runs 200 --seed 9"
_SIMULATE_LARGE = "simulate --n 1000 --m 1000 --delta 0.1 --runs 300 --seed 23 --methods none,ssbc,dkwm"

ARGVS = [
    # adjust: both methods, both regimes, every format, both answers
    "adjust --n 25 --alpha 0.5 --delta 0.1 --regime inf",
    "adjust --n 25 --alpha 0.5 --delta 0.1 --regime inf --format human",
    f"adjust {_WINDOW}",
    f"adjust {_WINDOW} --format human",
    "adjust --n 25 --alpha 0.5 --delta 0.1 --regime inf --method dkwm",
    "adjust --n 100 --alpha 0.1 --delta 0.05 --regime inf --method dkwm --format human",
    "adjust --n 10 --alpha 0.05 --delta 0.05 --regime inf",
    "adjust --n 10 --alpha 0.05 --delta 0.05 --regime inf --method dkwm",
    "adjust --n 5 --alpha 0.1 --delta 0.1 --regime window --m 10 --format human",
    "adjust --n 5 --alpha 0.05 --delta 0.05 --regime window --m 20",
    # adjust --method dkwm at the everything-set rung u = 0, and below
    # delta = 1/DBL_MAX, where 1/delta overflows
    "adjust --n 3 --alpha 0.4 --delta 0.45 --regime inf --method dkwm",
    "adjust --n 5 --alpha 0.5 --delta 1e-320 --regime inf --method dkwm",
    "adjust --n 5 --alpha 0.5 --delta 1e-320 --regime inf --method dkwm --format human",
    # adjust: usage errors and the at-once refusal of a wide window tail
    "adjust --n 50 --alpha 0.1 --delta 0.1 --regime window",
    "adjust --n 50 --alpha 0.1 --delta 0.1 --regime inf --m 10",
    f"adjust {_WINDOW} --method dkwm",
    "adjust --n 50 --alpha 0.1 --delta 0.1 --regime finite",
    "adjust --n ten --alpha 0.1 --delta 0.1 --regime inf",
    "adjust --n 50 --alpha 1.5 --delta 0.1 --regime inf",
    "adjust --n 50 --alpha 0.1",
    f"adjust {_WINDOW} --format csv",
    "adjust --n 50 --alpha 0.1 --delta 0.1 --regime window --m 100000000",
    "adjust --help",
    # feasible
    "feasible --n 50 --delta 0.1",
    "feasible --n 50 --delta 0.1 --format human",
    "feasible --n 50 --delta 0.1 --m 100",
    "feasible --n 50 --delta 0.1 --m 100 --format human",
    "feasible --n 50 --delta 0",
    "feasible --help",
    # rungs: both regimes, every format
    _RUNGS_INF,
    f"{_RUNGS_INF} --format csv",
    f"{_RUNGS_INF} --format human",
    _RUNGS_WINDOW,
    f"{_RUNGS_WINDOW} --format csv",
    f"{_RUNGS_WINDOW} --format human",
    "rungs --n 50 --alpha 0.1 --regime inf --format csv",
    "rungs --n 20 --alpha 0.2 --regime window",
    "rungs --n 3 --alpha 0.5 --regime window --m 2000000000",
    "rungs --n 100000 --alpha 0.5 --regime window --m 131072",
    "rungs --help",
    # mondrian
    _MONDRIAN,
    f"{_MONDRIAN} --format human",
    "mondrian --k 10 --kj 4 --nj 1 --m 5 --alpha 0.9 --delta 0.5",
    "mondrian --k 10 --kj 4 --nj 1 --m 5 --alpha 0.9 --delta 0.5 --format human",
    "mondrian --k 40 --kj 12 --nj 5 --m 12 --alpha 0.9 --delta 0.5",
    "mondrian --k 10 --kj 40 --nj 30 --m 12 --alpha 0.2 --delta 0.15",
    "mondrian --k 100000 --kj 30000 --nj 5000 --m 20000 --alpha 0.2 --delta 0.1",
    # mondrian at the two prevalence limits, where the count law is a point mass
    "mondrian --k 40 --kj 0 --nj 30 --m 12 --alpha 0.2 --delta 0.15",
    "mondrian --k 40 --kj 40 --nj 30 --m 12 --alpha 0.2 --delta 0.15",
    "mondrian --k 40 --kj 40 --nj 30 --m 12 --alpha 0.2 --delta 0.15 --format human",
    "mondrian --help",
    # simulate: every format, every score model, a skipped dkwm
    _SIMULATE,
    f"{_SIMULATE} --format csv",
    f"{_SIMULATE} --format human",
    f"{_SIMULATE} --methods none,ssbc,dkwm --score-model uniform --workers 2",
    "simulate --n 15 --m 20 --alpha 0.1 --delta 0.2 --runs 200 --seed 9 --methods none,ssbc,dkwm",
    "simulate --n 40 --m 20 --alpha 0.1 --delta 0.2 --runs 200 --seed 9 --methods none,ssbc,dkwm "
    "--format csv",
    f"{_SIMULATE} --methods dkwm,ssbc --score-model abs_normal --format human",
    "simulate --n 15 --alpha 0.25 --delta 0.2 --runs 200 --seed 9",
    f"{_SIMULATE} --methods none,bogus",
    f"{_SIMULATE} --score-model gauss",
    "simulate --n 1 --m 1 --alpha 0.5 --delta 0.4 --runs 1000000000000 --seed 1 --methods none",
    # simulate at n = m = 1000: order indices near the top and near the bottom
    f"{_SIMULATE_LARGE} --alpha 0.1",
    f"{_SIMULATE_LARGE} --alpha 0.1 --score-model uniform",
    f"{_SIMULATE_LARGE} --alpha 0.9",
    f"{_SIMULATE_LARGE} --alpha 0.1 --format csv",
    # simulate: worker counts above the CPU count and the run count, and
    # every method skipped with more than one worker
    f"{_SIMULATE} --methods none,ssbc,dkwm --workers 3",
    f"{_SIMULATE_LARGE} --alpha 0.1 --workers 64",
    "simulate --n 15 --m 20 --alpha 0.25 --delta 0.2 --runs 300 --seed 9 --workers 500",
    "simulate --n 5 --m 20 --alpha 0.05 --delta 0.05 --runs 200 --seed 9 --methods ssbc,dkwm "
    "--workers 2",
    # simulate: `none` thresholds at order index n + 1, a point-mass overlay
    "simulate --n 3 --m 7 --alpha 0.2 --delta 0.2 --runs 200 --seed 9 --methods none,dkwm",
    "simulate --n 3 --m 7 --alpha 0.2 --delta 0.2 --runs 200 --seed 9 --methods none,dkwm "
    "--format csv",
    "simulate --help",
    # the top level
    "--help",
    "frobnicate",
]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    from ssbc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pin(argv: str) -> str:
    code, out, err = run(shlex.split(argv))
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    return " ".join([str(code), *digests, argv])


def pins() -> list[str]:
    os.environ["COLUMNS"] = "80"
    return [pin(argv) for argv in ARGVS]


if __name__ == "__main__":
    print("\n".join(pins()))

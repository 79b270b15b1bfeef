"""The instance sweep of `tests/sweep.py`, run in-process: 1,256 solves of the
committed benchmark instances and of tiny random instances with unit and with
decimal data, in both modes, where every strict schedule must validate."""

import contextlib
import io

import sweep


def test_sweep_validates_every_strict_schedule():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = sweep.main()
    assert status == 0
    assert len(out.getvalue().splitlines()) == 1256

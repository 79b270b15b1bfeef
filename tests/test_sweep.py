"""The instance sweep of `tests/sweep.py`, run in-process: 1,256 solves of the
committed benchmark instances and of tiny random instances with unit and with
decimal data, in both modes, where every strict schedule must validate.

The SHA-256 of its stdout pins every status, reason, event sequence,
distance and exact time.  A change that moves one re-records the digest and
lists the moved lines in CHANGES.md."""

import contextlib
import hashlib
import io

import sweep

DIGEST = "96af9ee0222120a21c18abacd8c337e08805864e089a2666ff0c7a9956d48a5f"


def test_sweep_validates_every_strict_schedule():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = sweep.main()
    assert status == 0
    assert len(out.getvalue().splitlines()) == 1256
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGEST

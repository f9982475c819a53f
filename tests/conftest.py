import contextlib
import io

import pytest

from locq import cli


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process, returning (exit_code, stdout_text); the
    call must write nothing to stderr."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert err.getvalue() == "", argv
        return code, out.getvalue()

    return run

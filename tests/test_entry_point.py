"""The installed ``geomlim`` script gives the exit code, stdout and stderr
of ``cli.run`` in process on every command line of test_cli's corpora,
each document in an argv read from stdin.  A ``geomlim`` on PATH runs from
a temporary directory without PYTHONPATH, so it imports geomlim only
through its installation; else pip's wrapper runs against this src."""
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from geomlim import cli
from test_cli import (COMBINATORICS_DIGESTS, HELP_ARGVS, INVALID_ARGVS,
                      OPERATIONS, README_DIGESTS, check_help, run)

SCRIPT = shutil.which("geomlim")
WRAPPER = [sys.executable, "-c", "from geomlim.cli import main; main()"]


def _piped(argv):
    """argv with its document, if any, replaced by "-" and given as stdin."""
    docs = [json.dumps(word) for word in argv if isinstance(word, dict)]
    return [w if isinstance(w, str) else "-" for w in argv], "".join(docs)


CASES = [_piped(argv) for argv in HELP_ARGVS] + [
    (argv, stdin) for argv, stdin, _ in README_DIGESTS] + [
    _piped(argv) for argv, *_ in COMBINATORICS_DIGESTS + OPERATIONS] + [
    _piped(argv) for argv in INVALID_ARGVS]


@pytest.mark.parametrize("argv, stdin", CASES,
                         ids=[" ".join(argv)[:40] for argv, _ in CASES])
def test_script_is_cli_run(capsys, monkeypatch, tmp_path, argv, stdin):
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    if SCRIPT:
        env.pop("PYTHONPATH", None)
    else:
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(([SCRIPT] if SCRIPT else WRAPPER) + argv,
                          input=stdin, cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1
        assert "error" in json.loads(err)
    elif argv[-1] in ("-h", "--help"):
        check_help(argv, out)
    elif out.startswith(("{", "[")):
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"

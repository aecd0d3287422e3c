"""The CLI's start-up imports no module that it does not use.

Every CLI call pays for its imports before any geometry runs.
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and ``typing`` is only needed for annotations, which ``collections.abc``
serves.  The check runs in a fresh interpreter with ``-I -S``: no
environment, no user site and no ``site`` module, whose ``.pth`` files
can import ``typing`` on their own.

``argparse`` and the ``gettext`` and ``locale`` that its first parser
loads serve only help and usage errors: a well-formed call is parsed
from ``cli.COMMANDS`` without them.
"""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import convexsplit.cli
convexsplit.cli.build_parser()
print(json.dumps(sorted(sys.modules)))
"""

CALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import convexsplit.cli
convexsplit.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = convexsplit.cli.main(["bounds", "--k", "1"])
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_cli_start_up_skips_dataclasses_inspect_and_typing():
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "convexsplit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_well_formed_call_skips_argparse_gettext_and_locale():
    out = subprocess.run([sys.executable, "-I", "-S", "-c", CALL, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    code, loaded = json.loads(out)
    assert code == 0
    assert "convexsplit.cli" in loaded
    assert not set(loaded) & {"argparse", "gettext", "locale"}

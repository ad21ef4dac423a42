"""Set-up probe: a fresh interpreter imports the CLI and runs one tiny call.

Its wall time, measured by ``run.py`` from spawn to exit, is what a CLI
user pays on every invocation before any real work.
"""

import contextlib
import io
import sys

import biortho.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = biortho.cli.main(["spectrum", "--model", "dimer", "--g", "1", "--k", "0.5"])
sys.exit(code)

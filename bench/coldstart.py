"""One cold start of the CLI, then the calibration kernel in the same process.

Usage: PYTHONPATH=src:bench python3 bench/coldstart.py

Runs `geompert models list` the way `python -m geompert models list` does,
then prints the calibration kernel's time in ms as the last line.  The
kernel runs in the started process itself because the parent may sit on
another CPU, whose speed can differ.
"""

import runpy
import sys

sys.argv = ["geompert", "models", "list"]
try:
    runpy.run_module("geompert", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    if exit_.code:
        raise

from calibration import kernel_ms  # noqa: E402

print(kernel_ms())

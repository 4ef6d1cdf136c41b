"""Set-up of one benchmark process: import symbolkit from this checkout's
src/ and load and compile each model given on the command line once.

Prints the CLOCK_MONOTONIC time at which set-up finished; the parent
subtracts the time at which it started this process.

    python3 perfbench/cold_start.py bm path/to/model.model ...
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbolkit.config import compile_model, load_config, resolve_model_path  # noqa: E402

for spec in sys.argv[1:]:
    compile_model(load_config(resolve_model_path(spec)))
print(repr(time.monotonic()))

"""Let the CLI tests' subprocesses import gihflab from src/ without an
install, as pytest's own `pythonpath` setting does for this process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

"""Child interpreters started by the tests import the checkout under test.

pytest puts src/ on sys.path (pyproject.toml); subprocesses see it through
PYTHONPATH, so a bare `pytest` in a fresh checkout tests that checkout.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

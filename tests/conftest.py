"""Let the interpreters the tests start import ``ddi`` from ``src``.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's
own path only.  The CLI tests also run ``python -m ddi.cli`` in fresh
interpreters, which in an uninstalled checkout find the package only
through ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

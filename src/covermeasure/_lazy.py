"""numpy as ``np``, imported on its first attribute access.

This follows the ``importlib.util.LazyLoader`` recipe of the importlib
documentation, so that commands that never touch an array start without
numpy's import.  On Python 3.10 and 3.11 the first access is not
thread-safe: it must happen on one thread before others use ``np``.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

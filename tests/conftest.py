import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def child_env() -> dict[str, str]:
    """The environment for a child Python process: this one's, with the
    import path that finds `sthl` and the test helpers."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

"""The scripts that regenerate tests/data/ run on the checkout's own sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_reference_imports_the_checkouts_flipreset(tmp_path):
    # no PYTHONPATH, and a working directory outside the checkout
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); "
        "import make_reference, flipreset; print(flipreset.__file__)"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve().parent == (ROOT / "src" / "flipreset").resolve()

"""The public surface: the README quick start runs as written, and every
exported name resolves."""
import contextlib
import io
import re
from pathlib import Path

import numpy as np

import blochx

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), scope)
    assert np.max(np.abs(scope["stats"].born - [0.25, 0.75])) <= 1e-12


def test_every_exported_name_resolves_once():
    assert len(set(blochx.__all__)) == len(blochx.__all__)
    for name in blochx.__all__:
        assert hasattr(blochx, name), name

"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks, "README has no python example"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

"""README.md's Python snippets run as written.

The fenced ``python`` blocks build on each other (the second uses the
graph the first generates), so they run in order in one namespace.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = _python_blocks(README.read_text())
    assert blocks
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        code = compile(block, f"README.md python block {i}", "exec")
        exec(code, namespace)

"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the suite's filterwarnings = ["error"] turns any warning into a failure
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "the Library section holds no python block"
    exec(compile(block.group(1), str(README), "exec"), {})

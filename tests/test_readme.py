"""The README's library example runs verbatim, so the docs cannot drift
from the package's exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "[PASS] not-3-colorable" in out
    assert out.rstrip().endswith("overall: PASS")

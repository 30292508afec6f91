import re
from pathlib import Path


def test_the_library_example_runs_as_written():
    """The README's python block, exactly as written: a solve and its
    Hamming certificate."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})

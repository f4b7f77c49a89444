"""Each demo script, and README's library example, runs to completion in-process.

The demos call the CSV writers and the seed evaluation directly, and the
README example the public API, so a change to those interfaces that forgets
one of them fails here.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIP_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_example(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("\n## Library example\n"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```")]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})

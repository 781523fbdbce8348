from pathlib import Path

import homspace


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ breaks `from homspace import *`
    missing = [name for name in homspace.__all__ if not hasattr(homspace, name)]
    assert missing == []
    assert len(set(homspace.__all__)) == len(homspace.__all__)


def test_readme_quickstart_prints_pass(capsys):
    # the "Library quickstart" block of README.md runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out == "PASS\n"

"""The README's library example runs as documented, so it cannot rot."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
    *report, last = capsys.readouterr().out.strip().splitlines()
    assert report
    rho, passed = last.split()
    assert 0.0 < float(rho) < 1.0 and passed in ("True", "False")

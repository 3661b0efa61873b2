"""Every tracked Python file parses as Python 3.10, the oldest version the
package supports, so syntax from a later version fails here and not only on
a 3.10 interpreter."""

import ast
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def tracked_python_files() -> list[str]:
    """The repository's tracked ``.py`` files; outside a git checkout, every
    ``.py`` file under the package, tests, scripts and benchmark folders."""
    try:
        out = subprocess.run(["git", "ls-files", "*.py"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        out = []
    return out or sorted(str(p.relative_to(ROOT)) for d in ("src", "tests", "scripts", "bench")
                         for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", tracked_python_files())
def test_parses_as_the_oldest_supported_python(path):
    source = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(source, filename=path, feature_version=OLDEST)


def test_the_check_rejects_later_syntax():
    later = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(later)  # valid on the interpreter running the tests
    with pytest.raises(SyntaxError):
        ast.parse(later, feature_version=OLDEST)

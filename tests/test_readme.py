"""The README's library quick start runs as written, on the package root's names."""

import ast
import re
from pathlib import Path

import golp

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_quick_start_blocks_run_as_written(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block reuses the first one's table and config
        exec(compile(block, str(README), "exec"), namespace)
    first, second = capsys.readouterr().out.splitlines()
    assert first.split()[0] == "device"
    assert second.split()[0] == "device"


def test_package_root_exports_what_the_quick_start_imports():
    imported = {
        alias.name
        for block in quick_start_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "golp"
        for alias in node.names
    }
    assert set(golp.__all__) == imported

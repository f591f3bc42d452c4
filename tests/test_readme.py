"""The README names only what the package has."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("numsolve", "grid3d", "verify", "cli", "model", "coords")


def test_every_module_attribute_the_readme_names_exists():
    # inline code may wrap a line; fenced blocks hold shell commands only
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    pattern = re.compile(rf"\b({'|'.join(MODULES)})\.(\w+)")
    named = {match.groups() for span in re.findall(r"`([^`]+)`", text)
             for match in pattern.finditer(span)}
    assert named
    missing = sorted(f"{module}.{name}" for module, name in named
                     if not hasattr(importlib.import_module(f"wolfes4.{module}"), name))
    assert missing == []

"""Documentation-presence tests (the tier-1 face of ``repro.doccheck``).

The project promises that every public ``repro.*`` module — and every public
class/function defined in one — carries a docstring, and that the README's
``python`` blocks execute.  ``python -m repro.doccheck`` enforces this from
the command line / CI; these tests enforce the same invariants in the suite
so a bare ``pytest`` run catches documentation rot too.
"""

import re
from pathlib import Path

from repro import doccheck

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestDocstringAudit:
    def test_every_public_module_and_member_is_documented(self):
        problems = doccheck.check_docstrings()
        assert not problems, "undocumented public API:\n" + "\n".join(problems)

    def test_module_walk_covers_the_package(self):
        names = doccheck.iter_public_module_names()
        # Spot-check the subsystems the architecture guide names.
        for expected in (
            "repro",
            "repro.core.iss",
            "repro.runtime.wire",
            "repro.sim.network",
            "repro.harness.runner",
            "repro.doccheck",
        ):
            assert expected in names


class TestModuleMap:
    def test_architecture_module_map_lists_exactly_the_top_level_tree(self):
        """The ``docs/ARCHITECTURE.md`` module map names every top-level
        package and module under ``src/repro/``, and nothing that is gone."""
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = text.split("## Module map", 1)[1]
        block = section.split("```", 2)[1]
        documented = set(re.findall(r"^[├└]── (\S+)", block, re.MULTILINE))
        package = REPO_ROOT / "src" / "repro"
        tree = {
            f"{path.name}/" for path in package.iterdir()
            if (path / "__init__.py").is_file()
        } | {path.name for path in package.glob("*.py") if path.name != "__init__.py"}
        assert documented == tree, (
            f"missing from the map: {sorted(tree - documented)}; "
            f"stale in the map: {sorted(documented - tree)}"
        )


class TestReadmeBlocks:
    def test_readme_python_blocks_execute(self):
        problems = doccheck.check_readme_blocks(REPO_ROOT / "README.md")
        assert not problems, "\n".join(problems)

    def test_scenario_catalog_python_blocks_execute(self):
        problems = doccheck.check_readme_blocks(REPO_ROOT / "docs" / "SCENARIOS.md")
        assert not problems, "\n".join(problems)

    def test_block_extraction_finds_fenced_python(self):
        markdown = "text\n```python\nx = 1\n```\n```bash\nls\n```\n"
        blocks = doccheck.extract_python_blocks(markdown)
        assert blocks == ["x = 1\n"]

"""Public-API surface checks."""

import pathlib
import re

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_pyproject(self):
        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        text = pyproject.read_text()
        assert f'version = "{repro.__version__}"' in text

    def test_quickstart_snippet(self, capsys):
        """The README's quickstart must keep working verbatim: its python
        blocks run in one namespace and print the pinned numbers."""
        readme = pathlib.Path(repro.__file__).resolve().parents[2] / "README.md"
        section = readme.read_text().split("\n## Quickstart\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
        assert blocks
        namespace = {}
        for block in blocks:
            exec(block, namespace)
        assert capsys.readouterr().out.startswith("1205 24320 ")

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.bus
        import repro.cache
        import repro.cli
        import repro.core
        import repro.experiments
        import repro.extensions
        import repro.interleave
        import repro.kernels
        import repro.pva
        import repro.sdram
        import repro.sim
        import repro.vm
        import repro.workloads

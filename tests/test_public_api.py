"""Public-API surface checks."""

import pathlib

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

    def test_quickstart_snippet(self):
        """The README's quickstart must keep working verbatim."""
        from repro import (
            SystemParams,
            build_trace,
            kernel_by_name,
            simulate,
        )

        params = SystemParams()
        trace = build_trace(
            kernel_by_name("copy"), stride=4, params=params, elements=64
        )
        result = simulate(trace, params, system="pva-sdram")
        assert result.cycles > 0
        assert "cycles" in result.summary()

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

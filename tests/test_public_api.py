"""Public API surface: imports, docstrings, the README quickstart."""

import importlib
import re
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_query_api_is_advertised(self):
        for name in ("Session", "CountQuery", "HistogramQuery",
                     "BoundedSumQuery", "ComposedQuery", "Phase"):
            assert name in repro.__all__, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.api", "repro.core", "repro.crypto", "repro.crypto.sigma",
            "repro.dp", "repro.mpc", "repro.net", "repro.sharing",
            "repro.baselines", "repro.attacks", "repro.analysis", "repro.bench",
            "repro.utils",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} missing docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_from_readme(self):
        """Execute the README's quickstart snippet *verbatim*.

        The snippet is extracted from README.md, so docs and behavior
        cannot drift apart.
        """
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README.md lost its python quickstart block"
        snippet = blocks[0]
        assert "ComposedQuery" in snippet and "session.release()" in snippet
        namespace: dict = {}
        exec(compile(snippet, str(README), "exec"), namespace)  # noqa: S102
        result = namespace["result"]
        assert result.accepted
        assert len(result.results) == 3

    def test_docstring_pointers_exist(self):
        """The package docstring names README.md and DESIGN.md — both must
        exist (they were once dangling references)."""
        root = README.parent
        for name in ("README.md", "DESIGN.md"):
            assert name in repro.__doc__
            assert (root / name).is_file(), name

    def test_paper_attribution(self):
        """The source paper is Narayan, Feldman, Papadimitriou & Haeberlen
        (EuroSys 2015) — not Biswas & Cormode."""
        assert "Narayan" in repro.__doc__
        assert "EuroSys 2015" in repro.__doc__
        assert "Biswas" not in repro.__doc__


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "separation" in out and "streaming" in out

    def test_run_separation(self, capsys):
        from repro.cli import main

        assert main(["separation"]) == 0
        assert "Pedersen" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["nope"])

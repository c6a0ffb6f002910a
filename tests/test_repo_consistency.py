"""Repository-level consistency: docs exist, references resolve, the
generated ISA reference is up to date."""

from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDeliverables:
    @pytest.mark.parametrize("rel", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
        "docs/isa.md", "docs/timing-model.md", "docs/workloads.md",
        "docs/assembly-tutorial.md", "docs/observability.md",
        "docs/architecture.md", "docs/verification.md",
    ])
    def test_file_exists(self, rel):
        assert (ROOT / rel).is_file(), rel

    def test_examples_referenced_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for line in readme.splitlines():
            if "examples/" in line and ".py" in line:
                name = line.split("examples/")[1].split(".py")[0]
                assert (ROOT / "examples" / f"{name}.py").is_file(), name

    def test_benchmarks_cover_every_figure_and_table(self):
        names = {p.stem for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert {"bench_fig1_lane_scaling", "bench_fig3_vlt_speedup",
                "bench_fig4_utilization", "bench_fig5_design_space",
                "bench_fig6_scalar_threads", "bench_area_model",
                "bench_table4_characteristics"} <= names

    def test_isa_reference_up_to_date(self):
        from repro.isa.doc import isa_reference_md
        on_disk = (ROOT / "docs" / "isa.md").read_text()
        assert on_disk == isa_reference_md(), \
            "regenerate with: python -m repro.isa.doc docs/isa.md"

    def test_design_md_lists_every_experiment(self):
        design = (ROOT / "DESIGN.md").read_text()
        for exp in ("Figure 1", "Table 1", "Table 2", "Table 4",
                    "Figure 3", "Figure 4", "Figure 5", "Figure 6"):
            assert exp in design, exp


class TestDocsGraph:
    def test_every_docs_page_reachable_from_readme(self):
        """Every page under docs/ is linked from README (directly)."""
        readme = (ROOT / "README.md").read_text()
        for page in sorted((ROOT / "docs").glob("*.md")):
            assert f"docs/{page.name}" in readme, \
                f"docs/{page.name} is not linked from README.md"

    def test_doc_cross_links_resolve(self):
        """Relative .md links inside docs/ point at real pages."""
        import re
        for page in sorted((ROOT / "docs").glob("*.md")):
            for target in re.findall(r"\]\(([\w-]+\.md)\)",
                                     page.read_text()):
                assert (ROOT / "docs" / target).is_file(), \
                    f"{page.name} links to missing docs/{target}"

    def test_every_cli_verb_documented(self):
        """Each vlt-repro verb appears in at least one doc or README."""
        from repro.harness.cli import CLI_VERBS
        corpus = (ROOT / "README.md").read_text()
        for page in (ROOT / "docs").glob("*.md"):
            corpus += page.read_text()
        for verb in CLI_VERBS:
            assert verb in corpus, \
                f"CLI verb {verb!r} appears in no doc page or README"

    def test_dotted_module_paths_import(self):
        """Every ``repro.<pkg>[.<mod>]`` path in DESIGN.md and docs/ names
        a real package, and ``<mod>`` a real submodule or attribute."""
        import importlib
        import re
        pat = re.compile(r"(?<![\w./-])repro\.([a-z_][a-z0-9_]*)"
                         r"(?:\.([a-z_][a-z0-9_]*))?")
        pages = [ROOT / "DESIGN.md"] + sorted((ROOT / "docs").glob("*.md"))
        bad = set()
        for page in pages:
            for m in pat.finditer(page.read_text()):
                pkg, mod = m.groups()
                try:
                    package = importlib.import_module(f"repro.{pkg}")
                    if mod is not None:
                        try:
                            importlib.import_module(f"repro.{pkg}.{mod}")
                        except ModuleNotFoundError:
                            if not hasattr(package, mod):
                                raise
                except ModuleNotFoundError:
                    bad.add(f"{page.name}: {m.group(0)}")
        assert not bad, sorted(bad)


class TestIsaDocSemantics:
    """Parse the committed docs/isa.md opcode tables back into data and
    cross-check against the live registry -- catches hand edits that the
    full-text regeneration test alone would also catch, but pinpoints
    *which* opcode drifted and survives header/prose rewording."""

    @staticmethod
    def _parse_tables():
        import re
        rows = {}
        for line in (ROOT / "docs" / "isa.md").read_text().splitlines():
            m = re.match(r"\| `([\w./]+)` \| (.*?) \| (\w+) \| (\d+) \|",
                         line)
            if m:
                rows[m.group(1)] = (m.group(3), int(m.group(4)))
        return rows

    def test_opcode_tables_match_registry(self):
        from repro.isa.opcodes import OPCODES
        rows = self._parse_tables()
        assert set(rows) == set(OPCODES), (
            f"docs/isa.md missing {sorted(set(OPCODES) - set(rows))}, "
            f"extra {sorted(set(rows) - set(OPCODES))}; regenerate with: "
            f"python -m repro.isa.doc docs/isa.md")
        for name, (pool, latency) in rows.items():
            spec = OPCODES[name]
            assert (pool, latency) == (spec.pool, spec.latency), \
                f"{name}: doc says pool={pool} latency={latency}, " \
                f"registry says {spec.pool}/{spec.latency}"

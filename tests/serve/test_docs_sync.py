"""Docs-vs-implementation sync: the documented stack must exist.

Three contracts:

* docs/CLI.md documents exactly the subcommands and flags
  ``repro.cli.build_parser()`` defines — both directions, per section;
* every ```json example in docs/SERVING.md round-trips through the
  protocol validators (requests through ``validate_request``,
  responses through ``validate_response``), and its "Failure modes &
  retry semantics" table names exactly the wire + client error codes
  with the retryable column matching ``client.RETRYABLE_CODES``;
* every repo path docs/ARCHITECTURE.md's module map names exists, and
  README links all three documents.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.serve.protocol import validate_request, validate_response

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"


def parser_commands():
    """{subcommand: {flags}} from the argparse tree (minus --help)."""
    parser = build_parser()
    subs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    commands = {}
    for name, sub in subs.choices.items():
        flags = set()
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    flags.add(option)
        flags.discard("--help")
        commands[name] = flags
    return commands


def cli_md_sections():
    """{subcommand: section text} parsed from docs/CLI.md."""
    text = (DOCS / "CLI.md").read_text(encoding="utf-8")
    sections = {}
    current = None
    for line in text.splitlines():
        match = re.match(r"^## repro (\S+)\s*$", line)
        if match:
            current = match.group(1)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {name: "\n".join(lines) for name, lines in sections.items()}


class TestCliReference:
    def test_every_subcommand_has_a_section(self):
        documented = set(cli_md_sections())
        actual = set(parser_commands())
        assert documented == actual, (
            f"CLI.md sections {documented} != subcommands {actual}"
        )

    @pytest.mark.parametrize("command", sorted(parser_commands()))
    def test_flags_match_both_directions(self, command):
        section = cli_md_sections()[command]
        documented = set(re.findall(r"`(--[a-z][a-z-]*)`", section))
        actual = parser_commands()[command]
        missing = actual - documented
        stale = documented - actual
        assert not missing, (
            f"repro {command}: flags undocumented in CLI.md: {missing}"
        )
        assert not stale, (
            f"repro {command}: CLI.md documents dead flags: {stale}"
        )


class TestServingSpec:
    def examples(self):
        text = (DOCS / "SERVING.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
        assert blocks, "SERVING.md lost its JSON examples"
        return [json.loads(block) for block in blocks]

    def test_every_example_validates(self):
        requests = responses = 0
        for example in self.examples():
            if "ok" in example:
                validate_response(example)
                responses += 1
            else:
                validated = validate_request(example)
                assert validated["op"] == example["op"]
                requests += 1
        # The spec must show both sides of the wire.
        assert requests >= 3
        assert responses >= 2

    def test_request_examples_cover_every_artifact_op(self):
        ops = {
            example["op"] for example in self.examples()
            if "op" in example
        }
        assert {"compile", "analyze", "simulate"} <= ops

    def test_documented_error_codes_match_protocol(self):
        from repro.serve.protocol import ERROR_CODES

        text = (DOCS / "SERVING.md").read_text(encoding="utf-8")
        table = text.split("## Error codes", 1)[1]
        table = table.split("##", 1)[0]
        documented = set(re.findall(r"`([a-z_]+)`", table))
        assert documented == set(ERROR_CODES)

    def _failure_mode_rows(self):
        """[(code, origin, retryable)] from the failure-modes table."""
        text = (DOCS / "SERVING.md").read_text(encoding="utf-8")
        section = text.split("## Failure modes & retry semantics", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = re.findall(
            r"^\| `([a-z_]+)` \| (daemon|client) \| (yes|no) \|",
            section,
            re.MULTILINE,
        )
        assert rows, "SERVING.md lost its failure-modes table"
        return rows

    def test_failure_modes_table_covers_every_code(self):
        """Satellite contract: every code a caller can observe — wire
        codes and client-side codes alike — has a documented failure
        mode, and nothing documented is dead."""
        from repro.serve.protocol import CLIENT_ERROR_CODES, ERROR_CODES

        documented = {code for code, _origin, _retry in
                      self._failure_mode_rows()}
        actual = set(ERROR_CODES) | set(CLIENT_ERROR_CODES)
        assert documented == actual, (
            f"failure-modes table out of sync: "
            f"undocumented={actual - documented}, "
            f"dead={documented - actual}"
        )

    def test_failure_modes_origin_column_is_honest(self):
        from repro.serve.protocol import CLIENT_ERROR_CODES

        for code, origin, _retry in self._failure_mode_rows():
            expected = (
                "client" if code in CLIENT_ERROR_CODES else "daemon"
            )
            assert origin == expected, (
                f"{code} is a {expected}-side code, table says {origin}"
            )

    def test_failure_modes_retryable_column_matches_client(self):
        """The 'retryable' column IS the client's retry policy."""
        from repro.serve.client import RETRYABLE_CODES

        documented_retryable = {
            code for code, _origin, retry in self._failure_mode_rows()
            if retry == "yes"
        }
        assert documented_retryable == set(RETRYABLE_CODES), (
            f"table says {documented_retryable} retry, "
            f"client retries {set(RETRYABLE_CODES)}"
        )

    def test_documented_defaults_match_protocol(self):
        """The request-field table's defaults are the real defaults."""
        from repro.serve.protocol import _OPTIONAL

        text = (DOCS / "SERVING.md").read_text(encoding="utf-8")
        for op, defaults in _OPTIONAL.items():
            for field, default in defaults.items():
                expected = f"`{field}` (`{json.dumps(default)}`)"
                assert expected in text, (
                    f"SERVING.md must document {op}.{field} "
                    f"defaulting to {default!r} as {expected}"
                )


class TestArchitecture:
    def test_module_map_paths_exist(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        paths = set(re.findall(
            r"`((?:src|tests|docs|examples)/[^`*]*)`", text
        ))
        assert paths, "ARCHITECTURE.md lost its module map"
        for path in sorted(paths):
            assert (REPO / path).exists(), (
                f"ARCHITECTURE.md names missing path {path}"
            )

    def test_named_modules_import(self):
        import importlib

        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        modules = set(re.findall(r"`(repro\.[a-z_.]+)`", text))
        assert modules
        for module in sorted(modules):
            importlib.import_module(module)


class TestReadmeIndex:
    def test_readme_links_the_docs(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        for path in (
            "docs/ARCHITECTURE.md", "docs/CLI.md", "docs/SERVING.md"
        ):
            assert path in text, f"README must link {path}"
            assert (REPO / path).exists()

    def test_readme_claims_current_profile_schema(self):
        from repro.perf.profiler import Profiler

        version = Profiler().to_dict()["version"]
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert f'"version": {version}' in text
        assert '"version": 1,' not in text

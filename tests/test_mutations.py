"""Generated mutations of the inputs the system owns: manifests and
journals are refused at their door, never with a traceback.

Each case puts one value of a fixed palette in place of one leaf: a
leaf of a demo manifest's section files, for both loops, or a leaf of
one line of the demo prediction journal. The commands run in process
through `cli.main`.

Budget: the full sweep is 1,800 manifest cases and 4,584 journal cases,
about a minute in process. Tier-1 draws a Hypothesis sample of each
half, 150 examples, which takes about 2.6 s on a 2-vCPU host.
"""

from __future__ import annotations

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from twinarch.cli import main

from conftest import REPO_ROOT

PALETTE = (True, "x", math.nan, math.inf, 10**400, -1, 0, 0.5, None, [],
           {}, 10**7)
DEMO = REPO_ROOT / "configs" / "demo"
JOURNAL = REPO_ROOT / "out" / "prediction" / "journal.jsonl"
EXAMPLES = 150

# the runtime outcomes a valid manifest may still end in (exit 4):
# too few points for the forecast, as when a schedule is cut short
RUNTIME_OUTCOMES = ("InsufficientHistory",)


def leaves(doc: object, path: tuple = ()):
    """The path of every scalar and every empty container in `doc`."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for index, value in enumerate(doc):
            yield from leaves(value, path + (index,))
    else:
        yield path


def mutated(doc: object, path: tuple, value: object) -> object:
    doc = copy.deepcopy(doc)
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    return doc


def _sections(loop: str) -> dict:
    files = json.loads((DEMO / loop / "manifest.json").read_text())
    return {name: json.loads((DEMO / loop / file).read_text())
            for name, file in files.items() if name != "output_dir"}


MANIFESTS = {loop: _sections(loop) for loop in ("monitoring", "prediction")}
MANIFEST_CASES = [(loop, path, value)
                  for loop, sections in MANIFESTS.items()
                  for path in leaves(sections) for value in PALETTE]
LINES = [json.loads(line)
         for line in JOURNAL.read_text(encoding="utf-8").splitlines()]
JOURNAL_CASES = [(index, path, value)
                 for index, line in enumerate(LINES)
                 for path in leaves(line) for value in PALETTE]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process command; an exception
    that escapes `main` fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def test_the_sweep_covers_every_leaf():
    assert len(MANIFEST_CASES) == 1_800 and len(JOURNAL_CASES) == 4_584


@settings(max_examples=EXAMPLES)
@given(case=st.sampled_from(MANIFEST_CASES))
def test_a_mutated_manifest_runs_or_is_refused(workdir, case):
    loop, path, value = case
    doc = mutated(MANIFESTS[loop], path, value)
    # the run writes here, never into the tracked out/
    doc["output_dir"] = str(workdir / "out")
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_cli(["run", "--loop", loop, "--config", str(manifest),
                         "--ticks", "4"])
    if code == 4:
        assert err.startswith(tuple(f"error: {name}: "
                                    for name in RUNTIME_OUTCOMES)), err
    else:
        assert code in (0, 2), err


@settings(max_examples=EXAMPLES)
@given(case=st.sampled_from(JOURNAL_CASES))
def test_a_mutated_journal_line_reads_or_is_refused(workdir, case):
    index, path, value = case
    lines = [json.dumps(line) for line in LINES]
    lines[index] = json.dumps(mutated(LINES[index], path, value))
    journal = workdir / "journal.jsonl"
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    commands = [["store", "dump", "--journal", str(journal), "--namespace",
                 LINES[index]["key"]["namespace"]]]
    if LINES[index]["key"]["namespace"] == "Shadows":
        commands += [
            ["shadow", "get", "--journal", str(journal)],
            ["service", "predict", "--journal", str(journal),
             "--entity", "TLF01", "--horizon", "3"]]
    for argv in commands:
        code, err = run_cli(argv)
        assert code in (0, 4), (argv[:2], err)

"""Golden outputs of every `forge scenario X --json` run.

tests/golden/scenarios/<name>.json holds the exact stdout of
`forge scenario <name> --json` and tests/golden/scenarios/exit_codes.json its
exit code.  Each scenario runs through cli.main in this process, so the
lru_cache'd constructions built by the other tests are reused.

Regenerate (only when a claim is meant to change, and name the difference in
CHANGES.md) with
    PYTHONPATH=src python tests/test_scenario_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from forge import scenarios
from forge.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scenarios")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")


def run_scenario(name: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["scenario", name, "--json"])
    return code, out.getvalue()


def _want(name: str):
    with open(EXIT_CODES) as fh:
        code = json.load(fh)[name]
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        return code, fh.read()


def test_golden_files_cover_every_scenario():
    with open(EXIT_CODES) as fh:
        assert sorted(json.load(fh)) == sorted(scenarios.CATALOG)


@pytest.mark.parametrize("name", sorted(scenarios.CATALOG))
def test_scenario_output_matches_golden(name):
    assert run_scenario(name) == _want(name)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name in sorted(scenarios.CATALOG):
        codes[name], text = run_scenario(name)
        with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
            fh.write(text)
    with open(EXIT_CODES, "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Within one build, every public path returns the same bytes for the same input.

The paths, their fixtures and their fingerprint are the identity harness's one table
(``tools/identity.py``): the twenty library paths and the nine CLI jobs.  Each path runs its
first fixtures twice in a row, on inputs built afresh from the seed, so no value computed on the
first run is reused on the second.  A fixture's digest covers its decisions, every float bit and,
for a CLI job, the report bytes.  Run back to back, this catches a state that changes from call
to call with any period; two whole records (``tests/test_identity_tool.py``) miss one whose
period divides the number of calls a record makes.
"""

import pytest

import qmajor

from conftest import identity_tool

LIBRARY_FIXTURES, CLI_FIXTURES = 3, 1


@pytest.mark.parametrize("name", list(identity_tool()._paths(qmajor)))
def test_same_input_gives_the_same_bytes(name):
    from click.testing import CliRunner
    from qmajor.cli import main

    tool, runner = identity_tool(), CliRunner()
    make = tool._paths(qmajor)[name]
    count = CLI_FIXTURES if name.startswith("cli:") else LIBRARY_FIXTURES
    with runner.isolated_filesystem():
        for i in range(count):
            first, second = (tool._run_fixture(name, make, i, main, runner)[0] for _ in range(2))
            assert first == second, f"{name} fixture {i}"

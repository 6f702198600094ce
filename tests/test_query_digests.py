"""The benchmark's query stream answers as it always has.

The ``query`` workload of ``perfbench/run.py`` is a seeded stream of 4,800
single ``check`` and ``contains`` requests.  Each request runs here through
the handler its CLI subcommand calls, and every exit code and report is
digested and compared with a digest taken from earlier implementations, so
a change in any verdict, witness or occurrence the stream prints shows up
here.  ``perfbench/workloads.py`` is imported as it stands, not copied.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import QUERY_POOL, _request_runner, make_requests  # noqa: E402

PINNED = {
    # seed: sha256 over f"{exit code}|{stdout}\n" of every request, in stream order
    7: "784affaea87b63dddcf2c4942f5ee6b42cb82fe6e43b5206047b8d28e305b63c",
    11: "eaca9d3bfaaed5281890acacad6cdc2e53b4ee844f863236afec6b293061f9e1",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_query_outputs_match_pins(seed, tmp_path):
    digest = hashlib.sha256()
    for request in make_requests(seed, QUERY_POOL, tmp_path):
        code, stdout = _request_runner(request)()
        digest.update(f"{code}|{stdout}\n".encode())
    assert digest.hexdigest() == PINNED[seed]

"""Starting the CLI or the service loads neither scipy nor networkx.

Only analyses off those start-up paths use scipy (the Gauss-Seidel
triangular solve), and they import it where it is used.  networkx is
not a dependency; the check keeps any future use of it off the start-up
paths too.  Nor do they load the stdlib ``http.server``: the one HTTP
server, :mod:`repro.obs.server`, is built on asyncio.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_cli_and_service_import_without_scipy_or_networkx():
    program = (
        "import sys\n"
        "import repro.cli, repro.service\n"
        "print(sorted({name.split('.')[0] for name in sys.modules}\n"
        "             & {'scipy', 'networkx'}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert result.stdout.strip() == "[]"


def test_cli_and_service_import_without_http_server():
    program = (
        "import sys\n"
        "import repro.cli, repro.service\n"
        "print('http.server' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert result.stdout.strip() == "False"

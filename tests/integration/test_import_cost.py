"""Starting the CLI or the service loads neither scipy nor networkx.

Only analyses off those start-up paths use them (the Gauss-Seidel
triangular solve, the chart graph analyses), and they import them
where they are used.
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

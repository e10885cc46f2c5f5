"""The documentation number gate (``tools/check_doc_numbers.py``)."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_doc_numbers", REPO_ROOT / "tools" / "check_doc_numbers.py"
)
check_doc_numbers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_doc_numbers)


def test_committed_docs_quote_only_recorded_numbers(capsys):
    assert check_doc_numbers.main() == 0
    assert "every quote" in capsys.readouterr().out


def test_unrecorded_quote_is_named_with_file_and_line(tmp_path):
    record = tmp_path / "BENCH_x.json"
    record.write_text(json.dumps({"speedup": 3.8312, "nested": [1.649]}))
    doc = tmp_path / "doc.md"
    doc.write_text("Fast.\n\n3.83× and 1.65 × hold, 9.99× does not.\n")
    assert check_doc_numbers.unmatched([doc], [record]) == [
        f"{doc}:3: 9.99×"
    ]


def test_quotes_match_at_their_precision():
    assert check_doc_numbers.recorded("954.4", [954.44])
    assert check_doc_numbers.recorded("2", [1.9])
    assert check_doc_numbers.recorded("1,000", [999.6])
    assert not check_doc_numbers.recorded("3.8", [3.86])
    assert check_doc_numbers.numbers(
        {"a": [1, {"b": 2.5}], "c": "3", "d": True}
    ) == [1.0, 2.5]

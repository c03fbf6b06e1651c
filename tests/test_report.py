"""The acceptance report writer of conftest.py."""
from conftest import write_report


def test_report_is_replaced_whole(tmp_path):
    report = tmp_path / "report.txt"
    report.write_text("ACCEPTANCE 01 PASS: old\nACCEPTANCE 02 PASS: old\n")
    write_report(report, ["ACCEPTANCE 01 PASS: new"])
    assert report.read_text() == "ACCEPTANCE 01 PASS: new\n"
    write_report(report, ["ACCEPTANCE 01 FAIL: a", "ACCEPTANCE 02 PASS: b"])
    assert report.read_text() == "ACCEPTANCE 01 FAIL: a\nACCEPTANCE 02 PASS: b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]  # no temporary file left


def test_no_lines_leave_the_report_as_it_is(tmp_path):
    report = tmp_path / "report.txt"
    report.write_text("ACCEPTANCE 01 PASS: kept\n")
    write_report(report, [])
    assert report.read_text() == "ACCEPTANCE 01 PASS: kept\n"
    write_report(tmp_path / "absent.txt", [])
    assert not (tmp_path / "absent.txt").exists()

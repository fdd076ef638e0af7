"""Every CLI call of the transcript prints exactly what the committed file
records: exit code, stderr and stdout (see cli_transcript.py)."""

from cli_transcript import GOLDEN, first_difference, transcript


def test_cli_matches_committed_transcript():
    difference = first_difference(transcript(),
                                  GOLDEN.read_text(encoding="utf-8").splitlines())
    assert difference is None, difference


def test_first_difference_names_the_call_and_the_changed_bytes():
    records = [{"input": "fixture:x", "argv": ["check"], "code": 0,
                "stdout": "ok\n", "stderr": ""}]
    report = first_difference(records, ['["fixture:x",["check"],0,"ok!\\n",""]'])
    assert report.startswith("call 0: input fixture:x, argv ['check']\n")
    assert "-ok!" in report and "+ok" in report
    same = '["fixture:x",["check"],0,"ok\\n",""]'
    assert first_difference(records, [same]) is None
    assert first_difference(records, [same, same]) == "1 calls made, 2 committed"

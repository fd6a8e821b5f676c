import json

from golden import GOLDEN, digests


def test_outputs_match_the_golden_digests(tmp_path):
    """Every output file, exit code and stderr line of the runs that
    ``tests/golden.py`` lists is what ``tests/golden.json`` records."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    assert list(actual) == list(expected)
    for name, run in expected.items():
        assert actual[name] == run, name

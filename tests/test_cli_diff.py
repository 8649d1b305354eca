"""The token soups and shuffled stops of `tools/cli_diff.py`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_diff  # noqa: E402


def test_soups_are_fixed_by_their_seed():
    soups = cli_diff.soup_sources(40, seed=3)
    assert soups == cli_diff.soup_sources(40, seed=3)
    assert soups != cli_diff.soup_sources(40, seed=4)
    assert list(soups) == [f"soup{k}" for k in range(40)]
    headed = [text.startswith(cli_diff.SOUP_HEADER) for text in soups.values()]
    assert headed == [k % 2 == 1 for k in range(40)]


def test_each_net_is_also_run_shuffled_and_stopped_in_both_modes():
    cases = cli_diff.shuffled_stop_cases(["a", "b"])
    assert len(cases) == 8 and len({(key, tuple(args)) for key, args in cases}) == 8
    for key, args in cases:
        assert key in ("a", "b") and args[:3] == ["run", "--trace", "--mode"]
        assert args[3] in ("needed", "full")
        assert args[4:] in [list(stop) for stop in cli_diff.SHUFFLED_STOPS]

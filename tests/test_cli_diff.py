"""The token soups of `tools/cli_diff.py --soup`."""

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

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import count_settable  # noqa: E402

MODULE = '''\
import argparse
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    """Two fields; the constant and the method are not fields."""

    c: float = 1.0
    tags: list = field(default_factory=list)
    LIMIT = 3

    def scaled(self, factor, *, offset=0.0):
        return self.c * factor + offset


class Plain:
    size: int = 0

    @classmethod
    def build(cls, size):
        return cls()


def run(path, *values, verbose=False, **options):
    def step(item):
        return item

    return step


def _helper(a, b):
    return a + b


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed")
    parser.add_argument("--out")
'''


def test_counts_of_a_small_module(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("def ignored(x): pass\n")
    assert count_settable.count(tmp_path) == {
        "source_lines": MODULE.count("\n"),
        "cli_flags": 2,
        # scaled: factor, offset; build: size; run: path, values, verbose,
        # options; step: item
        "public_parameters": 8,
        "dataclass_fields": 2,
        "settable": 12,
    }

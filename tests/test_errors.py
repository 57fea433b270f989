"""The shared input rules: `read_lines` splits lines exactly as `str.splitlines`."""

import random

import pytest

import rspin.errors as errors
from rspin.errors import read_lines

# Every line break `str.splitlines` knows, "\r\n" counted as one.
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _eager(text):
    """The reader before chunking: one `splitlines` over the whole text."""
    out = []
    for line in text.splitlines():
        line = line.partition("#")[0]
        if line.split():
            out.append((line.strip(), line.split()))
    return out


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 1 << 16])
def test_read_lines_matches_splitlines_at_any_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(errors, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(300):
        pieces = [rng.choice(["a", "b c", " ", "#", "x#y", "", "  d  "] + BREAKS)
                  for _ in range(rng.randint(0, 24))]
        text = "".join(pieces)
        assert list(read_lines(text)) == _eager(text), repr(text)


def test_read_lines_keeps_crlf_whole_at_a_chunk_edge(monkeypatch):
    # With 3-character chunks "ab\r" is the first window and its "\n" the
    # next character: the cut falls after the "\n", not between the two.
    monkeypatch.setattr(errors, "_CHUNK", 3)
    for text in ("ab\r\ncd", "ab\r\n\r\ncd\r", "abcdef\r\ng", "\r\n\r\n", "a\u2028b\nc"):
        assert [line for line, _ in read_lines(text)] == \
            [line for line in text.splitlines() if line], repr(text)
    assert list(read_lines("")) == []

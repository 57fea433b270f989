"""The shared input rules: `read_text` decodes as one `bytes.decode`, and
`read_lines` splits lines exactly as `str.splitlines`."""

import random

import pytest

import rspin.errors as errors
from rspin.errors import InconsistentInputError, read_lines, read_text

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


def _decoded(path):
    """`read_text`'s text or error message."""
    try:
        return read_text(str(path))
    except InconsistentInputError as exc:
        return str(exc)


def _whole(path):
    """The reader before chunking: one decode of the whole file."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{str(path)!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"


@pytest.mark.parametrize("data,error", [
    (b"abcdefg\xffhij", "invalid start byte at byte 7"),
    (b"abcdefgh\xffij", "invalid start byte at byte 8"),
    (b"abcdefghi\xffj", "invalid start byte at byte 9"),
    (b"abcdefg\xe2A", "invalid continuation byte at byte 7"),
    (b"abcdefg\xe2\x82", "unexpected end of data at byte 7"),
    ("abcdefg\u20acxy".encode(), None),
    ("abcdef\U0001d11e".encode(), None),
], ids=["before", "at", "after", "cut-then-bad", "cut-at-end", "euro-split", "clef-split"])
def test_read_text_decodes_across_a_chunk_boundary(monkeypatch, tmp_path, data, error):
    # 8-byte chunks: byte 8 starts the second; a character may straddle them.
    monkeypatch.setattr(errors, "_CHUNK", 8)
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    got = _decoded(path)
    assert got == _whole(path)
    assert got.endswith(f"is not UTF-8 text: {error}") if error else got == data.decode()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
def test_read_text_matches_one_decode_at_any_chunk_size(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(errors, "_CHUNK", chunk)
    rng = random.Random(chunk)
    pieces = [c.encode() for c in "ab\n\u00e9\u20ac\U0001d11e"] + [b"\xff", b"\xe2", b"\x82"]
    path = tmp_path / "input.txt"
    for _ in range(300):
        path.write_bytes(b"".join(rng.choices(pieces, [6] * 6 + [1] * 3, k=rng.randint(0, 16))))
        assert _decoded(path) == _whole(path), path.read_bytes()

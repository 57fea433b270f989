"""Exception taxonomy shared by every module, and the input rules of the text formats.

All domain failures derive from DomainError so the CLI can map them to
exit status 1 uniformly; usage errors are argparse's business (status 2).
Every input file is read through `read_text`, and every file parser reads
its text through `read_lines` and its integers through `int_token`, so a
file that is not UTF-8 or a bad token is an InconsistentInputError that
names the file or quotes the token and its line, not Python's ValueError.
Twist words and braid words split `name^e` with `power`.  A record that
validates its fields is a `Record` named tuple.
"""

import codecs
from typing import Iterable, Iterator


class DomainError(Exception):
    """Base class for all structured domain errors."""


class LatticeMismatchError(DomainError):
    """Divisor classes from different lattices were combined."""


class NotRepresentableError(DomainError):
    """An answer cannot be given: a genus that is not an integer, a search too large."""


# The most ledger sums one jet-splitting search holds (under 50 MB at rank 7)
# and the most columns of one Milnor basis matrix (x^510 + y^2 peaks at 80 MB);
# a larger search raises NotRepresentableError instead of answering.
SEARCH_LIMIT = 1 << 17


class UncertifiedError(DomainError):
    """A jet level was requested for a class with no ledger entry."""


class InconsistentInputError(DomainError):
    """Input data contradicts itself (bad signature, bad canonical, ...)."""


class RefinementOrderError(DomainError):
    """Reduction or refinement requested along a non-divisor."""


class NotSimpleError(DomainError):
    """A curve pair meets in more than one point where simplicity is required."""


class RibbonError(DomainError):
    """Neighborhood data needs an embedding the configuration does not carry."""


class DisconnectedError(DomainError):
    """A connected curve system was required."""


class UnsupportedTypeError(DomainError):
    """Unknown Dynkin type or constructor tag."""


class InconsistentStepError(DomainError):
    """A handle-attachment step violates the boundary-value sum rule."""


class UnknownComponentError(DomainError):
    """A step referenced a boundary component that does not exist."""


class EmptyCapError(DomainError):
    """Capping order requested for an empty boundary list."""


class ParityError(DomainError):
    """A parity constraint (even coordinate sum, even exponent) failed."""


class NonIsolatedError(DomainError):
    """The partials of a plane germ share a component through the origin."""


class InternalInconsistencyError(DomainError):
    """An invariant that must hold by construction failed; a bug if raised."""


class Record:
    """Base of a named-tuple record that validates: `class R(Record, _RFields)`.

    The named tuple's generated `__new__` builds it and `__init__` runs its
    `_check`, as do `_make` and `_replace`, so no record exists that fails
    it.  Every rspin value record is a named tuple, which is cheap to define
    at import: no `inspect` to load and no generated methods to exec.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._check()

    @classmethod
    def _make(cls, iterable: Iterable) -> "Record":
        return cls(*iterable)


def int_token(token: str, line: str) -> int:
    """`int(token)`, or an InconsistentInputError quoting the token and its line."""
    try:
        return int(token)
    except ValueError:
        raise InconsistentInputError(
            f"expected an integer, got {token!r} in {line!r}") from None


# The bytes `read_text` decodes and the text `read_lines` splits at a time, so
# neither the file's bytes and its text nor a list of every line of a long
# file are held whole together.
_CHUNK = 1 << 16


def read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; other bytes are an InconsistentInputError.

    Decoded `_CHUNK` bytes at a time; the text grows in place as it goes.
    """
    decoder, text, read = codecs.getincrementaldecoder("utf-8")(), "", 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            start = read - len(decoder.getstate()[0])  # file offset of the bytes decoded
            try:
                text += decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                raise InconsistentInputError(f"{path!r} is not UTF-8 text: {exc.reason} "
                                             f"at byte {start + exc.start}") from None
            if not chunk:
                return text
            read += len(chunk)


def read_lines(text: str) -> Iterator[tuple[str, list[str]]]:
    """(line, tokens) per non-blank line: `#` comment cut, both ends stripped.

    The lines are `text.splitlines()`'s, split a chunk of about `_CHUNK`
    characters at a time.  A chunk ends just after a "\n" (its last one, or
    the next one past it if it has none) or at the end of the text.  No line
    break of any kind continues past a "\n", so every chunk ends a line.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.rfind("\n", start, start + _CHUNK) + 1
        if cut <= start:
            cut = text.find("\n", start + _CHUNK) + 1 or end
        for line in text[start:cut].splitlines():
            if "#" in line:
                line = line.partition("#")[0]
            tokens = line.split()
            if tokens:
                yield line.strip(), tokens
        start = cut


def power(chunk: str) -> tuple[str, str]:
    """`name^e` as (name, e), a bare `name` as (name, "1"); `name^` leaves e empty."""
    name, caret, exponent = chunk.partition("^")
    return name, exponent if caret else "1"

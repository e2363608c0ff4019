"""Sequences over integer letters, blocked sequences, and their text format.

A letter is a positive integer id. A block is a contiguous group of
pairwise-distinct letters; a blocked sequence is an ordered list of blocks
(empty blocks allowed). All types are immutable values.

Text format: letters are whitespace-separated tokens; `|` separates blocks.
A leading/trailing `|` denotes an empty initial/terminal block, `| |` an
interior empty block. Integer tokens parse by value; any other tokens are
assigned ids 1,2,... by first occurrence.
"""

from __future__ import annotations

# Annotations are never evaluated, so `collections.abc` is named in one but
# not imported: `import seqext` loads neither it nor `collections`.

__all__ = [
    "Sequence",
    "BlockedSequence",
    "PatternSequence",
    "normalize",
    "flatten",
    "parse_sequence",
    "parse_pattern",
    "render",
]


class Frozen:
    """Immutable value, as a frozen dataclass would make it: a subclass names
    its fields in `_fields` and sets them once, in its `__init__`, through
    `_init`. Instances equal only instances of the same class with equal
    fields, hash and print as a frozen dataclass does, and refuse
    assignment and deletion. They keep a `__dict__` (no `__slots__`), which
    `copy` and `pickle` restore without calling `__setattr__`."""

    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _as_letter_tuple(tokens: collections.abc.Iterable[int]) -> tuple[int, ...]:
    out = tuple(tokens)
    for tok in out:
        if not isinstance(tok, int) or isinstance(tok, bool) or tok < 1:
            raise ValueError(f"letter ids must be positive integers, got {tok!r}")
    return out


class Sequence(Frozen):
    """Immutable sequence of letters."""

    _fields = ("tokens",)

    def __init__(self, tokens: tuple[int, ...] = ()) -> None:
        self._init(_as_letter_tuple(tokens))

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def alphabet(self) -> frozenset[int]:
        return frozenset(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __str__(self) -> str:
        return render(self)


class BlockedSequence(Frozen):
    """Sequence partitioned into blocks of pairwise-distinct letters."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...] = ()) -> None:
        blocks = tuple(_as_letter_tuple(block) for block in blocks)
        for block in blocks:
            if len(set(block)) != len(block):
                raise ValueError(f"repeated letter inside a block: {block}")
        self._init(blocks)

    @property
    def length(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def alphabet(self) -> frozenset[int]:
        return frozenset(tok for block in self.blocks for tok in block)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return render(self)


class PatternSequence(Sequence):
    """Forbidden pattern: a sequence in normalized form (ids 1..r by first occurrence)."""

    def __init__(self, tokens: tuple[int, ...] = ()) -> None:
        super().__init__(tokens)
        if self.tokens != normalize(Sequence(self.tokens)).tokens:
            raise ValueError("pattern must be normalized (ids 1..r by first occurrence)")

    @classmethod
    def from_sequence(cls, seq: "Sequence") -> "PatternSequence":
        return cls(normalize(seq).tokens)


def normalize(seq: Sequence) -> Sequence:
    """Relabel letters 1..A by first occurrence. Idempotent; preserves the token-equality pattern."""
    ids: dict[int, int] = {}
    out = []
    for tok in seq.tokens:
        if tok not in ids:
            ids[tok] = len(ids) + 1
        out.append(ids[tok])
    return Sequence(tuple(out))


def flatten(bseq: BlockedSequence) -> Sequence:
    """Concatenate the blocks in order."""
    toks: list[int] = []
    for block in bseq.blocks:
        toks.extend(block)
    return Sequence(tuple(toks))


def _map_tokens(raw: list[str]) -> dict[str, int]:
    """Each distinct token's letter, parsing each distinct token once."""
    distinct = dict.fromkeys(raw)
    if all(tok.isdigit() for tok in distinct):
        mapping = {}
        for tok in distinct:
            val = int(tok)
            if val < 1:
                raise ValueError(f"letter ids must be positive, got {tok!r}")
            mapping[tok] = val
        return mapping
    return {tok: i for i, tok in enumerate(distinct, 1)}


def parse_sequence(text: str) -> Sequence | BlockedSequence:
    """Parse sequence text; returns a BlockedSequence iff the text contains `|`."""
    if text.strip() == "":
        raise ValueError("empty input where a sequence is required")
    if "|" in text:
        raw_blocks = [field.split() for field in text.split("|")]
        letter = _map_tokens([tok for block in raw_blocks for tok in block]).__getitem__
        return BlockedSequence(tuple(tuple(map(letter, block)) for block in raw_blocks))
    raw = text.split()
    return Sequence(tuple(map(_map_tokens(raw).__getitem__, raw)))


def parse_pattern(text: str) -> PatternSequence:
    """Parse text as a forbidden pattern, normalizing the letters."""
    seq = parse_sequence(text)
    if isinstance(seq, BlockedSequence):
        raise ValueError("patterns cannot contain block separators")
    return PatternSequence.from_sequence(seq)


def render(obj: Sequence | BlockedSequence) -> str:
    """Inverse of parse_sequence for integer-token texts, up to whitespace."""
    if isinstance(obj, BlockedSequence):
        parts: list[str] = []
        for i, block in enumerate(obj.blocks):
            if i:
                parts.append("|")
            parts.extend(str(tok) for tok in block)
        return " ".join(parts)
    return " ".join(str(tok) for tok in obj.tokens)

"""The immutable value classes: construction, validation, equality, hashing,
repr, immutability, and copy/pickle round trips. Each class behaves as the
frozen dataclass it replaces; the repr texts below are that dataclass's."""

import copy
import pickle

import pytest

from seqext.coloring import EdgeColoring, Hypergraph
from seqext.construct import ConstructionTrace, Troop
from seqext.matrices import MatrixPattern, ZeroOneMatrix
from seqext.oracles import ExtremalResult
from seqext.sequences import BlockedSequence, Frozen, PatternSequence, Sequence

# class, positional arguments, the same as keywords, the dataclass repr
VALUES = [
    (Sequence, ((1, 2),), {"tokens": (1, 2)}, "Sequence(tokens=(1, 2))"),
    (BlockedSequence, (((1, 2), ()),), {"blocks": ((1, 2), ())},
     "BlockedSequence(blocks=((1, 2), ()))"),
    (PatternSequence, ((1, 2, 1),), {"tokens": (1, 2, 1)}, "PatternSequence(tokens=(1, 2, 1))"),
    (ZeroOneMatrix, (2, 2, (1, 3)), {"n": 2, "m": 2, "rows": (1, 3)},
     "ZeroOneMatrix(n=2, m=2, rows=(1, 3))"),
    (MatrixPattern, (1, 2, (2,)), {"n": 1, "m": 2, "rows": (2,)},
     "MatrixPattern(n=1, m=2, rows=(2,))"),
    (ExtremalResult, (3, Sequence((1, 2, 1)), 5, True, 7, 2),
     {"value": 3, "witness": Sequence((1, 2, 1)), "nodes_explored": 5, "exhausted": True,
      "ceiling": 7, "threads_used": 2},
     "ExtremalResult(value=3, witness=Sequence(tokens=(1, 2, 1)), nodes_explored=5, "
     "exhausted=True, ceiling=7, threads_used=2)"),
    (Hypergraph, (3, 2, (frozenset({1, 2}),)),
     {"vertex_count": 3, "uniformity": 2, "edges": (frozenset({1, 2}),)},
     "Hypergraph(vertex_count=3, uniformity=2, edges=(frozenset({1, 2}),))"),
    (EdgeColoring, (1, (1, 2), 2), {"y": 1, "colors": (1, 2), "color_count": 2},
     "EdgeColoring(y=1, colors=(1, 2), color_count=2)"),
    (Troop, ((1, 2), 3), {"support": (1, 2), "repetitions": 3},
     "Troop(support=(1, 2), repetitions=3)"),
    (ConstructionTrace, (2, 3, 3, 2, (Troop((1, 2), 2),), 4, {3: (4,)}),
     {"r": 2, "q": 3, "x": 3, "t": 2, "troops": (Troop((1, 2), 2),), "letter_count": 4,
      "color_letters_per_level": {3: (4,)}},
     "ConstructionTrace(r=2, q=3, x=3, t=2, troops=(Troop(support=(1, 2), repetitions=2),), "
     "letter_count=4, color_letters_per_level={3: (4,)})"),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.mark.parametrize("cls, args, kwargs, text", VALUES, ids=IDS)
class TestEveryClass:
    def test_positional_and_keyword_construction(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert tuple(getattr(a, name) for name in kwargs) == tuple(kwargs.values())

    def test_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == text

    def test_hash(self, cls, args, kwargs, text):
        value = cls(*args)
        if cls is ConstructionTrace:  # its dict field is unhashable, as in the dataclass
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
            return
        assert hash(value) == hash(cls(**kwargs)) == hash(tuple(kwargs.values()))
        assert len({value, cls(*args)}) == 1

    def test_assignment_and_deletion_raise(self, cls, args, kwargs, text):
        value = cls(*args)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            value.other = 1
        assert value == cls(*args)

    def test_copy_and_pickle(self, cls, args, kwargs, text):
        value = cls(*args)
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is cls and other == value and repr(other) == text
            with pytest.raises(AttributeError):
                setattr(other, next(iter(kwargs)), None)

    def test_other_classes_are_unequal(self, cls, args, kwargs, text):
        value = cls(*args)
        assert value != tuple(kwargs.values()) and value != object()


class TestDefaults:
    @pytest.mark.parametrize("cls, field", [
        (Sequence, "tokens"), (BlockedSequence, "blocks"), (PatternSequence, "tokens"),
    ])
    def test_empty_default(self, cls, field):
        assert getattr(cls(), field) == () and cls() == cls(())

    @pytest.mark.parametrize("cls", [
        ZeroOneMatrix, MatrixPattern, ExtremalResult, Hypergraph, EdgeColoring, Troop,
        ConstructionTrace,
    ])
    def test_no_default(self, cls):
        with pytest.raises(TypeError):
            cls()


class TestConversions:
    def test_fields_become_tuples(self):
        assert Sequence([1, 2]).tokens == (1, 2)
        assert BlockedSequence([[1, 2], []]).blocks == ((1, 2), ())
        assert ZeroOneMatrix(2, 1, [1, 0]).rows == (1, 0)
        assert Hypergraph(3, 2, [{1, 2}]).edges == (frozenset({1, 2}),)


class TestValidation:
    @pytest.mark.parametrize("make, message", [
        (lambda: Sequence((1, 0)), "letter ids must be positive integers, got 0"),
        (lambda: Sequence((True,)), "letter ids must be positive integers, got True"),
        (lambda: Sequence(("a",)), "letter ids must be positive integers, got 'a'"),
        (lambda: BlockedSequence(((1, -2),)), "letter ids must be positive integers, got -2"),
        (lambda: BlockedSequence(((1, 1),)), r"repeated letter inside a block: \(1, 1\)"),
        (lambda: PatternSequence((2, 1)), r"pattern must be normalized \(ids 1..r"),
        (lambda: PatternSequence((0,)), "letter ids must be positive integers, got 0"),
        (lambda: ZeroOneMatrix(0, 2, ()), "matrix dimensions must be >= 1"),
        (lambda: ZeroOneMatrix(2, 0, (0, 0)), "matrix dimensions must be >= 1"),
        (lambda: ZeroOneMatrix(2, 2, (1,)), "expected 2 rows, got 1"),
        (lambda: ZeroOneMatrix(1, 2, (4,)), "row mask 4 out of range for 2 columns"),
        (lambda: ZeroOneMatrix(1, 2, (-1,)), "row mask -1 out of range for 2 columns"),
        (lambda: MatrixPattern(1, 2, (0,)), "pattern needs at least one 1-entry"),
        (lambda: MatrixPattern(1, 2, (4,)), "row mask 4 out of range for 2 columns"),
        (lambda: Hypergraph(0, 1, ()), "vertex count must be >= 1"),
        (lambda: Hypergraph(2, 3, ()), "uniformity must be between 1 and the vertex count"),
        (lambda: Hypergraph(3, 2, ({1},)), r"edge \[1\] is not 2-uniform"),
        (lambda: Hypergraph(3, 2, ({1, 4},)), "vertex 4 out of range"),
        (lambda: Troop((1, 1), 2), "troop support letters must be distinct"),
        (lambda: Troop((1, 2), 0), "troop repetitions must be >= 1"),
    ])
    def test_error_texts(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestCrossClassEquality:
    def test_subclass_with_equal_fields_is_unequal(self):
        assert Sequence((1, 2)) != PatternSequence((1, 2))
        assert PatternSequence((1, 2)) != Sequence((1, 2))
        assert ZeroOneMatrix(1, 1, (1,)) != MatrixPattern(1, 1, (1,))
        assert MatrixPattern(1, 1, (1,)) != ZeroOneMatrix(1, 1, (1,))

    def test_unrelated_classes_with_equal_fields_are_unequal(self):
        class Pair(Frozen):
            _fields = ("support", "repetitions")

            def __init__(self, support, repetitions):
                self._init(support, repetitions)

        assert Troop((1, 2), 3) != Pair((1, 2), 3)
        assert EdgeColoring(1, 1, (1,)) != ZeroOneMatrix(1, 1, (1,))

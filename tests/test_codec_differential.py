"""The text codec and ``validate`` against the versions they replaced.

``tests/textfmt_reference.py`` and ``tests/validate_reference.py`` hold the
old code, which reads and makes the flat instructions-and-spans form of
``tests/spans_reference.py``.  The production codec must format the same
text and parse the same circuit, or raise the same error, on generated
circuits and on mutated corpus lines.  A span that is no single instance
of its tag's template, which the old parser read, must be refused with
``MALFORMED_GADGET_SPAN`` exactly where :func:`reference_parse` says.  One
difference is allowed: a line with an id token that the production parser
now refuses or words otherwise (see :func:`refused_id`).  Both ``validate``
functions must return the same first violation on circuits with one
instruction dropped or duplicated.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tclean.constructions import CONSTRUCTIONS
from tclean.goldens import default_corpus_dir
from tclean.ir import Circuit, CircuitError, validate
from tclean.resources import count
from tclean.textfmt import MAX_INDEX, TextFormatError, from_text, to_text

from dag_reference import reference_count
from spans_reference import FlatCircuit, edited, flat_violation, flatten, from_flat, malformed_spans
from strategies import near_miss_circuit, random_circuit, random_paired_circuit
from textfmt_reference import reference_from_text, reference_to_text
from validate_reference import reference_validate

CORPUS = {path.parent.name: path.read_text()
          for path in sorted(Path(default_corpus_dir()).glob("*/circuit.qc"))}

GENERATORS = {
    "random": random_circuit,
    "paired": random_paired_circuit,
    "near_miss": near_miss_circuit,
}

#: Tokens a mutation may put in place of another, besides every corpus token.
EXTRA_TOKENS = ["-1", "-3", "-0", "-1_0", "1_0", "+3", "٣", "０", "007", "c-1", "c-0", "c1_0",
                "c+1", "c٣", "c", "cc1", "->", ":", "?", "#begin", "#end", "#input", "#output",
                "#", "and_compute", "and_uncompute", "and_other", "nan", "inf", "1e400", "0.5",
                str(MAX_INDEX), str(MAX_INDEX + 1), f"c{MAX_INDEX + 1}", "99999999999", "X", "rz",
                "1" * 4301, "-" + "1" * 4301, "c" + "1" * 4301]
TOKENS = sorted({tok for text in CORPUS.values() for tok in text.split()} | set(EXTRA_TOKENS))


def outcome(parse, text):
    """What parsing `text` gives: the circuit, or the error's type, line and message."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - every exception type is compared
        return type(exc), getattr(exc, "line_no", None), str(exc)


def _decimal(token: str) -> bool:
    return token.isdecimal() and token.isascii()


#: The most digits ``int()`` reads from a string (Python's default limit).
INT_MAX_STR_DIGITS = 4300


def refused_id(token: str) -> bool:
    """An id the old parser's ``int()`` read and the new parser refuses, or one ``int()`` cannot read.

    It is not ASCII decimal digits (``1_0``, ``+3``, ``٣``, ``-0``, ``-1_0``)
    or it is past ``MAX_INDEX``.  A negative ``-<digits>`` is not one: both
    parsers refuse it with the same message.  Digits past ``int()``'s limit,
    with or without a sign, are one: the old parser calls the token no id,
    and the new one names its value.
    """
    body = token[1:] if token[:1] == "c" else token
    magnitude = body[1:] if body[:1] == "-" else body
    if _decimal(magnitude) and len(magnitude) > INT_MAX_STR_DIGITS:
        return True
    try:
        value = int(body)
    except ValueError:
        return False
    if body[:1] == "-" and _decimal(body[1:]) and value < 0:
        return False
    return not _decimal(body) or value > MAX_INDEX


def reference_parse(text: str):
    """The old parser's outcome, then the constructor's, as the old parser called it.

    A text with a malformed span (see ``spans_reference.malformed_spans``)
    gives the refusal the production parser must raise in its place: at the
    start of the malformed span whose ``#begin`` comes first in the text,
    naming that line.
    """
    flat = outcome(reference_from_text, text)
    if not isinstance(flat, FlatCircuit):
        return flat
    bad = malformed_spans(flat)
    if bad:
        k = min(bad, key=lambda k: flat.lines[k])
        span, begin_line = flat.spans[k], flat.lines[k][0]
        return (CircuitError, None, f"MALFORMED_GADGET_SPAN at instruction {span.start}: #begin {span.tag} "
                f"on line {begin_line} does not hold one instance of its template")
    circuit = outcome(from_flat, flat)
    return flatten(circuit) if isinstance(circuit, Circuit) else circuit


def assert_same_parse(text: str, *changed_lines: int) -> None:
    new, old = outcome(from_text, text), reference_parse(text)
    if not isinstance(new, tuple):
        new = flatten(new)
    if new == old:
        return
    # One difference allowed: the new parser refuses an id on a changed line.
    assert new[0] is TextFormatError and new[1] in changed_lines, (text, new, old)
    assert any(map(refused_id, text.splitlines()[new[1] - 1].split())), (text, new, old)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32 - 1))
def test_generated_circuits_format_and_parse_as_before(kind, seed):
    circuit = GENERATORS[kind](np.random.default_rng(seed))
    text = to_text(circuit)
    assert text == reference_to_text(circuit)
    assert flatten(from_text(text)) == reference_from_text(text) == flatten(circuit)
    assert from_text(text) == circuit


#: An AND computation's block, lines 2-15, and the line of its #end after an empty block inside it.
AND_BLOCK = ("#input a 0 1\n#begin and_compute\nalloct 2\ncx 0 2\ncx 1 2\ncx 2 0\ncx 2 1\ntdg 0\ntdg 1\n"
             "t 2\ncx 2 0\ncx 2 1\nh 2\ns 2\n")
EMPTY_BLOCK = "#begin and_uncompute\n#end and_uncompute\n"


def test_an_empty_block_after_or_inside_a_block_reads_as_the_same_spans():
    # So only the marker lines tell which #begin the parser must name.
    after = reference_from_text(AND_BLOCK + "#end and_compute\n" + EMPTY_BLOCK)
    inside = reference_from_text(AND_BLOCK + EMPTY_BLOCK + "#end and_compute\n")
    assert after.instructions == inside.instructions and sorted(after.spans) == sorted(inside.spans)
    assert sorted(after.lines) == [(2, 15), (16, 17)] and sorted(inside.lines) == [(2, 17), (15, 16)]


@pytest.mark.parametrize("text, message", [
    (AND_BLOCK + "#end and_compute\n" + EMPTY_BLOCK,
     "MALFORMED_GADGET_SPAN at instruction 12: #begin and_uncompute on line 16 does not hold "
     "one instance of its template"),
    (AND_BLOCK + EMPTY_BLOCK + "#end and_compute\n",
     "MALFORMED_GADGET_SPAN at instruction 0: #begin and_compute on line 2 does not hold "
     "one instance of its template"),
    ("#input a 0\n#begin and_compute\nx 0\n#end and_compute\n#begin and_uncompute\n#end and_uncompute\n",
     "MALFORMED_GADGET_SPAN at instruction 0: #begin and_compute on line 2 does not hold "
     "one instance of its template"),
    ("#input a 0\n#begin and_uncompute\n#begin and_compute\n#begin and_compute\nx 0\n"
     "#end and_compute\nz 0\n#end and_compute\n#end and_uncompute\n",
     "MALFORMED_GADGET_SPAN at instruction 0: #begin and_uncompute on line 2 does not hold "
     "one instance of its template"),
    ("#input a 0\nx 0\n#begin and_compute\nx 0\n#begin and_uncompute\nz 0\n#end and_uncompute\n"
     "x 0\n#end and_compute\n",
     "MALFORMED_GADGET_SPAN at instruction 1: #begin and_compute on line 3 does not hold "
     "one instance of its template"),
], ids=["empty-after-a-block", "empty-inside-a-block", "two-in-a-row", "one-range", "nested"])
def test_nested_span_text_parses_and_both_parsers_refuse_it(text, message):
    # The old parser read these spans; the reference names the first #begin in the text.
    assert outcome(from_text, text) == reference_parse(text) == (CircuitError, None, message)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_formats_and_parses_as_before(name):
    text = CORPUS[name]
    circuit = from_text(text)
    assert flatten(circuit) == reference_from_text(text)
    assert to_text(circuit) == reference_to_text(circuit) == text


def block_lines(text: str) -> list[range]:
    """The indices of the instruction lines of each block in `text`, whose blocks are flat, in text order."""
    lines = text.splitlines()
    begins = [k for k, line in enumerate(lines) if line.startswith("#begin ")]
    ends = [k for k, line in enumerate(lines) if line.startswith("#end ")]
    return [range(b + 1, e) for b, e in zip(begins, ends)]


#: Corpus files with two or more blocks.
MULTI_BLOCK = sorted(name for name, text in CORPUS.items() if len(block_lines(text)) >= 2)
#: Qubit ids a block mutation may put in place of another: every corpus id,
#: and ids the parser reads otherwise than its spelling (``007``) or refuses.
IDS = sorted({tok for text in CORPUS.values() for tok in text.split() if _decimal(tok)}, key=int) + [
    "007", "٣", "-1", str(MAX_INDEX + 1)]
#: Each instruction line inside a block of the corpus: (file, line index).
BLOCK_LINES = [(name, k) for name, text in sorted(CORPUS.items())
               for block in block_lines(text) for k in block]
#: The ids of ``IDS`` that keep a line's syntax: ASCII digits within ``MAX_INDEX``.
BLOCK_IDS = [token for token in IDS if _decimal(token) and int(token) <= MAX_INDEX]

MUTATIONS = ("drop", "duplicate", "swap", "replace", "block-id")


@st.composite
def mutated_corpus_text(draw):
    """A corpus file with one token of one line dropped, duplicated, swapped or
    replaced, or with one qubit id inside a block spelled as another id.

    The last keeps the line's syntax, so the parser reaches the block's
    template check, which most one-token edits never do.
    """
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "block-id":
        name, k = draw(st.sampled_from(BLOCK_LINES))
        lines = CORPUS[name].splitlines()
        tokens = lines[k].split()
        i = draw(st.sampled_from([i for i, token in enumerate(tokens) if _decimal(token)]))
        tokens[i] = draw(st.sampled_from(BLOCK_IDS))
    else:
        lines = CORPUS[draw(st.sampled_from(sorted(CORPUS)))].splitlines()
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        i = draw(st.integers(0, len(tokens) - 1))
        if kind == "drop":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(TOKENS))
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n", k + 1


@st.composite
def two_mutated_blocks(draw):
    """A corpus file with one qubit id replaced in an instruction line of each of two of its blocks.

    Most such blocks still parse, as no instance of their template.
    """
    text = CORPUS[draw(st.sampled_from(MULTI_BLOCK))]
    blocks = block_lines(text)
    picked = draw(st.lists(st.sampled_from(range(len(blocks))), min_size=2, max_size=2, unique=True))
    lines = text.splitlines()
    changed = sorted(draw(st.sampled_from(blocks[b])) for b in picked)
    for k in changed:
        tokens = lines[k].split()
        i = draw(st.sampled_from([i for i, token in enumerate(tokens) if _decimal(token)]))
        tokens[i] = draw(st.sampled_from(IDS))
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n", [k + 1 for k in changed]


@settings(max_examples=1500, deadline=None)
@given(mutated_corpus_text())
def test_mutated_corpus_lines_parse_or_fail_as_before(mutated):
    text, line_no = mutated
    assert_same_parse(text, line_no)


@settings(max_examples=600, deadline=None)
@given(two_mutated_blocks())
def test_two_broken_blocks_are_refused_at_the_first(mutated):
    # Each block is broken on its own, so when both are malformed the parser
    # must name the one whose #begin comes first.
    text, changed_lines = mutated
    assert_same_parse(text, *changed_lines)


#: The corpus AND pair with qubit 0 renamed 7: the compute block is lines 3-16, the uncompute block 17-21.
AND_PAIR = "".join(" ".join("7" if token == "0" else token for token in line.split()) + "\n"
                   for line in CORPUS["and-gadget"].splitlines())
BLOCKS = range(3, 22)


def respelled(lines, old: str, new: str, text: str = AND_PAIR) -> str:
    """`text` with each token `old` on the (1-based) `lines` spelled `new`."""
    return "".join(" ".join(new if token == old else token for token in line.split()) + "\n"
                   if k in lines else line + "\n" for k, line in enumerate(text.splitlines(), start=1))


def spaced(lines, spacer: str, text: str = AND_PAIR) -> str:
    """`text` with its spaces on the (1-based) `lines` replaced by `spacer`."""
    return "".join((line.replace(" ", spacer) if k in lines else line) + "\n"
                   for k, line in enumerate(text.splitlines(), start=1))


#: An exact AND pair and copies in spellings its block pattern must refuse or
#: read as before: (text, changed lines, whether it still spells the pair).
EXACT_BLOCKS = {
    "exact": (AND_PAIR, (), True),
    "leading-zero-everywhere": (respelled(BLOCKS, "7", "007"), BLOCKS, True),
    "leading-zero-once": (respelled([5], "7", "007"), [5], True),
    "leading-zero-bit": (respelled(BLOCKS, "c0", "c000"), BLOCKS, True),
    "arabic-indic-once": (respelled([6], "1", "٣"), [6], False),
    "arabic-indic-everywhere": (respelled(BLOCKS, "2", "٣"), BLOCKS, False),
    "past-the-limit": (respelled(BLOCKS, "2", str(MAX_INDEX + 1)), BLOCKS, False),
    "past-the-limit-bit": (respelled(BLOCKS, "c0", f"c{MAX_INDEX + 1}"), BLOCKS, False),
    "trailing-space": (AND_PAIR.replace("cx 7 2\n", "cx 7 2 \n"), [5], True),
    "tabs-on-one-line": (spaced([5], "\t"), [5], True),
    "tabs-everywhere": (spaced(BLOCKS, "\t"), BLOCKS, True),
    "crlf": (AND_PAIR.replace("\n", "\r\n"), (), True),
    "no-final-newline": (AND_PAIR.rstrip("\n"), (), True),
}


@pytest.mark.parametrize("name", EXACT_BLOCKS)
def test_exact_and_blocks_parse_as_before(name):
    text, changed_lines, spells_the_pair = EXACT_BLOCKS[name]
    assert_same_parse(text, *changed_lines)
    if spells_the_pair:
        assert from_text(text) == from_text(AND_PAIR)
    else:
        with pytest.raises(TextFormatError):
            from_text(text)


def test_refused_ids_are_the_only_listed_difference():
    # the old parser read these; the new one names the token instead
    for token in ("1_0", "+3", "٣", "０", "-0", "-1_0", str(MAX_INDEX + 1), "1" * 4301, "-" + "1" * 4301):
        assert refused_id(token) and refused_id("c" + token)
    for token in ("0", "007", str(MAX_INDEX), "-3", "x", "->", "0.5", "c"):
        assert not refused_id(token)


#: Reuses each cached token in plain, conditioned, rz and mz lines, and reads
#: ``05`` beside ``5``.
CACHED_IDS = ("#input a 5 7\nh 5\ncx 5 7\nrz 0.5 5\nmz 05 -> c0\n? c0 : cx 5 7\n? c0 : z 05\n"
              "x 7\nalloc0 3\ncz 3 05\nrelease 3\n")


@pytest.mark.parametrize("refused", ["+5", "1_0", "٣", "-0", str(MAX_INDEX + 1), "1" * 4301],
                         ids=["plus", "underscore", "arabic-indic", "minus-zero", "past-the-limit", "long"])
@pytest.mark.parametrize("first", [True, False], ids=["refused-first", "cached-first"])
def test_cached_ids_parse_as_before(refused, first):
    circuit = from_text(CACHED_IDS)
    assert flatten(circuit) == reference_from_text(CACHED_IDS)
    assert [circuit.instructions[i].qubits for i in (3, 5, 8)] == [(5,), (5,), (3, 5)]  # 05 is 5
    # A refused token beside a cached one, on a plain and on a conditioned line.
    pair = f"{refused} 7" if first else f"7 {refused}"
    lines = CACHED_IDS.count("\n")
    for line in (f"cx {pair}", f"? c0 : cx {pair}"):
        text = CACHED_IDS + line + "\n"
        assert outcome(from_text, text)[:2] == (TextFormatError, lines + 1)
        assert_same_parse(text, lines + 1)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(GENERATORS) + sorted(CORPUS)), st.integers(0, 2**32 - 1),
       st.booleans(), st.data())
def test_validate_reports_the_same_first_violation(source, seed, duplicate, data):
    if source in GENERATORS:
        circuit = GENERATORS[source](np.random.default_rng(seed))
    else:
        circuit = from_text(CORPUS[source])
    assume(circuit.instructions)
    index = data.draw(st.integers(0, len(circuit.instructions) - 1))
    broken = edited(circuit, index, duplicate)
    assert flat_violation(broken) == reference_validate(broken)


@pytest.mark.parametrize("kind", sorted(CONSTRUCTIONS))
def test_records_agree_with_the_flat_references_on_every_kind(kind):
    # Each table kind at n = 1-8, with and without carry-out: the text round
    # trip is exact, the text, count and validate equal the references' on
    # the flat form, and so do the violations of copies with one instruction
    # dropped or duplicated.
    for n in range(1, 9):
        for carry_out in (False, True):
            circuit = CONSTRUCTIONS[kind].build(n, carry_out)
            flat = flatten(circuit)
            text = to_text(circuit)
            assert from_text(text) == circuit
            assert text == reference_to_text(flat)
            assert count(circuit) == reference_count(flat)
            assert validate(circuit) is reference_validate(flat) is None
            for index in range(0, len(circuit), max(1, len(circuit) // 5)):
                for duplicate in (False, True):
                    broken = edited(circuit, index, duplicate)
                    assert flat_violation(broken) == reference_validate(broken), (n, index, duplicate)

"""The one line-end rule: line_counter against the reference _line_at."""

from hypothesis import example, given
from hypothesis import strategies as st

from bibstack.diagnostics import line_counter

from fixtures import _line_at


@st.composite
def _text_and_offsets(draw):
    text = draw(st.text(st.sampled_from("a\r\n"), max_size=30))
    offsets = draw(st.lists(st.integers(0, len(text)), max_size=12))
    return text, sorted(offsets)


@given(_text_and_offsets())
# offsets between the CR and the LF of a CRLF, some repeated
@example(("\r\n", [1, 2]))
@example(("a\r\nb\rc\nd", [0, 1, 2, 2, 3, 4, 5, 6, 7, 8]))
@example(("a\r\n\r\n", [2, 2, 3, 4, 4, 5]))
def test_the_counter_gives_the_reference_line_at_nondecreasing_offsets(case):
    text, offsets = case
    line_at = line_counter(text)
    assert [line_at(pos) for pos in offsets] == [_line_at(text, pos) for pos in offsets]

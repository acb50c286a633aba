"""Tests for the output document buffer and the run log."""

import time

from bibstack.emitter import BblDocument, BlgLog


class TestBblDocument:
    def test_append_accumulates(self):
        doc = BblDocument()
        doc.append("a")
        doc.append("b")
        assert doc.pending == "ab"

    def test_append_empty_is_noop(self):
        doc = BblDocument()
        doc.append("x")
        doc.append("")
        assert doc.pending == "x"

    def test_flush_line_moves_pending(self):
        doc = BblDocument()
        doc.append("abc")
        doc.flush_line()
        assert doc.lines == ["abc"] and doc.pending == ""

    def test_flush_empty_buffer_emits_blank_line(self):
        doc = BblDocument()
        doc.flush_line()
        doc.flush_line()
        assert doc.lines == ["", ""]

    def test_finalize_flushes_residue(self):
        doc = BblDocument()
        doc.append("x")
        doc.flush_line()
        doc.append("y")
        assert doc.finalize() == "x\ny\n"

    def test_finalize_empty_document(self):
        assert BblDocument().finalize() == ""

    def test_finalize_round_trips_lines(self):
        doc = BblDocument()
        for line in ["a", "", "b"]:
            doc.append(line)
            doc.flush_line()
        doc.append("c")
        text = doc.finalize()
        assert text.split("\n")[:-1] == ["a", "", "b", "c"]
        assert text.endswith("\n")

    def test_long_line_is_linear(self):
        # 400k appends to one line: a buffer that copies the line on each append is quadratic
        doc = BblDocument()
        start = time.perf_counter()
        for _ in range(400_000):
            doc.append("ab")
        text = doc.finalize()
        assert time.perf_counter() - start < 2.0
        assert text == "ab" * 400_000 + "\n"


class TestBlgLog:
    def test_record_order_is_emission_order(self):
        log = BlgLog()
        log.warning("w1")
        log.error("e1")
        log.warning("w2")
        assert log.records == [("warning", "w1"), ("error", "e1"), ("warning", "w2")]
        assert log.warnings() == ["w1", "w2"]
        assert log.errors() == ["e1"]

    def test_render_prefixes_warnings_only(self):
        log = BlgLog()
        log.warning("something odd")
        log.error("something broke")
        assert log.render() == "Warning--something odd\nsomething broke\n"

    def test_render_empty(self):
        assert BlgLog().render() == ""

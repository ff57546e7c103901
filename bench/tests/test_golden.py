from pathlib import Path

from figure_round import UNCHECKED_COLUMNS, blank_column, golden_diff

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def table(experiment_id):
    return (RESULTS / f"{experiment_id}.txt").read_bytes().decode("utf-8")


def replace_cell(text, line_no, old, new):
    lines = text.split("\n")
    assert old in lines[line_no]
    lines[line_no] = lines[line_no].replace(old, new, 1)
    return "\n".join(lines)


def test_identical_text_passes():
    text = table("t2")
    assert golden_diff(text, text) is None


def test_one_character_diff_is_caught():
    text = table("t2")
    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
    changed = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
    message = golden_diff(changed, text)
    assert message is not None and message.startswith("line ")


def test_missing_trailing_newline_is_caught():
    assert golden_diff("a\nb", "a\nb\n") is not None
    assert "length" in golden_diff("a\n", "a\nb\n")


def test_unchecked_column_is_skipped_and_only_it():
    # Line 3 of F20 is gzip: ... IPC (OoO) 1.73, IPC (in-order) 1.19.
    text = table("f20")
    header = UNCHECKED_COLUMNS["f20"]
    in_order = replace_cell(text, 3, "1.19", "1.18")
    assert golden_diff(in_order, text) is not None
    assert golden_diff(in_order, text, header) is None
    ooo = replace_cell(text, 3, "1.73", "1.74")
    assert golden_diff(ooo, text, header).startswith("line 4")
    # The header row is still compared.
    renamed = replace_cell(text, 1, "IPC (in-order)", "IPC (in order)")
    assert golden_diff(renamed, text, header) is not None


def test_blank_column_keeps_everything_else():
    text = table("f20")
    blanked = blank_column(text, UNCHECKED_COLUMNS["f20"])
    assert len(blanked) == len(text)
    assert "1.19" in text and "1.19" not in blanked
    assert blanked.split("\n")[:3] == text.split("\n")[:3]
    assert blank_column(text, "no such column") == text

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "densemble"

# The ceiling on `wc -l src/densemble/*.py`.  A change that needs more lines
# raises it and says why in CHANGES.md.
LINE_BUDGET = 2_340


def test_src_within_line_budget():
    # wc -l counts newline characters
    count = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert count <= LINE_BUDGET, (
        f"src/densemble/*.py has {count} lines, over the ceiling of {LINE_BUDGET}")

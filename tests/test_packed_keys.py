"""Packed-key bit tricks stay inside regcore.linalg: every other module reads
keys through linalg helpers (`key_degree`, `key_slot`, `key_exponents`,
`pack_key`, ...), so the key layout can change in one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regcore"
LAYOUT = {"_SLOT_SHIFT", "_DEG_SHIFT", "_MASK"}
SHIFTS = (ast.LShift, ast.RShift)


def layout_uses(source: str) -> list[str]:
    """The layout constants named, and the shifts by a literal, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) \
                and names & LAYOUT:
            found.append(f"line {node.lineno}: {sorted(names & LAYOUT)[0]}")
        shift = (node.op if isinstance(node, (ast.BinOp, ast.AugAssign))
                 else None)
        operand = node.right if isinstance(node, ast.BinOp) else \
            getattr(node, "value", None)
        if isinstance(shift, SHIFTS) and isinstance(operand, ast.Constant):
            found.append(f"line {node.lineno}: shift by {operand.value}")
    return found


def test_only_linalg_uses_the_key_layout():
    modules = sorted(SRC.glob("*.py"))
    assert "linalg.py" in [path.name for path in modules]
    offenders = {path.name: layout_uses(path.read_text(encoding="utf-8"))
                 for path in modules if path.name != "linalg.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_the_guard_sees_what_it_forbids():
    assert layout_uses("from .linalg import _MASK") != []
    assert layout_uses("slot = (key >> 14) & 16383") != []
    assert layout_uses("key <<= 28") != []
    assert layout_uses("s = linalg._SLOT_SHIFT") != []
    assert layout_uses("slot = key_slot(key); n = 1 << bits") == []

"""JSON wire formats for ideals and modules, and canonical text forms.

Ideals: {"field": "Q", "gens": ["x^3", "x*y", "y^2"]}.
Modules: {"field": "Q", "rank": 2, "generators": [["x^2", "0"], ...],
          "presentation": [["y", "0"], ...]}   (generators are columns,
presentation rows; both optional keys validated).  JSON is the one
canonical format; text output is advisory and never parsed back.
"""

from __future__ import annotations

from .config import DEFAULT, EngineConfig
from .errors import MathError, ParseError
from .field import Field, field_from_name
from .modcore import ModuleRep, fitting
from .poly import Poly, parse_poly
from .staircase import MonomialIdeal, colength, power_certificate
from .trunc import TruncatedIdeal


def _require_keys(obj: dict, allowed: set[str], what: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown {what} fields: {sorted(unknown)}")


# informational keys the toolkit itself emits next to field/gens
_IDEAL_EXTRAS = {"n0", "colength", "exact", "method", "certificate"}


def ideal_from_obj(obj) -> tuple[Field, list[Poly]]:
    _require_keys(obj, {"field", "gens"} | _IDEAL_EXTRAS, "ideal")
    if "gens" not in obj or "field" not in obj:
        raise ParseError("ideal needs 'field' and 'gens'")
    fld = field_from_name(obj["field"])
    if not isinstance(obj["gens"], list) or not obj["gens"]:
        raise ParseError("'gens' must be a nonempty list of strings")
    gens = [parse_poly(s, fld) for s in obj["gens"]]
    return fld, gens


def ideal_text(x) -> str:
    """Canonical display: "(x^3, x*y, y^2)", with "R" for the unit ideal."""
    if isinstance(x, TruncatedIdeal):
        mono = x.to_monomial()
        if mono is None:
            return "(" + ", ".join(str(g) for g in x.gens) + ")"
        x = mono
    if isinstance(x, MonomialIdeal):
        return "R" if x.is_unit else str(x)
    raise TypeError(f"not an ideal: {x!r}")


def ideal_to_obj(x, fld: Field | None = None) -> dict:
    """The JSON form of a TruncatedIdeal, or of a MonomialIdeal over `fld`,
    whose n0 and colength the staircase reads with nothing materialized."""
    if isinstance(x, MonomialIdeal):
        return {"field": fld.name, "gens": [str(g) for g in x.gens],
                "n0": power_certificate(x), "colength": colength(x)}
    mono = x.to_monomial()
    gens = x.gens if mono is None else mono.gens
    return {"field": x.field.name, "gens": [str(g) for g in gens],
            "n0": x.n0, "colength": x.colength()}


def module_from_obj(obj, config: EngineConfig = DEFAULT) -> ModuleRep:
    _require_keys(obj, {"field", "rank", "generators", "presentation"},
                  "module")
    for key in ("field", "rank", "generators"):
        if key not in obj:
            raise ParseError(f"module needs '{key}'")
    fld = field_from_name(obj["field"])
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ParseError("'rank' must be a positive integer")
    gens, pres = obj["generators"], obj.get("presentation")
    if not isinstance(gens, list) or not all(
            isinstance(col, list) and len(col) == rank for col in gens):
        raise ParseError("each generator must list one entry per row")
    cols = [tuple(parse_poly(s, fld) for s in col) for col in gens]
    if pres is not None:
        if not isinstance(pres, list) or not all(
                isinstance(row, list) for row in pres):
            raise ParseError("'presentation' must be a list of rows")
        pres = [[parse_poly(s, fld) for s in row] for row in pres]
    try:
        module = ModuleRep(fld, rank, cols, presentation=pres, config=config)
    except MathError as exc:
        raise ParseError(f"module rejected: {exc}") from exc
    if pres is not None:
        # user-supplied presentation: maximal minors must regenerate I(M)
        n = module.ngens
        fit = fitting(module.presentation, n - rank, fld, config=config)
        if not fit.equals(module.minor_ideal()):
            raise ParseError(
                "presentation rejected: maximal minors do not regenerate "
                "the module's minor ideal")
    return module


def module_to_obj(module: ModuleRep) -> dict:
    obj = {
        "field": module.field.name,
        "rank": module.rank,
        "generators": [[str(f) for f in col] for col in module.columns],
    }
    if module.presentation is not None:
        obj["presentation"] = [[str(f) for f in row]
                               for row in module.presentation]
    return obj


def module_text(module: ModuleRep) -> str:
    cols = ["(" + ", ".join(str(f) for f in col) + ")"
            for col in module.columns]
    return "[" + "; ".join(cols) + "]"


def matrix_from_obj(obj) -> tuple[Field, list[list[Poly]]]:
    _require_keys(obj, {"field", "matrix"}, "matrix")
    if "field" not in obj or "matrix" not in obj:
        raise ParseError("matrix needs 'field' and 'matrix'")
    fld = field_from_name(obj["field"])
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("'matrix' must be a nonempty list of rows")
    if not all(isinstance(row, list) for row in rows):
        raise ParseError("matrix rows must be lists")
    if len({len(row) for row in rows}) != 1:
        raise ParseError("matrix rows have inconsistent lengths")
    return fld, [[parse_poly(s, fld) for s in row] for row in rows]

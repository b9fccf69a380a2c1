"""Command-line front end.

Exit codes: 0 success, 1 mathematical error (e.g. not m-primary),
2 input/parse error.  Diagnostics go to stderr; results go to stdout or
--out as JSON (or advisory text with --format text).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import DEFAULT, EngineConfig
from .errors import (MathError, NotMPrimaryError, ParseError,
                     TruncationCeilingError)
from .modcore import (ModuleRep, buchsbaum_rim, core_module, fitting,
                      minimal_reduction_module)
from .poly import Monomial, Poly
from .reduction import (GenericSampler, adjoint_ideal, check_closed,
                        hilbert_samuel, integral_closure_ideal,
                        minimal_reduction, term_ideal)
from .serialize import (ideal_from_obj, ideal_text, ideal_to_obj,
                        matrix_from_obj, module_from_obj, module_text,
                        module_to_obj)
from .staircase import (MonomialIdeal, adjoint, ascii_staircase,
                        integral_closure, multiplicity, power_certificate)
from .trunc import TruncatedIdeal
from .verify import FAMILIES, render_report, run_suite


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _write(args, out: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _emit(args, payload: dict, text: str | None = None):
    if args.format == "text" and text is not None:
        _write(args, text if text.endswith("\n") else text + "\n")
    else:
        _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _ideal_with_art(ideal) -> str:
    """Text of a TruncatedIdeal or MonomialIdeal, with any staircase art."""
    mono = ideal if isinstance(ideal, MonomialIdeal) else ideal.to_monomial()
    text = ideal_text(ideal)
    if mono is not None and not mono.is_unit:
        return text + "\n" + ascii_staircase(mono)
    return text


def _ideal(fld, gens, config, engine=False):
    """The input ideal: the MonomialIdeal of term generators, which the
    staircase answers at any size, or, with `engine` or for other
    generators, the materialized TruncatedIdeal; a failure to materialize
    is told apart from the truncation ceiling exactly for term generators,
    and first for a variable that divides every generator."""
    mono = term_ideal(gens)
    if mono is not None and not (mono.is_unit or mono.is_m_primary):
        raise NotMPrimaryError("ideal is not m-primary")
    if mono is None and (content := divide_monomial_content(gens)[0]).degree:
        raise NotMPrimaryError(f"ideal is not m-primary: {'xy'[not content.a]}"
                               " divides every generator")
    if mono is not None and not engine:
        return mono
    ceiling = config.truncation_ceiling
    try:
        return TruncatedIdeal.materialize(gens, fld, config=config)
    except NotMPrimaryError as exc:
        if mono is None:
            raise NotMPrimaryError(
                f"ideal is not m-primary, or its Nakayama certificate lies "
                f"above the truncation ceiling {ceiling}: raise --ceiling "
                f"to tell") from exc
        n0 = power_certificate(mono)
        raise TruncationCeilingError(
            f"ideal is m-primary, but its Nakayama certificate n0 = {n0} "
            f"needs truncation order {n0 + 1}, above the truncation "
            f"ceiling {ceiling}: raise --ceiling") from exc


def _cmd_closure(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    ideal = _ideal(fld, gens, config)
    if isinstance(ideal, MonomialIdeal):  # answered by the staircase
        closure, exact = integral_closure(ideal), True
    else:
        result = integral_closure_ideal(ideal, nmax=args.nmax)
        closure, exact = result.ideal, result.exact
    payload = ideal_to_obj(closure, fld)
    payload["exact"] = exact
    _emit(args, payload, _ideal_with_art(closure)
          + ("" if exact else "\n(lower bound: candidate search)"))
    return 0


def divide_monomial_content(gens: list[Poly]):
    """(c, [g / c]) for the largest monomial c dividing every term of every
    generator."""
    a = min((m.a for g in gens for m in g.terms), default=0)
    b = min((m.b for g in gens for m in g.terms), default=0)
    return Monomial(a, b), [g.shift(-a, -b) for g in gens]


def _adjoint(method, fld, gens, ideal, sampler, config):
    """adj(I) by `method` for the ideal I that `_ideal` read from `gens`: a
    MonomialIdeal, or the colon's own TruncatedIdeal when that is not
    monomial.  The colon refuses term input that is not integrally closed
    before anything is truncated."""
    if method == "howald":
        mono = ideal if isinstance(ideal, MonomialIdeal) else \
            ideal.to_monomial()
        if mono is None:
            raise MathError("the lattice method, run by the default --method "
                            "both, needs a monomial ideal: use --method colon")
        return adjoint(mono)
    if isinstance(ideal, MonomialIdeal):
        check_closed([ideal])
        ideal = _ideal(fld, gens, config, engine=True)
    out = adjoint_ideal(ideal, sampler)
    mono = out.to_monomial()
    return out if mono is None else mono


def _shown(adj, content, fld) -> tuple[dict, str]:
    """JSON and text of adj(c*I) = c*adj(I) for the monomial content c: an
    m-primary answer (c = 1) with its n0 and colength, else its generators."""
    if content == Monomial(0, 0):
        return ideal_to_obj(adj, fld), ideal_text(adj)
    if isinstance(adj, MonomialIdeal):
        gens = [str(m) for m in adj.shift(content).gens]
    else:
        gens = [str(g.shift(content.a, content.b)) for g in adj.gens]
    return {"field": fld.name, "gens": gens}, "(" + ", ".join(gens) + ")"


def _cmd_adjoint(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    content, reduced = divide_monomial_content(gens)
    ideal = _ideal(fld, reduced, config)
    sampler = GenericSampler(args.seed)
    methods = ("howald", "colon") if args.method == "both" else (args.method,)
    answers = {method: _adjoint(method, fld, reduced, ideal, sampler, config)
               for method in methods}
    shown = {method: _shown(adj, content, fld)
             for method, adj in answers.items()}
    if args.method != "both":
        payload, text = shown[args.method]
        payload["method"] = args.method
        _emit(args, payload, text)
        return 0
    agree = answers["howald"] == answers["colon"]
    _emit(args, {"howald": shown["howald"][0], "colon": shown["colon"][0],
                 "agreement": agree},
          f"howald: {shown['howald'][1]}\ncolon:  {shown['colon'][1]}\n"
          f"agreement: {agree}")
    if not agree:
        raise MathError("adjoint methods disagree")
    return 0


def _cmd_core(args, config):
    sampler = GenericSampler(args.seed)
    if args.module:
        module = module_from_obj(_load_json(args.module), config=config)
        core = core_module(module, sampler)
        _emit(args, module_to_obj(core), module_text(core))
        return 0
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    ideal = _ideal(fld, gens, config)
    if ideal.is_unit:
        raise MathError("ideal is not m-primary")
    if isinstance(ideal, MonomialIdeal):  # the staircase answers
        check_closed([ideal])  # core = adj(I)*I needs I closed
        out = adjoint(ideal).product(ideal)
    else:
        core = core_module(ModuleRep.from_rows(
            fld, 1, ideal.rows, ideal.den, config), sampler)
        gens = dict.fromkeys(col[0] for col in core.columns)  # each once
        out = TruncatedIdeal.materialize(list(gens), fld, config=config)
    _emit(args, ideal_to_obj(out, fld), _ideal_with_art(out))
    return 0


def _cmd_fitting(args, config):
    fld, matrix = matrix_from_obj(_load_json(args.presentation))
    ideal = fitting(matrix, args.k, fld, config=config)
    _emit(args, ideal_to_obj(ideal), _ideal_with_art(ideal))
    return 0


def _cmd_mult(args, config):
    ideal = _ideal(*ideal_from_obj(_load_json(args.ideal)), config)
    if isinstance(ideal, MonomialIdeal):
        value = multiplicity(ideal)
    else:
        value = hilbert_samuel(ideal, GenericSampler(args.seed))
    _emit(args, {"multiplicity": value}, str(value))
    return 0


def _cmd_br(args, config):
    module = module_from_obj(_load_json(args.module), config=config)
    value = buchsbaum_rim(module)
    _emit(args, {"multiplicity": value}, str(value))
    return 0


def _cmd_reduction(args, config):
    sampler = GenericSampler(args.seed)
    if args.module:
        module = module_from_obj(_load_json(args.module), config=config)
        red, cert = minimal_reduction_module(module, sampler)
        payload = module_to_obj(red)
        payload["certificate"] = {"symmetric_degree": cert.degree,
                                  "trivial": cert.trivial}
        _emit(args, payload, module_text(red))
        return 0
    ideal = _ideal(*ideal_from_obj(_load_json(args.ideal)), config,
                   engine=True)
    j, cert = minimal_reduction(ideal, sampler)
    payload = {
        "field": ideal.field.name,
        "gens": [str(g) for g in j.gens],
        "certificate": {"exponent": cert.exponent,
                        "colength": cert.colength},
    }
    _emit(args, payload, ideal_text(j))
    return 0


def _cmd_verify(args, config):
    reports = run_suite(args.family, count=args.count, seed=args.seed,
                        field=args.field, config=config)
    _write(args, render_report(reports, args.format))
    failed = sum(1 for r in reports if not r.verdict)
    if failed:
        print(f"verification failed: {failed} of {len(reports)} checks",
              file=sys.stderr)
        return 1
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcore",
        description="Exact integral closures, adjoints, multiplicities and "
                    "cores over k[x,y] localized at the origin.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=False, module=False, presentation=False,
               seeded=False):
        # an ideal or a module, exactly one when a command takes either
        inputs = (p.add_mutually_exclusive_group(required=True)
                  if ideal and module else p)
        if ideal:
            inputs.add_argument("--ideal", required=not module,
                                help="ideal JSON file")
        if module:
            inputs.add_argument("--module", required=not ideal,
                                help="module JSON file")
        if presentation:
            p.add_argument("--presentation", required=True,
                           help="matrix JSON file")
        if seeded:
            p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--ceiling", type=_positive_int,
                       default=DEFAULT.truncation_ceiling,
                       help="truncation ceiling")

    p = sub.add_parser("closure", help="integral closure of an ideal")
    common(p, ideal=True)
    p.add_argument("--nmax", type=_positive_int, default=None)

    p = sub.add_parser("adjoint", help="adjoint of an ideal")
    common(p, ideal=True, seeded=True)
    p.add_argument("--method", choices=("howald", "colon", "both"),
                   default="both")

    p = sub.add_parser("core", help="core of an ideal or module")
    common(p, ideal=True, module=True, seeded=True)

    p = sub.add_parser("fitting", help="ideal of k x k minors of a matrix")
    common(p, presentation=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("mult", help="Hilbert-Samuel multiplicity")
    common(p, ideal=True, seeded=True)

    p = sub.add_parser("br", help="Buchsbaum-Rim multiplicity of a module")
    common(p, module=True)

    p = sub.add_parser("reduction", help="seeded minimal reduction")
    common(p, ideal=True, module=True, seeded=True)

    p = sub.add_parser("verify", help="run verification campaigns")
    common(p, seeded=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--family", choices=FAMILIES, default="all")
    p.add_argument("--count", type=_positive_int, default=50)

    return parser


_COMMANDS = {
    "closure": _cmd_closure,
    "adjoint": _cmd_adjoint,
    "core": _cmd_core,
    "fitting": _cmd_fitting,
    "mult": _cmd_mult,
    "br": _cmd_br,
    "reduction": _cmd_reduction,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = EngineConfig(truncation_ceiling=args.ceiling)
    try:
        return _COMMANDS[args.command](args, config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

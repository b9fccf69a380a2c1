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
from .reduction import (GenericSampler, adjoint_of_generators, check_closed,
                        divide_monomial_content, hilbert_samuel,
                        integral_closure_ideal, minimal_reduction, term_ideal)
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


def _gens_payload(fld, gens, config) -> dict:
    """Ideal payload with n0/colength when the ideal is m-primary, read on
    the staircase for term generators, at any size."""
    mono = term_ideal(gens)
    if mono is not None and (mono.is_unit or mono.is_m_primary):
        return ideal_to_obj(mono, fld)
    try:
        return ideal_to_obj(TruncatedIdeal.materialize(list(gens), fld,
                                                       config=config))
    except MathError:
        return {"field": fld.name, "gens": [str(g) for g in gens]}


def _ideal_with_art(ideal) -> str:
    """Text of a TruncatedIdeal or MonomialIdeal, with any staircase art."""
    mono = ideal if isinstance(ideal, MonomialIdeal) else ideal.to_monomial()
    text = ideal_text(ideal)
    if mono is not None and not mono.is_unit:
        return text + "\n" + ascii_staircase(mono)
    return text


def _staircase_input(gens) -> MonomialIdeal | None:
    """The monomial ideal of term generators, which the staircase answers
    exactly with no truncation; None for other generators."""
    mono = term_ideal(gens)
    if mono is not None and not (mono.is_unit or mono.is_m_primary):
        raise NotMPrimaryError("ideal is not m-primary")
    return mono


def _ceiling_diagnosis(gens, exc: NotMPrimaryError, config) -> MathError:
    """Why `gens` have no Nakayama certificate below the ceiling: exact for
    monomial generators, which are m-primary or not by their staircase."""
    ceiling = config.truncation_ceiling
    mono = term_ideal(gens)
    if mono is None:
        return NotMPrimaryError(
            f"ideal is not m-primary, or its Nakayama certificate lies "
            f"above the truncation ceiling {ceiling}: raise --ceiling "
            f"to tell")
    if not mono.is_m_primary:
        return NotMPrimaryError(f"ideal is not m-primary ({exc})")
    n0 = power_certificate(mono)
    return TruncationCeilingError(
        f"ideal is m-primary, but its Nakayama certificate n0 = {n0} "
        f"needs truncation order {n0 + 1}, above the truncation "
        f"ceiling {ceiling}: raise --ceiling")


def _materialize(fld, gens, config) -> TruncatedIdeal:
    try:
        return TruncatedIdeal.materialize(gens, fld, config=config)
    except NotMPrimaryError as exc:
        raise _ceiling_diagnosis(gens, exc, config) from exc


def _cmd_closure(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    mono = _staircase_input(gens)
    if mono is None:
        result = integral_closure_ideal(_materialize(fld, gens, config),
                                        nmax=args.nmax)
        closure, exact = result.ideal, result.exact
    else:  # answered by the staircase, at any size
        closure, exact = integral_closure(mono), True
    payload = ideal_to_obj(closure, fld)
    payload["exact"] = exact
    _emit(args, payload, _ideal_with_art(closure)
          + ("" if exact else "\n(lower bound: candidate search)"))
    return 0


def _cmd_adjoint(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    try:
        return _adjoint(args, fld, gens, config)
    except NotMPrimaryError as exc:  # adjoints divide out x^a*y^b first
        _, reduced = divide_monomial_content(gens, fld)
        raise _ceiling_diagnosis(reduced, exc, config) from exc


def _adjoint(args, fld, gens, config):
    sampler = GenericSampler(args.seed)
    if args.method == "both":
        howald_gens, howald_mono = adjoint_of_generators(
            gens, fld, "howald", sampler, config=config)
        colon_gens, colon_mono = adjoint_of_generators(
            gens, fld, "colon", sampler, config=config)
        agree = (howald_mono is not None and howald_mono == colon_mono)
        payload = {"howald": _gens_payload(fld, howald_gens, config),
                   "colon": _gens_payload(fld, colon_gens, config),
                   "agreement": agree}
        text = (f"howald: {ideal_text(howald_mono) if howald_mono else howald_gens}\n"
                f"colon:  {ideal_text(colon_mono) if colon_mono else colon_gens}\n"
                f"agreement: {agree}")
        _emit(args, payload, text)
        if not agree:
            raise MathError("adjoint methods disagree")
        return 0
    out_gens, out_mono = adjoint_of_generators(gens, fld, args.method,
                                               sampler, config=config)
    payload = _gens_payload(fld, out_gens, config)
    payload["method"] = args.method
    text = ideal_text(out_mono) if out_mono is not None else \
        "(" + ", ".join(str(g) for g in out_gens) + ")"
    _emit(args, payload, text)
    return 0


def _cmd_core(args, config):
    if args.module:
        module = module_from_obj(_load_json(args.module), config=config)
    else:
        fld, gens = ideal_from_obj(_load_json(args.ideal))
        mono = _staircase_input(gens)
        if mono is not None and not mono.is_unit:  # the staircase answers
            check_closed([mono])  # core = adj(I)*I needs I closed
            out = adjoint(mono).product(mono)
            _emit(args, ideal_to_obj(out, fld), _ideal_with_art(out))
            return 0
        ideal = _materialize(fld, gens, config)
        if ideal.is_unit:
            raise MathError("ideal is not m-primary")
        module = ModuleRep.from_ideal(ideal)
    core = core_module(module, GenericSampler(args.seed))
    if args.module:
        _emit(args, module_to_obj(core), module_text(core))
        return 0
    gens = [col[0] for col in core.columns]
    out = TruncatedIdeal.materialize(gens, ideal.field, config=config)
    _emit(args, ideal_to_obj(out), _ideal_with_art(out))
    return 0


def _cmd_fitting(args, config):
    fld, matrix = matrix_from_obj(_load_json(args.presentation))
    ideal = fitting(matrix, args.k, fld, config=config)
    _emit(args, ideal_to_obj(ideal), _ideal_with_art(ideal))
    return 0


def _cmd_mult(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    mono = _staircase_input(gens)
    if mono is None:
        value = hilbert_samuel(_materialize(fld, gens, config),
                               GenericSampler(args.seed))
    else:
        value = multiplicity(mono)
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
    ideal = _materialize(*ideal_from_obj(_load_json(args.ideal)), config)
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

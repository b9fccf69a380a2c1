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
from .reduction import (GenericSampler, NotUpToBound, adjoint_of_generators,
                        hilbert_samuel, integral_closure_ideal,
                        is_reduction, minimal_reduction)
from .serialize import (ideal_from_obj, ideal_text, ideal_to_obj,
                        matrix_from_obj, module_from_obj, module_text,
                        module_to_obj)
from .staircase import (MonomialIdeal, ascii_staircase, integral_closure,
                        power_certificate)
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


def _emit(args, payload: dict, text: str | None = None):
    if args.format == "text" and text is not None:
        out = text if text.endswith("\n") else text + "\n"
    else:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _gens_payload(fld, gens, config) -> dict:
    """Ideal payload with n0/colength when the ideal is m-primary."""
    try:
        return ideal_to_obj(TruncatedIdeal.materialize(list(gens), fld,
                                                       config=config))
    except MathError:
        return {"field": fld.name, "gens": [str(g) for g in gens]}


def _ideal_with_art(ideal: TruncatedIdeal) -> str:
    mono = ideal.to_monomial()
    text = ideal_text(ideal)
    if mono is not None and not mono.is_unit:
        return text + "\n" + ascii_staircase(mono)
    return text


def _load_ideal(args, config) -> TruncatedIdeal:
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    try:
        return TruncatedIdeal.materialize(gens, fld, config=config)
    except NotMPrimaryError as exc:
        ceiling = config.truncation_ceiling
        gens = [g for g in gens if not g.is_zero]
        if not all(g.is_term for g in gens):
            raise NotMPrimaryError(
                f"ideal is not m-primary, or its Nakayama certificate lies "
                f"above the truncation ceiling {ceiling}: raise --ceiling "
                f"to tell") from exc
        mono = MonomialIdeal.from_exponents([next(iter(g.terms)) for g in gens])
        if not mono.is_m_primary:
            raise NotMPrimaryError(f"ideal is not m-primary ({exc})") from exc
        n0 = power_certificate(mono)
        raise TruncationCeilingError(
            f"ideal is m-primary, but its Nakayama certificate n0 = {n0} "
            f"needs truncation order {n0 + 1}, above the truncation "
            f"ceiling {ceiling}: raise --ceiling") from exc


def _cmd_closure(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    ideal = TruncatedIdeal.materialize(gens, fld, config=config)
    result = integral_closure_ideal(ideal, nmax=args.nmax, config=config)
    payload = ideal_to_obj(result.ideal)
    payload["exact"] = result.exact
    _emit(args, payload, _ideal_with_art(result.ideal)
          + ("" if result.exact else "\n(lower bound: candidate search)"))
    return 0


def _cmd_adjoint(args, config):
    fld, gens = ideal_from_obj(_load_json(args.ideal))
    sampler = GenericSampler(args.seed, config)
    if args.method == "both":
        howald_gens, howald_mono = adjoint_of_generators(
            gens, fld, "howald", sampler, config=config)
        colon_gens, colon_mono = adjoint_of_generators(
            gens, fld, "colon", sampler, config=config)
        agree = (howald_mono is not None and howald_mono == colon_mono)
        payload = {
            "howald": _gens_payload(fld, howald_gens, config),
            "colon": _gens_payload(fld, colon_gens, config),
            "agreement": agree,
        }
        text = (f"howald: {ideal_text(howald_mono) if howald_mono else howald_gens}\n"
                f"colon:  {ideal_text(colon_mono) if colon_mono else colon_gens}\n"
                f"agreement: {agree}")
        if not agree:
            _emit(args, payload, text)
            raise MathError("adjoint methods disagree")
        _emit(args, payload, text)
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
    sampler = GenericSampler(args.seed, config)
    if args.module:
        module = module_from_obj(_load_json(args.module), config=config)
        core = core_module(module, sampler, config=config)
        _emit(args, module_to_obj(core), module_text(core))
        return 0
    ideal = _load_ideal(args, config)
    if ideal.is_unit:
        raise MathError("ideal is not m-primary")
    mono = ideal.to_monomial()
    closure = None if mono is None else integral_closure(mono)
    if closure != mono:
        raise MathError(
            "core --ideal needs an integrally closed ideal (core(I) = "
            "adj(I)*I holds for integrally closed I); the integral closure "
            f"of this monomial ideal is {closure}")
    core = core_module(ModuleRep.from_ideal(ideal, config=config),
                       sampler, config=config)
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
    ideal = _load_ideal(args, config)
    if ideal.is_unit:
        _emit(args, {"multiplicity": 0}, "0")
        return 0
    mono = ideal.to_monomial()
    if mono is not None and not mono.is_m_primary:
        raise MathError("ideal is not m-primary")
    value = hilbert_samuel(ideal, GenericSampler(args.seed, config),
                           config=config)
    _emit(args, {"multiplicity": value}, str(value))
    return 0


def _cmd_br(args, config):
    module = module_from_obj(_load_json(args.module), config=config)
    value = buchsbaum_rim(module, config=config)
    _emit(args, {"multiplicity": value}, str(value))
    return 0


def _cmd_reduction(args, config):
    sampler = GenericSampler(args.seed, config)
    if args.module:
        module = module_from_obj(_load_json(args.module), config=config)
        red, cert = minimal_reduction_module(module, sampler, config=config)
        payload = module_to_obj(red)
        payload["certificate"] = {"symmetric_degree": cert.degree,
                                  "trivial": cert.trivial}
        _emit(args, payload, module_text(red))
        return 0
    ideal = _load_ideal(args, config)
    j, cert = minimal_reduction(ideal, sampler, config=config)
    outcome = is_reduction(j, ideal, nmax=cert.exponent, config=config)
    if isinstance(outcome, NotUpToBound):
        raise MathError("reduction certificate failed to re-verify")
    payload = {
        "field": ideal.field.name,
        "gens": [str(g) for g in j.gens],
        "certificate": {"exponent": cert.exponent,
                        "colength": cert.lhs_colength},
    }
    _emit(args, payload, ideal_text(j))
    return 0


def _cmd_verify(args, config):
    reports = run_suite(args.family, count=args.count, seed=args.seed,
                        field=args.field, config=config)
    rendered = render_report(reports, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    failed = sum(1 for r in reports if not r.verdict)
    if failed:
        print(f"verification failed: {failed} of {len(reports)} checks",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcore",
        description="Exact integral closures, adjoints, multiplicities and "
                    "cores over k[x,y] localized at the origin.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=False, module=False, presentation=False,
               seeded=False):
        if ideal:
            p.add_argument("--ideal", help="ideal JSON file")
        if module:
            p.add_argument("--module", help="module JSON file")
        if presentation:
            p.add_argument("--presentation", required=True,
                           help="matrix JSON file")
        if seeded:
            p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--ceiling", type=int, default=None,
                       help="truncation ceiling override")

    p = sub.add_parser("closure", help="integral closure of an ideal")
    common(p, ideal=True)
    p.add_argument("--nmax", type=int, default=None)

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
    p.add_argument("--count", type=int, default=50)

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
    config = DEFAULT
    if getattr(args, "ceiling", None):
        config = EngineConfig(truncation_ceiling=args.ceiling)
    needs_input = args.command in ("closure", "adjoint", "mult")
    if needs_input and not args.ideal:
        print("error: --ideal is required", file=sys.stderr)
        return 2
    if args.command in ("core", "reduction") and \
            not (args.ideal or args.module):
        print("error: --ideal or --module is required", file=sys.stderr)
        return 2
    if args.command == "br" and not args.module:
        print("error: --module is required", file=sys.stderr)
        return 2
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

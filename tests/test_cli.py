import json
import re

import pytest

from regcore import cli, reduction
from regcore.cli import main
from regcore.serialize import ideal_from_obj, module_from_obj, module_to_obj
from regcore.field import QQ, PrimeField
from regcore.modcore import ModuleRep
from regcore.poly import parse_poly
from regcore.staircase import MonomialIdeal, presentation_matrix
from regcore.trunc import TruncatedIdeal


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WORKED = {"field": "Q", "gens": ["x^3", "x*y", "y^2"]}
M23 = {"field": "Q", "rank": 2,
       "generators": [["x^2", "0"], ["x*y", "0"], ["y^2", "0"],
                      ["0", "x^3"], ["0", "x^2*y"], ["0", "x*y^2"],
                      ["0", "y^3"]]}


def test_adjoint_both_methods_agree(tmp_path, capsys):
    path = write(tmp_path, "I.json", WORKED)
    code, out, err = run(capsys, "adjoint", "--ideal", path, "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["howald"]["gens"] == ["x", "y"]
    assert payload["colon"]["gens"] == ["x", "y"]


def test_core_of_direct_sum_module(tmp_path, capsys):
    path = write(tmp_path, "M.json", M23)
    code, out, err = run(capsys, "core", "--module", path)
    assert code == 0
    payload = json.loads(out)
    core = module_from_obj(payload)
    expected = ModuleRep.from_monomial_ideal(
        MonomialIdeal.max_power(6), QQ).direct_sum(
        ModuleRep.from_monomial_ideal(MonomialIdeal.max_power(7), QQ))
    assert core.equals(expected)


def test_mult_rejects_non_m_primary(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"field": "Q", "gens": ["x^2"]})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 1
    assert "ideal is not m-primary" in err


def test_mult_names_the_truncation_ceiling(tmp_path, capsys):
    # (x^40 + y^41, y^40) = (x^40, y^40), but its generators are not terms
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^40 + y^41", "y^40"]})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 1
    assert "not m-primary, or" in err and "ceiling 64" in err
    mixed = write(tmp_path, "J.json",
                  {"field": "Q", "gens": ["x^2 - y^3", "x*y"]})  # n0 = 4
    code, out, err = run(capsys, "mult", "--ideal", mixed, "--ceiling", "3")
    assert code == 1
    assert "not m-primary, or" in err and "ceiling 3" in err


def test_br_and_mult_name_the_truncation_ceiling(tmp_path, capsys):
    # m^20 (+) m^20 has finite colength, but its S_4 needs truncation order
    # 81, above the default ceiling 64; --ceiling 200 answers it
    gens = ["*".join(p for p in (f"x^{20 - i}" if i < 20 else "",
                                 f"y^{i}" if i else "") if p)
            for i in range(21)]
    path = write(tmp_path, "M.json", {
        "field": "Q", "rank": 2,
        "generators": [[g, "0"] for g in gens] + [["0", g] for g in gens]})
    code, out, err = run(capsys, "br", "--module", path)
    assert code == 1
    assert "ceiling 64" in err and "--ceiling" in err
    assert "finite colength" not in err
    code, out, err = run(capsys, "br", "--module", path, "--ceiling", "200")
    assert code == 0 and json.loads(out)["multiplicity"] == 1200
    # the same error from mult: I = m^2 by generators that are not terms,
    # whose I^3 needs truncation order 7
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^2 + x^3", "x*y", "y^2"]})
    code, out, err = run(capsys, "mult", "--ideal", path, "--ceiling", "6")
    assert code == 1
    assert "ceiling 6" in err and "--ceiling" in err
    assert run(capsys, "mult", "--ideal", path, "--ceiling", "9")[:2] == \
        (0, '{\n  "multiplicity": 4\n}\n')


def test_symmetric_powers_are_certified_up_to_the_ceiling(tmp_path, capsys):
    # M = (x^2, y^2) (+) (x^2, y^2) has S_t(M) = I^t in each slot and
    # n0(S_t) = 2t + 1, below the n0(S_(t-1)) + n0(M) = 2t + 2 of a product
    path = write(tmp_path, "M.json", {
        "field": "Q", "rank": 2,
        "generators": [["x^2", "0"], ["y^2", "0"], ["0", "x^2"],
                       ["0", "y^2"]]})
    code, out, err = run(capsys, "br", "--module", path, "--ceiling", "12")
    assert code == 0 and json.loads(out)["multiplicity"] == 12
    code, out, err = run(capsys, "br", "--module", path, "--ceiling", "11")
    assert code == 1 and "ceiling 11" in err and "--ceiling" in err
    code, out, err = run(capsys, "reduction", "--module", path,
                         "--ceiling", "6")
    assert code == 0
    assert json.loads(out)["certificate"]["symmetric_degree"] == 1


def test_closure_names_the_truncation_ceiling(tmp_path, capsys):
    # term generators are answered from the staircase, with no --ceiling
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^40", "y^40"]})
    code, out, err = run(capsys, "closure", "--ideal", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["n0"] == 40 and payload["colength"] == 820  # m^40
    assert run(capsys, "closure", "--ideal", path, "--ceiling", "80") == \
        (0, out, "")
    # the same ideal by generators that are not terms: n0 = 79 > 64
    path = write(tmp_path, "J.json",
                 {"field": "Q", "gens": ["x^40 + y^41", "y^40"]})
    code, out, err = run(capsys, "closure", "--ideal", path)
    assert code == 1
    assert "not finite colength" not in err
    assert "not m-primary, or" in err and "ceiling 64" in err
    # the closure m^70 needs truncation order 71 > 64, but the staircase
    # answers it with nothing materialized
    path = write(tmp_path, "K.json", {"field": "Q", "gens": ["x^70", "y^70"]})
    code, out, err = run(capsys, "closure", "--ideal", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["gens"] == [str(m) for m in MonomialIdeal.max_power(70).gens]
    assert (payload["n0"], payload["colength"]) == (70, 2485)
    path = write(tmp_path, "L.json", {"field": "Q", "gens": ["x^40", "x*y"]})
    code, out, err = run(capsys, "closure", "--ideal", path)
    assert code == 1
    assert "ideal is not m-primary" in err


@pytest.mark.parametrize("gens", [WORKED["gens"], ["x^4", "x*y", "y^4"],
                                  ["x^2", "y^2"], ["1"]])
def test_closure_of_terms_matches_the_engine_route(tmp_path, capsys,
                                                   monkeypatch, gens):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": gens})
    argvs = [("closure", "--ideal", path, "--format", fmt)
             for fmt in ("json", "text")]
    answers = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in answers)
    # without the staircase route the truncation engine answers
    monkeypatch.setattr(cli, "term_ideal", lambda gens: None)
    assert [run(capsys, *argv) for argv in argvs] == answers


def test_mult_of_monomial_input_needs_no_truncation(tmp_path, capsys):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^40", "y^40"]})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 0
    assert json.loads(out)["multiplicity"] == 1600
    path = write(tmp_path, "J.json", {"field": "Q", "gens": ["x^40", "x*y"]})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 1
    assert "ideal is not m-primary" in err


def test_adjoint_names_the_truncation_ceiling(tmp_path, capsys):
    # m^65 is integrally closed, and its n0 = 65 is above the ceiling 64
    gens = [str(m) for m in MonomialIdeal.max_power(65).gens]
    path = write(tmp_path, "I.json", {"field": "Q", "gens": gens})
    for method in ("colon", "both"):
        code, out, err = run(capsys, "adjoint", "--ideal", path,
                             "--method", method)
        assert code == 1 and out == ""
        assert "not finite colength" not in err
        assert "n0 = 65" in err and "raise --ceiling" in err
    # the staircase answers adj(m^65) = m^64 at any size
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "howald")
    assert code == 0
    payload = json.loads(out)
    assert payload["gens"] == [str(m) for m in MonomialIdeal.max_power(64).gens]
    assert (payload["n0"], payload["colength"]) == (64, 2080)


@pytest.mark.parametrize("gens, closure", [
    (["x^40", "y^40"], MonomialIdeal.max_power(40)),
    (["x^41", "x*y^40"], MonomialIdeal.max_power(40)),  # content x
    (["x^70", "y^70"], MonomialIdeal.max_power(70))])
def test_adjoint_refuses_terms_that_are_not_closed_above_the_ceiling(
        tmp_path, capsys, gens, closure):
    # the input is refused at any ceiling, so the ceiling is not the cause
    path = write(tmp_path, "I.json", {"field": "Q", "gens": gens})
    for method in ("colon", "both"):
        code, out, err = run(capsys, "adjoint", "--ideal", path,
                             "--method", method)
        assert code == 1 and out == ""
        assert "integrally closed" in err and str(closure) in err
        assert "ceiling" not in err


def test_howald_adjoint_of_terms_is_answered_above_the_ceiling(tmp_path,
                                                              capsys):
    # adj((x^70, y^70)) = adj(m^70) = m^69 is read on the staircase, at any
    # size; colon and both refuse the input, whose closure is m^70
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^70", "y^70"]})
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "howald")
    assert code == 0
    payload = json.loads(out)
    assert payload["gens"] == [str(m) for m in MonomialIdeal.max_power(69).gens]
    assert (payload["n0"], payload["colength"], payload["method"]) == \
        (69, 2415, "howald")
    for method in ("colon", "both"):
        code, out, err = run(capsys, "adjoint", "--ideal", path,
                             "--method", method)
        assert code == 1 and out == ""
        assert "integrally closed" in err
        assert str(MonomialIdeal.max_power(70)) in err
    # an answer that is not m-primary prints no n0 or colength
    path = write(tmp_path, "J.json", {"field": "Q", "gens": ["x^2", "x*y"]})
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "howald")
    assert code == 0
    assert json.loads(out) == {"field": "Q", "gens": ["x"],
                               "method": "howald"}


# phi(x^4, x^2*y, y^2) for phi: y -> x + y; its adjoint is phi((x^2, y))
PHI = ["x^4", "x^2*y + x^3", "y^2 + 2*x*y + x^2"]


@pytest.mark.parametrize("field", ["Q", "F65537"])
def test_colon_adjoint_prints_a_non_monomial_answer(tmp_path, capsys, field):
    path = write(tmp_path, "I.json", {"field": field, "gens": PHI})
    argv = ("adjoint", "--ideal", path, "--method", "colon")
    # (x^2, x + y), with n0 = 2: the low combination x + y, then m^2
    gens = ["x + y", "x^2", "x*y", "y^2"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"field": field, "gens": gens, "n0": 2,
                               "colength": 2, "method": "colon"}
    assert run(capsys, *argv, "--format", "text") == \
        (0, "(" + ", ".join(gens) + ")\n", "")
    # core = adj*I, each generator printed once
    code, out, err = run(capsys, "core", "--ideal", path)
    assert code == 0
    core = json.loads(out)
    assert (core["n0"], core["colength"]) == (6, 12)
    assert len(core["gens"]) == len(set(core["gens"])) == 10
    # times x: the answer x*adj is not m-primary, so only its generators
    shifted = [str(parse_poly(g, QQ).shift(1, 0)) for g in gens]
    path = write(tmp_path, "J.json", {
        "field": field,
        "gens": [str(parse_poly(g, QQ).shift(1, 0)) for g in PHI]})
    argv = ("adjoint", "--ideal", path, "--method", "colon")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"field": field, "gens": shifted,
                               "method": "colon"}
    assert run(capsys, *argv, "--format", "text") == \
        (0, "(" + ", ".join(shifted) + ")\n", "")


def test_adjoint_refusal_names_the_closure(tmp_path, capsys):
    # (x^2, y^2) is not integrally closed, so (J : I) is not its adjoint
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^2", "y^2"]})
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "colon")
    assert code == 1
    assert out == ""
    assert "integrally closed" in err and "(x^2, x*y, y^2)" in err


@pytest.mark.parametrize("command", ["reduction", "adjoint"])
def test_reduction_search_names_the_truncation_ceiling(tmp_path, capsys,
                                                       command):
    # m^5 has n0 = 5 and is certified at order 6, but every draw of two
    # generic quintics needs an order above 6 for its own certificate
    path = write(tmp_path, "I.json", {
        "field": "Q",
        "gens": ["x^5", "x^4*y", "x^3*y^2", "x^2*y^3", "x*y^4", "y^5"]})
    code, out, err = run(capsys, command, "--ideal", path, "--ceiling", "6")
    assert code == 1 and out == ""
    assert "in 8 draws" in err and "field may be too small" not in err
    assert "truncation ceiling 6: raise --ceiling" in err
    code, out, err = run(capsys, command, "--ideal", path)
    assert code == 0


def test_module_reduction_search_names_the_ceiling_a_power_passes(tmp_path,
                                                                   capsys):
    # m (+) (x^2, y^2): every draw is built below ceiling 7, but deciding it
    # needs a symmetric power of M whose certificate is not below 7
    path = write(tmp_path, "M.json", {
        "field": "Q", "rank": 2,
        "generators": [["x", "0"], ["y", "0"], ["0", "x^2"], ["0", "y^2"]]})
    code, out, err = run(capsys, "reduction", "--module", path,
                         "--ceiling", "7")
    assert code == 1 and out == ""
    assert "in 8 draws" in err and "field may be too small" not in err
    assert "truncation ceiling 7: raise --ceiling" in err
    code, out, err = run(capsys, "reduction", "--module", path)
    assert code == 0
    assert json.loads(out)["certificate"]["symmetric_degree"] == 2


def test_module_reduction_names_the_symmetric_power_bound(tmp_path, capsys):
    # (x^5, x^4*y, y^5) is not integrally closed: its reductions need
    # J*I^4 = I^5.  As a rank-1 module it is searched as its ideal, with n
    # up to colength(J), and both answer the same generators with degree 4
    gens = ["x^5", "x^4*y", "y^5"]
    module = write(tmp_path, "M.json", {"field": "F65537", "rank": 1,
                                        "generators": [[g] for g in gens]})
    code, out, err = run(capsys, "reduction", "--module", module)
    assert code == 0
    answer = json.loads(out)
    assert answer["certificate"] == {"symmetric_degree": 4, "trivial": False}
    ideal = write(tmp_path, "I.json", {"field": "F65537", "gens": gens})
    code, out, err = run(capsys, "reduction", "--ideal", ideal)
    assert code == 0
    assert json.loads(out)["certificate"] == {"exponent": 4, "colength": 335}
    assert [[g] for g in json.loads(out)["gens"]] == answer["generators"]
    # its sum with m has rank 2, where the search stops at n <= 3, and the
    # refusal names that bound instead of the field
    module = write(tmp_path, "S.json", {
        "field": "F65537", "rank": 2,
        "generators": [[g, "0"] for g in gens] + [["0", "x"], ["0", "y"]]})
    code, out, err = run(capsys, "reduction", "--module", module)
    assert code == 1 and out == ""
    assert "field may be too small" not in err
    assert "S_1(N)*S_n(M) = S_(n+1)(M) for an n <= 3" in err


@pytest.mark.parametrize("command", ["closure", "reduction", "mult", "core"])
def test_a_variable_dividing_every_generator_is_named(tmp_path, capsys,
                                                      command):
    # no ceiling helps here: x divides both generators, so the ideal is not
    # m-primary, and the loader says so before anything is materialized
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^2 + x*y^2", "x*y^3"]})
    assert run(capsys, command, "--ideal", path) == (
        1, "", "error: ideal is not m-primary: x divides every generator\n")
    path = write(tmp_path, "J.json",
                 {"field": "F7", "gens": ["y^2 + x*y^2", "x^3*y"]})
    assert run(capsys, command, "--ideal", path) == (
        1, "", "error: ideal is not m-primary: y divides every generator\n")


def test_default_adjoint_names_its_lattice_half(tmp_path, capsys):
    # the default --method both runs the lattice method, which needs a
    # monomial ideal; --method colon answers this one
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x + y^2", "y^3"]})
    assert run(capsys, "adjoint", "--ideal", path) == (
        1, "", "error: the lattice method, run by the default --method both, "
        "needs a monomial ideal: use --method colon\n")
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "colon")
    assert code == 0


# fractional Q input: one common denominator per matrix or generator list,
# divided out where the generators are printed
FRACTIONAL_PINS = [
    ("fitting", "--presentation", {"field": "Q", "matrix": [
        ["x + 1/2*y", "0"], ["y^2", "x - 1/3*y"], ["0", "y^2 + 2/5*x^2"]]},
     ("--k", "2"),
     "(x^2 + 1/6*x*y - 1/6*y^2, 2/5*x^3 + 1/5*x^2*y + x*y^2 + 1/2*y^3, "
     "2/5*x^2*y^2 + y^4)"),
    ("reduction", "--ideal", {"field": "Q", "gens": [
        "x^3 + 1/2*y^4", "x*y", "y^3 + 2/3*x^4"]}, (),
     "(-6*x^4 - 4*x^3 - x*y - 9*y^3 - 2*y^4, "
     "-10/3*x^4 - 8*x^3 - 8*x*y - 5*y^3 - 4*y^4)"),
    ("reduction", "--module", {"field": "Q", "rank": 2, "generators": [
        ["x", "0"], ["1/2*y", "0"], ["0", "x^2 + 1/3*y^3"], ["0", "y^2"]]},
     (), "[(-4*x - 1/2*y, -9*x^2 - 8*y^2 - 3*y^3); "
     "(-8*x - 5/2*y, -4*x^2 + 8*y^2 - 4/3*y^3); "
     "(-3*x + 9/2*y, 4*x^2 - 2*y^2 + 4/3*y^3)]"),
]


@pytest.mark.parametrize(
    "command, flag, obj, options, expected", FRACTIONAL_PINS,
    ids=["fitting", "reduction-ideal", "reduction-module"])
def test_fractional_q_output_is_pinned(tmp_path, capsys, command, flag, obj,
                                       options, expected):
    path = write(tmp_path, "in.json", obj)
    code, out, err = run(capsys, command, flag, path, *options,
                         "--format", "text")
    assert (code, err) == (0, "")
    assert out == expected + "\n"


COLON = ("--method", "colon")
NOT_CLOSED = [  # command, input, options
    ("adjoint", {"field": "Q", "gens": ["x^2", "x^2+2*x*y+y^2"]}, COLON),
    ("adjoint", {"field": "Q", "gens": ["x^2-y^3", "x*y"]}, COLON),
    ("adjoint", {"field": "Q", "gens": ["x^2", "x*y+y^2"]}, COLON),
    ("core", {"field": "Q", "gens": ["x^2", "x^2+2*x*y+y^2"]}, ()),
    # g*((x^2, y^2) (+) m) for g = [[1, x], [0, 1]]
    ("core", {"field": "Q", "rank": 2, "generators": [
        ["x^2", "0"], ["y^2", "0"], ["x^2", "x"], ["x*y", "y"]]}, ()),
]


@pytest.mark.xfail(strict=True, reason="closedness of non-monomial input is "
                   "not decided yet: each of these is answered, wrongly")
@pytest.mark.parametrize("command, data, options", NOT_CLOSED)
def test_input_that_is_not_closed_is_refused(tmp_path, capsys, command, data,
                                             options):
    flag = "--module" if "rank" in data else "--ideal"
    path = write(tmp_path, "input.json", data)
    code, out, err = run(capsys, command, flag, path, *options)
    assert code == 1 and "integrally closed" in err


def test_core_refuses_a_module_with_a_slot_that_is_not_closed(tmp_path,
                                                              capsys):
    # (x^2, y^2) (+) m: the first slot's closure is m^2
    path = write(tmp_path, "M.json", {
        "field": "Q", "rank": 2,
        "generators": [["x^2", "0"], ["y^2", "0"], ["0", "x"], ["0", "y"]]})
    code, out, err = run(capsys, "core", "--module", path)
    assert code == 1
    assert out == ""
    assert "integrally closed" in err
    assert "slot 1" in err and "(x^2, x*y, y^2)" in err
    # m^2 (+) m^3 is closed and still answered: m^6 (+) m^7
    path = write(tmp_path, "N.json", M23)
    code, out, err = run(capsys, "core", "--module", path)
    assert code == 0
    assert module_from_obj(json.loads(out)).colength() == 21 + 28


def test_core_refuses_a_monomial_ideal_that_is_not_closed(tmp_path, capsys):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^2", "y^2"]})
    code, out, err = run(capsys, "core", "--ideal", path)
    assert code == 1
    assert out == ""
    assert "integrally closed" in err and "(x^2, x*y, y^2)" in err
    # the same monomial ideal given by non-monomial generators
    path = write(tmp_path, "J.json",
                 {"field": "Q", "gens": ["x^2 + y^2", "y^2"]})
    assert run(capsys, "core", "--ideal", path)[0] == 1
    path = write(tmp_path, "W.json", WORKED)
    code, out, err = run(capsys, "core", "--ideal", path)
    assert code == 0
    assert ideal_from_obj(json.loads(out))[1] == \
        [parse_poly(g, QQ) for g in ("x^4", "x^2*y", "x*y^2", "y^3")]


def test_core_names_the_closure_of_monomial_input_above_the_ceiling(
        tmp_path, capsys):
    # (x^40, y^40) needs truncation order 80 > 64, but the reason it is
    # refused is that its closure is m^40
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^40", "y^40"]})
    code, out, err = run(capsys, "core", "--ideal", path)
    assert code == 1
    assert out == ""
    assert "integrally closed" in err and "whose integral closure is" in err
    assert "x^39*y" in err and "ceiling" not in err


def test_core_of_terms_is_answered_above_the_ceiling(tmp_path, capsys):
    # core(m^40) = adj(m^40)*m^40 = m^79, whose n0 = 79 is above the
    # ceiling 64: the staircase answers it, and the input is m-primary
    gens = [str(m) for m in MonomialIdeal.max_power(40).gens]
    path = write(tmp_path, "I.json", {"field": "Q", "gens": gens})
    code, out, err = run(capsys, "core", "--ideal", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["gens"] == [str(m) for m in MonomialIdeal.max_power(79).gens]
    assert (payload["n0"], payload["colength"]) == (79, 3160)


@pytest.mark.parametrize("gens", [WORKED["gens"], ["x^4", "x*y", "y^4"],
                                  ["x", "y"]])
def test_core_of_terms_matches_the_engine_route(tmp_path, capsys,
                                                monkeypatch, gens):
    path = write(tmp_path, "I.json", {"field": "F65537", "gens": gens})
    argvs = [("core", "--ideal", path, "--format", fmt)
             for fmt in ("json", "text")]
    answers = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in answers)
    # without the staircase route the truncation engine answers
    monkeypatch.setattr(cli, "term_ideal", lambda gens: None)
    assert [run(capsys, *argv) for argv in argvs] == answers


def test_mult_of_worked_example(tmp_path, capsys):
    path = write(tmp_path, "I.json", WORKED)
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 0
    assert json.loads(out)["multiplicity"] == 5


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "mult", "--ideal", str(path))
    assert code == 2
    missing = run(capsys, "mult", "--ideal", str(tmp_path / "nope.json"))
    assert missing[0] == 2


def test_unknown_fields_rejected(tmp_path, capsys):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x"], "bogus": 1})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 2
    assert "bogus" in err


GEN = [["x"], ["y"]]


@pytest.mark.parametrize("argv, obj", [
    (("closure", "--ideal"), {"field": "Q", "gens": [1, "y"]}),
    (("closure", "--ideal"), {"field": 7, "gens": ["x", "y"]}),
    (("br", "--module"), {"field": "Q", "rank": 1, "generators": [None]}),
    (("br", "--module"), {"field": "Q", "rank": 1, "generators": [[None]]}),
    (("br", "--module"), {"field": "Q", "rank": 1, "generators": 5}),
    (("br", "--module"), {"field": "Q", "rank": True, "generators": GEN}),
    (("br", "--module"), {"field": "Q", "rank": 1, "generators": GEN,
                          "presentation": [["y", 1]]}),
    (("br", "--module"), {"field": "Q", "rank": 1, "generators": GEN,
                          "presentation": [1]}),
    (("fitting", "--k", "1", "--presentation"),
     {"field": "Q", "matrix": [[1]]}),
])
def test_json_values_of_the_wrong_type_are_input_errors(tmp_path, capsys,
                                                        argv, obj):
    code, out, err = run(capsys, *argv, write(tmp_path, "in.json", obj))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_closure_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^2", "y^2"]})
    code, out, err = run(capsys, "closure", "--ideal", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["n0"] == 2 and payload["colength"] == 3
    # emitted JSON re-parses as-is (round-trip invariant)
    fld, gens = ideal_from_obj(payload)
    reparsed = TruncatedIdeal.materialize(gens, fld)
    assert reparsed.to_monomial() == MonomialIdeal.max_power(2)


def test_emitted_outputs_reparse(tmp_path, capsys):
    path = write(tmp_path, "I.json", WORKED)
    for argv in (["adjoint", "--ideal", path, "--method", "colon"],
                 ["reduction", "--ideal", path],
                 ["core", "--ideal", path]):
        code, out, err = run(capsys, *argv)
        assert code == 0
        fld, gens = ideal_from_obj(json.loads(out))
        assert TruncatedIdeal.materialize(gens, fld).colength() >= 1


def test_module_json_roundtrip(tmp_path, capsys):
    module = module_from_obj(M23)
    again = module_from_obj(module_to_obj(module))
    assert module.equals(again)


def test_fitting_command(tmp_path, capsys):
    path = write(tmp_path, "A.json", {
        "field": "Q",
        "matrix": [["y", "0"], ["-x^2", "y"], ["0", "-x"]]})
    code, out, err = run(capsys, "fitting", "--presentation", path, "--k", "2")
    assert code == 0
    assert json.loads(out)["gens"] == ["x^3", "x*y", "y^2"]
    code, out, err = run(capsys, "fitting", "--presentation", path, "--k", "0")
    assert code == 0
    assert json.loads(out)["gens"] == ["1"]


def test_fitting_command_counts_minors_by_support(tmp_path, capsys):
    # 1,585,584 index pairs of 6-minors, 27,132 of them admit a transversal
    pres = presentation_matrix(MonomialIdeal.max_power(12),
                               PrimeField(65537))
    path = write(tmp_path, "A.json", {
        "field": "F65537", "matrix": [[str(f) for f in row] for row in pres]})
    code, out, err = run(capsys, "fitting", "--presentation", path,
                         "--k", "6")
    assert code == 0
    assert json.loads(out)["gens"] == ["x^6", "x^5*y", "x^4*y^2", "x^3*y^3",
                                       "x^2*y^4", "x*y^5", "y^6"]


def test_fitting_names_the_minor_budget(tmp_path, capsys):
    # one dense 24 x 24 block: its 12-minors are far too many to enumerate
    entries = ["x", "y", "x + y^2", "2*x - y", "x*y", "y^3"]
    matrix = [[entries[(5 * i + 7 * j + i * j) % 6] for j in range(24)]
              for i in range(24)]
    path = write(tmp_path, "A.json", {"field": "F7", "matrix": matrix})
    code, out, err = run(capsys, "fitting", "--presentation", path,
                         "--k", "12")
    assert code == 1 and out == ""
    assert err.startswith("error: I_12 needs the 12x12 minors of a 24x24 "
                          "block of the presentation: 7312459672336 minors")
    code, out, err = run(capsys, "fitting", "--presentation", path,
                         "--k", "1")
    assert code == 0 and json.loads(out)["gens"] == ["x", "y"]


def test_reduction_command_certificate(tmp_path, capsys):
    path = write(tmp_path, "I.json", WORKED)
    code, out, err = run(capsys, "reduction", "--ideal", path, "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["exponent"] >= 1
    assert payload["certificate"]["colength"] >= 1
    assert len(payload["gens"]) == 2
    # determinism for a fixed seed
    code2, out2, err2 = run(capsys, "reduction", "--ideal", path, "--seed", "9")
    assert out2 == out


def test_reduction_refuses_terms_that_are_not_m_primary(tmp_path, capsys):
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^2", "x*y"]})
    assert run(capsys, "reduction", "--ideal", path) == \
        (1, "", "error: ideal is not m-primary\n")


def test_reduction_command_certifies_once(tmp_path, capsys, monkeypatch):
    # minimal_reduction certifies J with is_reduction; the command prints
    # that certificate and does not run the same deterministic check again
    calls = []
    original = reduction.is_reduction

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for module in (cli, reduction):  # every module that binds it
        if vars(module).get("is_reduction") is original:
            monkeypatch.setattr(module, "is_reduction", counting)
    path = write(tmp_path, "I.json", {"field": "Q", "gens": ["x^2", "y^2"]})
    code, out, err = run(capsys, "reduction", "--ideal", path, "--seed", "9")
    assert code == 0
    # J*I = I^2, and I^2 = (x^4, x^2*y^2, y^4) has colength 12
    assert json.loads(out)["certificate"] == {"exponent": 1, "colength": 12}
    assert len(calls) == 1


def test_br_command(tmp_path, capsys):
    mm = {"field": "Q", "rank": 2,
          "generators": [["x", "0"], ["y", "0"], ["0", "x"], ["0", "y"]]}
    path = write(tmp_path, "MM.json", mm)
    code, out, err = run(capsys, "br", "--module", path)
    assert code == 0
    assert json.loads(out)["multiplicity"] == 3


def test_verify_command_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out_path in (out_a, out_b):
        code = main(["verify", "--family", "counterexamples", "--count", "2",
                     "--seed", "42", "--field", "Q", "--out", str(out_path)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["summary"]["failed"] == 0


COUNTEREXAMPLES_TEXT = """\
verification: 4/4 checks passed

[PASS] adjoint-of-m-squared :: a=m^2 (T)
[PASS] core-of-m-squared :: a=m^2 (T)
[PASS] core-of-principal-ideal-rejected :: a=(x^2): principal ideals are \
their own core; the engine rejects non-m-primary core computations (T)
[PASS] core-need-not-be-monotone-for-ideal-inclusion :: core((x^2)) = (x^2) \
vs core(m^2) = m^3 (T)
    #####
    #####
    .####
    ..###
    ...##

summary: total=4 passed=4 failed=0
"""


def test_verify_text_format(capsys):
    code, out, err = run(capsys, "verify", "--family", "counterexamples",
                         "--count", "2", "--format", "text")
    assert code == 0
    # the whole text report, with each check's timing masked
    assert re.sub(r"\(\d+\.\d{3}s\)$", "(T)", out, flags=re.M) == \
        COUNTEREXAMPLES_TEXT


def test_missing_required_input(capsys):
    # argparse refuses the command line, with exit code 2
    for argv, named in ((["core"], "--ideal --module"),
                        (["reduction"], "--ideal --module"),
                        (["closure"], "--ideal"), (["adjoint"], "--ideal"),
                        (["mult"], "--ideal"), (["br"], "--module")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


def test_ideal_and_module_together_are_refused(tmp_path, capsys):
    # the module used to be read and the ideal dropped, with exit code 0
    ideal = write(tmp_path, "I.json", WORKED)
    module = write(tmp_path, "M.json", M23)
    for command in ("core", "reduction"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--ideal", ideal, "--module", module])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_unread_flags_are_rejected(tmp_path, capsys):
    # the field comes from the input JSON; only verify takes --field, only
    # closure takes --nmax, and closure draws nothing to seed
    path = write(tmp_path, "I.json", WORKED)
    for argv in (["mult", "--ideal", path, "--field", "F7"],
                 ["adjoint", "--ideal", path, "--nmax", "3"],
                 ["closure", "--ideal", path, "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, out, err = run(capsys, "closure", "--ideal", path, "--nmax", "3")
    assert code == 0


def test_reduction_of_module(tmp_path, capsys):
    path = write(tmp_path, "M.json", M23)
    code, out, err = run(capsys, "reduction", "--module", path, "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["symmetric_degree"] == 1
    assert len(payload["generators"]) == 3  # rank + 1 columns


def test_ceiling_must_be_a_positive_integer(tmp_path, capsys):
    # a ceiling of 0 used to be ignored, a negative one used to be accepted
    path = write(tmp_path, "I.json", WORKED)
    for value in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["mult", "--ideal", path, "--ceiling", value])
        assert exc.value.code == 2
        assert "--ceiling: must be a positive integer" in \
            capsys.readouterr().err


def test_nmax_must_be_a_positive_integer(tmp_path, capsys):
    # --nmax 0 or -3 used to skip the candidate search and echo the input
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^2 - y^3", "x*y"]})
    for value in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--ideal", path, "--nmax", value])
        assert exc.value.code == 2
        assert "--nmax: must be a positive integer" in \
            capsys.readouterr().err


def test_count_must_be_a_positive_integer(capsys):
    for value in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "counterexamples", "--count", value])
        assert exc.value.code == 2
        assert "--count: must be a positive integer" in \
            capsys.readouterr().err


def test_adjoint_lattice_method_needs_monomial(tmp_path, capsys):
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^2 - y^3", "x*y"]})
    code, out, err = run(capsys, "adjoint", "--ideal", path,
                         "--method", "howald")
    assert code == 1
    assert "monomial" in err


def test_ceiling_flag_limits_truncation(tmp_path, capsys):
    # not terms, so the truncation engine answers: (x^9, y^9) has n0 = 16
    path = write(tmp_path, "I.json",
                 {"field": "Q", "gens": ["x^9 + y^10", "y^9"]})
    code, out, err = run(capsys, "mult", "--ideal", path, "--ceiling", "8")
    assert code == 1
    ok_code, out, err = run(capsys, "mult", "--ideal", path)
    assert ok_code == 0
    assert json.loads(out)["multiplicity"] == 81


def test_prime_field_denominator_rejected(tmp_path, capsys):
    path = write(tmp_path, "I.json",
                 {"field": "F5", "gens": ["1/5*x", "y"]})
    code, out, err = run(capsys, "mult", "--ideal", path)
    assert code == 2
    assert "vanishes" in err


def test_presentation_validation_on_load(tmp_path, capsys):
    bad = {"field": "Q", "rank": 1, "generators": [["x^2"], ["y^2"]],
           "presentation": [["y^2"], ["-x^2"]]}
    # syzygy holds but maximal minors generate (x^2,y^2)... actually they do;
    # break it instead with a non-syzygy
    worse = {"field": "Q", "rank": 1, "generators": [["x^2"], ["y^2"]],
             "presentation": [["y"], ["-x"]]}
    path = write(tmp_path, "W.json", worse)
    code, out, err = run(capsys, "core", "--module", path)
    assert code == 2

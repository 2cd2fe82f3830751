import json

import pytest

from macchroma import cli, jack, macdonald, symfunc, verify
from macchroma.cli import main
from ring_values import P


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jqt_degree_one_text(capsys):
    code, out, _ = run(capsys, "jqt", "--mu", "1", "--basis", "monomial", "--method", "hhl")
    assert code == 0
    assert out.strip() == "(1): 1 - t"


def test_jqt_schur_json_contains_known_coefficient(capsys):
    code, out, _ = run(capsys, "jqt", "--mu", "2,1,1", "--basis", "schur",
                       "--method", "tableaux", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["object"] == "symfunc" and blob["basis"] == "schur"
    assert blob["ring"] == "laurent_qt"
    by_index = {tuple(term["index"]): term["coeff"] for term in blob["terms"]}
    expected = P("1 - t") ** 2 * P("q - t") * P("1 - q*t") * P("1 + q*t")
    assert by_index[(2, 2)] == str(expected)
    indices = [tuple(term["index"]) for term in blob["terms"]]
    assert indices == sorted(indices, reverse=True)


def test_jack_power_subsets_contains_known_coefficient(capsys):
    code, out, _ = run(capsys, "jack", "--mu", "2,1,1", "--basis", "power",
                       "--method", "subsets", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ring"] == "alpha"
    by_index = {tuple(term["index"]): term["coeff"] for term in blob["terms"]}
    assert by_index[(2, 2)] == "-a"


def test_methods_agree_across_bases(capsys):
    outputs = []
    for method in macdonald.ROUTES:
        code, out, _ = run(capsys, "jqt", "--mu", "2,1", "--basis", "monomial",
                           "--method", method, "--format", "json")
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1


def _option(command, dest):
    (subcommands,) = cli._build_parser()._subparsers._group_actions
    (action,) = [action for action in subcommands.choices[command]._actions if action.dest == dest]
    return action


@pytest.mark.parametrize("command, routes", [("jqt", macdonald.ROUTES), ("jack", jack.ROUTES)])
def test_method_choices_are_the_family_route_table(command, routes):
    assert {"jqt": cli._JQT_METHODS, "jack": cli._JACK_METHODS}[command] is routes
    method = _option(command, "method")
    assert method.choices == tuple(routes)
    assert method.default == next(iter(routes))


def test_basis_suite_and_conjecture_choices_are_their_tables():
    for command in ("jqt", "jack", "chromatic"):
        assert _option(command, "basis").choices == symfunc.BASES
    assert verify.SUITES == tuple(verify._SUITE_ITEM)
    assert _option("verify", "suite").choices == (*verify.SUITES, "all")
    assert verify.CONJECTURES == tuple(verify._CONJECTURES)
    assert _option("conjecture", "which").choices == verify.CONJECTURES


def test_prime_flag_conjugates(capsys):
    _, direct, _ = run(capsys, "jqt", "--mu", "3,2", "--format", "json")
    _, primed, _ = run(capsys, "jqt", "--mu", "2,2,1", "--prime", "--format", "json")
    assert direct == primed


def test_json_output_byte_stable(capsys):
    runs = [run(capsys, "jqt", "--mu", "2,2", "--basis", "schur", "--method", "hhl",
                "--format", "json")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_chromatic_command_graph_selectors(capsys):
    code, attacking, _ = run(capsys, "chromatic", "--mu", "3,2", "--graph", "attacking",
                             "--format", "json")
    assert code == 0
    code, mask_zero, _ = run(capsys, "chromatic", "--mu", "3,2", "--graph", "mask:00",
                             "--format", "json")
    assert code == 0
    assert attacking == mask_zero
    code, augmented, _ = run(capsys, "chromatic", "--mu", "3,2", "--graph", "augmented",
                             "--format", "json")
    code, mask_full, _ = run(capsys, "chromatic", "--mu", "3,2", "--graph", "mask:11",
                             "--format", "json")
    assert augmented == mask_full
    assert attacking != augmented


def test_chromatic_bases_are_consistent(capsys):
    _, monomial, _ = run(capsys, "chromatic", "--mu", "2,1", "--basis", "monomial",
                         "--format", "json")
    _, schur, _ = run(capsys, "chromatic", "--mu", "2,1", "--basis", "schur",
                      "--format", "json")
    blob_m = json.loads(monomial)
    blob_s = json.loads(schur)
    assert blob_m["basis"] == "monomial" and blob_s["basis"] == "schur"


def test_llt_flag(capsys):
    code, out, _ = run(capsys, "chromatic", "--mu", "1,1", "--graph", "augmented",
                       "--llt", "--format", "json")
    assert code == 0
    by_index = {tuple(term["index"]): term["coeff"] for term in json.loads(out)["terms"]}
    assert by_index == {(2,): "1", (1, 1): "1 + t"}


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "jqt", "--mu", "1,2")[0] == 2
    assert run(capsys, "jqt", "--mu", "x")[0] == 2
    assert run(capsys, "chromatic", "--mu", "3,2", "--graph", "mask:1")[0] == 2
    assert run(capsys, "chromatic", "--mu", "3,2", "--graph", "bogus")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["jqt", "--mu", "2,1", "--method", "nope"])
    assert exc.value.code == 2


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "macdonald", "--max-n", "2",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["suite"] == "macdonald"
    assert all(item["status"] == "pass" for item in reports[0]["items"])
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "--which", "haglund", "--max-n", "3",
                       "--max-k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["counterexample"] is None
    # the inverse-power specialization produces a genuine negative coefficient
    # at k=2 already in degree 2, so the scan must report it and exit 4
    code, out, _ = run(capsys, "conjecture", "--which", "palindromic", "--max-n", "2",
                       "--max-k", "1", "--format", "json")
    assert code == 0
    code, out, _ = run(capsys, "conjecture", "--which", "palindromic", "--max-n", "2",
                       "--max-k", "2", "--format", "json")
    assert code == 4
    report = json.loads(out)
    assert report["counterexample"]["check"] == "palindromic_k2"


# Exact stdout of commands whose printing goes through the coefficient
# rings: rational q,t coefficients, polynomials in a, and LLT expansions.
_GOLDEN = [
    (["jqt", "--mu", "2,1", "--basis", "power"],
     "(3): -1/3 + 1/3*t + 1/3*t^3 - 1/3*t^4 + 1/3*q - 1/3*q*t - 1/3*q*t^3 + 1/3*q*t^4\n"
     "(2,1): 1/2*t - 1/2*t^2 - 1/2*t^3 + 1/2*t^4 - 1/2*q + 1/2*q*t + 1/2*q*t^2 - 1/2*q*t^3\n"
     "(1,1,1): 1/3 - 5/6*t + 1/2*t^2 + 1/6*t^3 - 1/6*t^4 + 1/6*q - 1/6*q*t - 1/2*q*t^2 + 5/6*q*t^3 - 1/3*q*t^4\n"),
    (["jqt", "--mu", "2,1", "--basis", "power", "--format", "json"],
     '{"object": "symfunc", "degree": 3, "basis": "power", "ring": "laurent_qt", "terms": [{"index": [3], "coeff": "-1/3 + 1/3*t + 1/3*t^3 - 1/3*t^4 + 1/3*q - 1/3*q*t - 1/3*q*t^3 + 1/3*q*t^4"}, {"index": [2, 1], "coeff": "1/2*t - 1/2*t^2 - 1/2*t^3 + 1/2*t^4 - 1/2*q + 1/2*q*t + 1/2*q*t^2 - 1/2*q*t^3"}, {"index": [1, 1, 1], "coeff": "1/3 - 5/6*t + 1/2*t^2 + 1/6*t^3 - 1/6*t^4 + 1/6*q - 1/6*q*t - 1/2*q*t^2 + 5/6*q*t^3 - 1/3*q*t^4"}]}\n'),
    (["jack", "--mu", "2,2", "--basis", "power", "--method", "tableaux"],
     "(4): a - a^2\n"
     "(3,1): -4*a\n"
     "(2,2): 1 + a + a^2\n"
     "(2,1,1): -2 + 2*a\n"
     "(1,1,1,1): 1\n"),
    (["jack", "--mu", "2,1,1", "--basis", "schur", "--format", "json"],
     '{"object": "symfunc", "degree": 4, "basis": "schur", "ring": "alpha", "terms": [{"index": [3, 1], "coeff": "2 + 4*a + 2*a^2"}, {"index": [2, 2], "coeff": "2 - 2*a^2"}, {"index": [2, 1, 1], "coeff": "4 - 2*a - 2*a^2"}, {"index": [1, 1, 1, 1], "coeff": "2 - 6*a + 4*a^2"}]}\n'),
    (["chromatic", "--mu", "2,2", "--llt"],
     "(4): 1\n"
     "(3,1): 1 + 3*t\n"
     "(2,2): 1 + 4*t + t^2\n"
     "(2,1,1): 1 + 7*t + 4*t^2\n"
     "(1,1,1,1): 1 + 11*t + 11*t^2 + t^3\n"),
    (["chromatic", "--mu", "2,1", "--llt", "--basis", "power"],
     "(2,1): 1/2 - 1/2*t\n"
     "(1,1,1): 1/2 + 1/2*t\n"),
]


@pytest.mark.parametrize("argv,expected", _GOLDEN, ids=[" ".join(a) for a, _ in _GOLDEN])
def test_golden_output(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)

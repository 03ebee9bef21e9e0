"""CLI: config handling, artifacts, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from freewalk import cli
from freewalk.cli import ConfigError, build_parser, load_config, main

CONFIG = {
    "group": [
        {"kind": "free-abelian", "rank": 1, "gens": ["a"]},
        {"kind": "free-abelian", "rank": 1, "gens": ["b"]},
    ],
    "measure": [
        ["e", "1/2"],
        ["1:(1)", "1/8"],
        ["1:(-1)", "1/8"],
        ["2:(1)", "1/8"],
        ["2:(-1)", "1/8"],
    ],
    "arithmetic": "exact",
    "budgets": {
        "n_max": 12,
        "series_order": 16,
        "radius": 6,
        "truncation": [2, 2],
        "horizon": 12,
        "kernel_order": 32,
        "h_ball": 12,
        "depth": 3,
        "sample_ball": [2, 1],
        "triples": 25,
        "window": [6, 12],
        "automaton_c": 2,
        "automaton_mb": [3, 2],
    },
    "r_grid": {"fractions": [0.4]},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def run(cmd, config_path, out, *extra):
    return main([cmd, config_path, "--out", str(out), *extra])


def test_validate_command(config_path, tmp_path):
    out = tmp_path / "out"
    assert run("validate", config_path, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["symmetric"] and rep["aperiodic"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["exit_status"] == 0
    assert "config_sha256" in manifest and "wall_time_s" in manifest


def test_manifest_records_each_table_built(tmp_path):
    """`validate configs/f2-lazy.json` builds one ball table, its depth-4
    ball of 161 elements, and the manifest's engine block records its cap,
    size, step path and the bytes it keeps, as a fresh build counts them."""
    path = Path(__file__).resolve().parent.parent / "configs" / "f2-lazy.json"
    out = tmp_path / "out"
    assert main(["validate", str(path), "--out", str(out)]) == 0
    cfg = load_config(str(path))
    table = cli.build_measure(cfg, cli.build_group(cfg), "exact").table(4)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["engine"] == {"tables": [
        {"cap": 4, "elements": 161, "step": "np.add.at", "bytes": table.nbytes}]}
    assert table.size == 161


def test_all_commands_produce_artifacts(config_path, tmp_path):
    expected = {
        "validate": ["report.json"],
        "radius": ["radius.json", "fekete.csv"],
        "green": ["green.csv"],
        "identities": ["identities.json"],
        "parabolic": ["parabolic.json", "kernel_1.csv", "kernel_2.csv"],
        "classify": ["classification.json"],
        "llt": ["q.csv", "fit.json"],
        "automaton": ["structure.json", "language.txt"],
        "ancona": ["ancona.csv", "summary.json"],
        "tauber": ["tauber.json"],
    }
    for cmd, files in expected.items():
        out = tmp_path / cmd
        assert run(cmd, config_path, out) == 0, cmd
        for f in files + ["manifest.json"]:
            assert (out / f).exists(), f"{cmd}: missing {f}"


MIXED_GROUP = [  # (Z x Z/2) * Z/3, its first factor by moduli and its second by kind
    {"moduli": [0, 2], "gens": ["a", "t"]},
    {"kind": "finite-cyclic", "order": 3, "gens": ["c"]},
]
MIXED_LAZY = [["e", "1/2"], ["1:(1,0)", "1/10"], ["1:(-1,0)", "1/10"], ["1:(0,1)", "1/10"],
              ["2:(1)", "1/10"], ["2:(2)", "1/10"]]


def test_all_commands_run_on_a_mixed_factor(tmp_path):
    path = write_config(tmp_path, group=MIXED_GROUP, measure=MIXED_LAZY)
    for cmd in cli.COMMANDS:
        assert main([cmd, path, "--out", str(tmp_path / cmd)]) == 0, cmd
    assert json.loads((tmp_path / "automaton" / "structure.json").read_text())["ok"]


def test_moduli_and_kind_give_the_same_group():
    by_kind = cli.build_group({"group": [{"kind": "free-abelian", "rank": 2},
                                         {"kind": "finite-cyclic", "order": 3}]})
    by_moduli = cli.build_group({"group": [{"moduli": [0, 0]}, {"moduli": [3]}]})
    assert by_kind.factors == by_moduli.factors
    assert [spec.moduli for spec in by_kind.factors] == [(0, 0), (3,)]


@pytest.mark.parametrize("factor,message", [
    ({"kind": "free-abelian", "rank": 1.5}, "group[2].rank: expected an int >= 1, got 1.5"),
    ({"kind": "free-abelian", "rank": True}, "group[2].rank: expected an int >= 1, got True"),
    ({"kind": "free-abelian", "rank": 0}, "group[2].rank: expected an int >= 1, got 0"),
    ({"kind": "finite-cyclic", "order": 3.7}, "group[2].order: expected an int >= 2, got 3.7"),
    ({"kind": "finite-cyclic", "order": True}, "group[2].order: expected an int >= 2, got True"),
    ({"kind": "finite-cyclic"}, "group[2].order: expected an int >= 2, got None"),
    ({"moduli": [0, 1]}, "group[2].moduli: expected a nonempty list of ints, each 0 or >= 2"),
    ({"moduli": [0, True]}, "group[2].moduli: expected a nonempty list of ints"),
    ({"moduli": [2.0]}, "group[2].moduli: expected a nonempty list of ints"),
    ({"moduli": [-2]}, "group[2].moduli: expected a nonempty list of ints"),
    ({"moduli": []}, "group[2].moduli: expected a nonempty list of ints"),
    ({"moduli": 2}, "group[2].moduli: expected a nonempty list of ints"),
    ({"kind": "finite-cyclic", "order": 3, "moduli": [3]}, "group[2]: expected moduli or a known"),
    ({"kind": "cyclic", "order": 3}, "group[2]: expected moduli or a known factor kind"),
    ({"kind": "free-abelian", "rnak": 2},
     "group[2].rnak: not a key of a free-abelian factor, which reads kind, rank, gens"),
    ({"kind": "finite-cyclic", "order": 3, "rank": 2},
     "group[2].rank: not a key of a finite-cyclic factor, which reads kind, order, gens"),
    ({"moduli": [3], "order": 3},
     "group[2].order: not a key of a moduli factor, which reads moduli, gens"),
    ({"kind": "free-abelian", "gens": "b"}, "group[2].gens: expected a list of strings, got 'b'"),
    ({"moduli": [0], "gens": [1]}, "group[2].gens: expected a list of strings, got [1]"),
])
def test_bad_factor_field_exits_one_with_manifest(tmp_path, capsys, factor, message):
    """rank 1.5 and true once ran as Z^1, and order 3.7 as Z/3; so did a
    misspelt rank, as Z^1, and an order with a rank, as Z/3, and gens given
    as a string was split into letters."""
    path = write_config(tmp_path, group=[CONFIG["group"][0], dict({"gens": ["b"]}, **factor)])
    out = tmp_path / "o"
    assert main(["validate", path, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("count", [2.5, True, "3", -1])
def test_r_grid_count_must_be_a_positive_int(tmp_path, capsys, count):
    """count 2.5 once resolved 2 r values and count true 1."""
    path = write_config(tmp_path, r_grid={"start": 0.2, "stop": 0.8, "count": count})
    out = tmp_path / "o"
    assert main(["green", path, "--out", str(out)]) == 1
    assert (f"config error: r_grid: count: expected an int >= 1, got {count!r}"
            in capsys.readouterr().err)
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


def test_automaton_export_dot(config_path, tmp_path):
    out = tmp_path / "auto"
    assert run("automaton", config_path, out, "--export-dot") == 0
    text = (out / "automaton.dot").read_text()
    assert text.startswith("digraph")


def assert_config_error_manifest(out):
    """A config that cannot be loaded still leaves a manifest in --out."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False
    assert manifest["budgets"] == {}


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bad.json" in err
    assert_config_error_manifest(tmp_path / "o")

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"group": []}))
    assert main(["validate", str(missing), "--out", str(tmp_path / "p")]) == 1
    assert_config_error_manifest(tmp_path / "p")

    absent = tmp_path / "absent.json"
    assert main(["validate", str(absent), "--out", str(tmp_path / "q")]) == 1
    assert "config error: cannot read config" in capsys.readouterr().err
    assert_config_error_manifest(tmp_path / "q")

    badweight = tmp_path / "w.json"
    cfg = dict(CONFIG)
    cfg["measure"] = [["e", "2/1"]]
    badweight.write_text(json.dumps(cfg))
    assert main(["validate", str(badweight), "--out", str(tmp_path / "o")]) == 1


def test_unknown_command_exits_one(config_path, tmp_path, capsys):
    assert main(["frobnicate", config_path]) == 1


def test_budget_exhaustion_exits_two(config_path, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["radius", config_path, "--out", str(out), "--memory-cap", "0",
                 "--n-max", "16"])
    # cap of 0 MB -> zero-element budget: the table build aborts
    assert code == 2
    err = capsys.readouterr().err
    assert "budget" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["partial"] is True and manifest["exit_status"] == 2


def test_flag_overrides(config_path, tmp_path):
    out = tmp_path / "o"
    assert run("radius", config_path, out, "--n-max", "14") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["budgets"]["n_max"] == 14


def test_each_override_flag_sets_its_budget(config_path, tmp_path):
    out = tmp_path / "o"
    assert run("identities", config_path, out, "--n-max", "10", "--series-order", "8",
               "--truncation", "1,2", "--memory-cap", "64") == 0
    budgets = json.loads((out / "manifest.json").read_text())["budgets"]
    assert (budgets["n_max"], budgets["series_order"]) == (10, 8)
    assert (budgets["truncation"], budgets["memory_cap_mb"]) == ([1, 2], 64)


def test_default_radius_resolved_into_manifest(tmp_path):
    cfg = json.loads(json.dumps(CONFIG))
    del cfg["budgets"]["radius"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["green", str(path), "--out", str(out), "--series-order", "4"]) == 0
    assert json.loads((out / "manifest.json").read_text())["budgets"]["radius"] == 4


def test_tauber_reads_llt_output(config_path, tmp_path):
    out = tmp_path / "o"
    assert run("llt", config_path, out) == 0
    with open(out / "q.csv", "a") as fh:
        fh.write("\n")  # a trailing blank line is skipped
    assert run("tauber", config_path, out, "--input", str(out / "q.csv")) == 0
    assert json.loads((out / "tauber.json").read_text())["input"]["beta"] == 1.0


def test_any_other_error_exits_one_with_manifest(config_path, tmp_path, capsys, monkeypatch):
    def broken(ctx):
        raise TypeError("a handler fault")

    monkeypatch.setitem(cli.COMMANDS, "validate", (broken, cli.COMMANDS["validate"][1]))
    out = tmp_path / "o"
    assert main(["validate", config_path, "--out", str(out)]) == 1
    assert "error: TypeError:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False


def test_automaton_c_below_one_exits_one_with_manifest(tmp_path, capsys):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["budgets"]["automaton_c"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["automaton", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "C >= 1, got C = 0" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False
    assert manifest["budgets"]["automaton_c"] == 0


def test_automaton_m_below_one_exits_one_with_manifest(tmp_path, capsys):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["budgets"]["automaton_mb"] = [0, 2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["automaton", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "m >= 1, got m = 0" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False
    assert manifest["budgets"]["automaton_mb"] == [0, 2]


@pytest.mark.parametrize("triples,extra", [(0, ()), (25, ("--series-order", "1"))],
                         ids=["no-triples", "series-order-1"])
def test_ancona_writes_an_infinite_worst_slack(tmp_path, triples, extra):
    """With no informative triple (none sampled, or fewer than three terms,
    so every tail is infinite) the worst signed slack is -inf, written as a
    string like the ratio bounds."""
    cfg = json.loads(json.dumps(CONFIG))
    cfg["budgets"]["triples"] = triples
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["ancona", str(path), "--out", str(out), *extra]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["triangle"]["worst_signed_slack"] == "-inf"

def test_coordinates_beyond_int16(tmp_path):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["measure"] = [["1:(40000)", "1/2"], ["1:(-40000)", "1/2"]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["radius", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0


def test_exact_outputs_byte_identical_across_runs(config_path, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run("llt", config_path, out) == 0
        assert run("green", config_path, out) == 0
        outs.append(out)
    for name in ("q.csv", "fit.json", "green.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_r_grid_flag(config_path, tmp_path):
    out = tmp_path / "o"
    assert run("green", config_path, out, "--r-grid", "0.2,0.5") == 0
    lines = (out / "green.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def write_config(tmp_path, **changes):
    cfg = json.loads(json.dumps(CONFIG))
    cfg.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def q_values(out):
    return [line.split(",")[1] for line in (out / "q.csv").read_text().splitlines()[1:]]


def test_exact_flag_overrides_a_float_config(tmp_path):
    path = write_config(tmp_path, arithmetic="float")
    assert main(["llt", path, "--out", str(tmp_path / "f")]) == 0
    assert main(["llt", path, "--out", str(tmp_path / "x"), "--exact"]) == 0
    assert q_values(tmp_path / "f")[2] == "0.3125"
    assert q_values(tmp_path / "x")[2] == "5/16"


def test_float_flag_overrides_an_exact_config(config_path, tmp_path):
    assert run("llt", config_path, tmp_path / "x") == 0
    assert run("llt", config_path, tmp_path / "f", "--float") == 0
    assert q_values(tmp_path / "x")[2] == "5/16"
    assert q_values(tmp_path / "f")[2] == "0.3125"


def test_exact_and_float_together_exit_one(config_path, tmp_path, capsys):
    assert run("llt", config_path, tmp_path / "o", "--exact", "--float") == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("ns, bad", [(range(5, 205), 5), (range(0, 400, 2), 2)])
def test_tauber_rejects_an_n_column_other_than_0_to_N(config_path, tmp_path, capsys,
                                                      ns, bad):
    csv_path = tmp_path / "q.csv"
    csv_path.write_text("n,q_n\n" + "".join(f"{n},{1.0 / (n + 1)}\n" for n in ns))
    out = tmp_path / "o"
    assert run("tauber", config_path, out, "--input", str(csv_path)) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and f"first bad n = {bad}" in err
    assert not (out / "tauber.json").exists()
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("grid", [{"fractions": []}, {"start": 0.2, "stop": 0.8, "count": 0}])
def test_empty_r_grid_exits_one_with_manifest(tmp_path, capsys, grid):
    path = write_config(tmp_path, r_grid=grid)
    for cmd in ("green", "ancona", "identities", "validate"):
        out = tmp_path / cmd
        assert main([cmd, path, "--out", str(out)]) == 1
        assert "config error: r_grid:" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


def test_parabolic_records_each_fraction_once(config_path, tmp_path):
    out = tmp_path / "o"
    assert run("parabolic", config_path, out, "--r-grid", "0.3,0.6") == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved_r"]
    assert resolved == [0.3 * resolved[-1], 0.6 * resolved[-1], resolved[-1]]
    report = json.loads((out / "parabolic.json").read_text())
    for factor in report["factors"]:
        assert [row["r"] for row in factor["rows"]] == resolved[:-1]


def test_tauber_beta_without_input_exits_one_with_manifest(config_path, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("tauber", config_path, out, "--beta", "0.5") == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "--beta" in err
    assert not (out / "tauber.json").exists()
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_tauber_non_finite_beta_exits_one_naming_it(config_path, tmp_path, capsys, beta):
    # checked before the input is read: the missing CSV is never opened
    out = tmp_path / "o"
    assert run("tauber", config_path, out, "--input", str(tmp_path / "missing.csv"),
               f"--beta={beta}") == 1
    err = capsys.readouterr().err
    assert "validation error: --beta must be a finite number" in err
    assert not (out / "tauber.json").exists()
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


def test_unknown_budget_key_exits_one_with_manifest(tmp_path, capsys):
    budgets = dict(CONFIG["budgets"], seris_order=8)
    path = write_config(tmp_path, budgets=budgets)
    out = tmp_path / "o"
    assert main(["validate", path, "--out", str(out)]) == 1
    assert "config error: budgets: unknown key 'seris_order'" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


# the flags each command reads, written out here independently of cli.COMMANDS
OPTIONS = {
    "--n-max": ["3"], "--truncation": ["3,3"], "--series-order": ["4"],
    "--r-grid": ["0.5"], "--memory-cap": ["1"], "--exact": [], "--float": [],
    "--out": ["o"], "--export-dot": [], "--input": ["q.csv"], "--beta": ["1.5"],
}
VALIDATE = {"--exact", "--float", "--memory-cap", "--out"}
RADIUS = VALIDATE | {"--n-max"}
CLASSIFY = RADIUS | {"--series-order"}
GREEN = CLASSIFY | {"--r-grid"}
ACCEPTS = {
    "validate": VALIDATE,
    "radius": RADIUS,
    "llt": RADIUS,
    "classify": CLASSIFY,
    "green": GREEN,
    "parabolic": GREEN,
    "ancona": GREEN,
    "identities": GREEN | {"--truncation"},
    "automaton": {"--export-dot", "--out"},
    "tauber": {"--input", "--beta", "--out"},
}


def test_each_command_accepts_only_the_flags_it_reads(capsys):
    parser = build_parser()
    accepted = rejected = 0
    for cmd, flags in ACCEPTS.items():
        for option, values in OPTIONS.items():
            argv = [cmd, "cfg.json", option, *values]
            if option in flags:
                assert parser.parse_args(argv).command == cmd, argv
                accepted += 1
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, argv
                assert "unrecognized arguments" in capsys.readouterr().err, argv
                rejected += 1
    assert (accepted, rejected) == (54, 56)


def test_a_flag_the_command_does_not_read_exits_one(capsys):
    argv = ["radius", "configs/f2-lazy.json", "--beta", "2", "--input",
            "nonexistent.csv", "--export-dot"]
    assert main(argv) == 1
    assert "unrecognized arguments: --beta 2 --input nonexistent.csv --export-dot" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[cmd, "--help"] for cmd in ACCEPTS])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage: freewalk" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ACCEPTS)
def test_a_missing_config_argument_exits_one(cmd, capsys):
    assert main([cmd]) == 1
    assert "the following arguments are required: config" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, number):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG).replace('"n_max": 12', f'"n_max": {number}'))
    with pytest.raises(ConfigError, match=f"cfg.json: non-finite number {number}"):
        load_config(str(path))
    assert main(["validate", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "config error:" in capsys.readouterr().err
    assert_config_error_manifest(tmp_path / "o")


@pytest.mark.parametrize("flags, grid", [
    (["--r-grid", "nan"], None),
    (["--r-grid", "-0.5"], None),
    (["--r-grid", "0.3,inf"], None),
    ([], {"fractions": [0.3, -0.1]}),
    ([], {"fractions": ["nan"]}),
    ([], {"start": -0.2, "stop": 0.8, "count": 3}),
])
def test_negative_or_non_finite_r_grid_exits_one_with_manifest(tmp_path, capsys, flags, grid):
    path = write_config(tmp_path, r_grid=grid) if grid else write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["green", path, "--out", str(out), *flags]) == 1
    assert "config error: r_grid:" in capsys.readouterr().err
    assert not (out / "green.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False


def test_r_grid_fraction_above_one_is_allowed(config_path, tmp_path):
    """r = 1.2 R-hat stays below the certified upper bound on R at n_max 12
    (1.3241 against R-hat = 1.0778, a fraction of 1.2285)."""
    assert run("green", config_path, tmp_path / "o", "--r-grid", "1.2") == 0


@pytest.mark.parametrize("cmd", ["green", "identities", "parabolic", "ancona"])
def test_r_grid_fraction_above_the_certified_bound_exits_one(config_path, tmp_path, capsys,
                                                             cmd):
    """r = 1.25 R-hat lies above the certified upper bound on R at n_max 12,
    where G(e, e | r) diverges: refused, naming the fraction and the bound."""
    out = tmp_path / "o"
    assert run(cmd, config_path, out, "--r-grid", "0.5,1.25") == 1
    err = capsys.readouterr().err
    assert "config error: r_grid: fraction 1.25 gives r = " in err
    assert "above the certified upper bound 1.324" in err and "(n_max 12)" in err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_memory_cap_exits_one_with_manifest(tmp_path, capsys, source):
    if source == "flag":
        path, flags = write_config(tmp_path), ["--memory-cap", "-1"]
    else:
        path, flags = write_config(tmp_path, budgets=dict(CONFIG["budgets"],
                                                          memory_cap_mb=-1)), []
    out = tmp_path / "o"
    assert main(["radius", path, "--out", str(out), *flags]) == 1
    assert "config error: memory_cap_mb: must be >= 0, got -1" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False


def test_green_sphere_sums_at_the_largest_r_whatever_the_grid_order(config_path, tmp_path):
    assert run("green", config_path, tmp_path / "up", "--r-grid", "0.3,0.8") == 0
    assert run("green", config_path, tmp_path / "down", "--r-grid", "0.8,0.3") == 0
    assert ((tmp_path / "up" / "spheres.csv").read_bytes()
            == (tmp_path / "down" / "spheres.csv").read_bytes())


@pytest.mark.parametrize("text", ["1", "1,2,3", "1,x", "-1,2", "2,0", ""])
def test_bad_truncation_flag_exits_one_with_manifest(config_path, tmp_path, capsys, text):
    out = tmp_path / "o"
    assert run("identities", config_path, out, f"--truncation={text}") == 1
    err = capsys.readouterr().err
    assert "config error: --truncation: expected m,B" in err and repr(text) in err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("value", [[1], [1, 2, 3], [-1, 2], [2, 0], [2.0, 2], [True, 2],
                                   "2,2", 2, None])
def test_bad_truncation_budget_exits_one_with_manifest(tmp_path, capsys, value):
    path = write_config(tmp_path, budgets=dict(CONFIG["budgets"], truncation=value))
    out = tmp_path / "o"
    assert main(["identities", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = f"config error: truncation: expected m,B with ints m >= 0 and B >= 1, got {value!r}"
    assert want in err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


@pytest.mark.parametrize("key,value,command", [
    ("automaton_c", True, "automaton"), ("automaton_c", 2.0, "automaton"),
    ("automaton_mb", [True, 3], "automaton"), ("automaton_mb", [4], "automaton"),
    ("automaton_mb", [3, 0], "automaton"),
    ("sample_ball", [True, True], "ancona"), ("sample_ball", [2.5, 3], "ancona"),
    ("sample_ball", [3], "ancona"), ("sample_ball", [-1, 3], "ancona"),
    ("window", [True, 20], "llt"), ("window", [10.5, 20], "llt"), ("window", "ab", "llt"),
    ("window", [0, 20], "llt"),
])
def test_bad_budget_pairs_exit_one_naming_the_key(tmp_path, capsys, key, value, command):
    path = write_config(tmp_path, budgets=dict(CONFIG["budgets"], **{key: value}))
    out = tmp_path / "o"
    assert main([command, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: expected " in err and f"got {value!r}" in err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 1


def test_truncation_flag_overrides_a_bad_budget(tmp_path):
    path = write_config(tmp_path, budgets=dict(CONFIG["budgets"], truncation=[1]))
    out = tmp_path / "o"
    assert main(["identities", path, "--out", str(out), "--truncation", "0,1",
                 "--series-order", "4"]) == 0
    assert json.loads((out / "manifest.json").read_text())["budgets"]["truncation"] == [0, 1]


@pytest.mark.parametrize("key,value,least", [
    ("radius", -1, 0), ("radius", 2.5, 0), ("radius", True, 0),
    ("kernel_order", -1, 1), ("h_ball", -1, 1), ("sphere_m", -1, 0), ("sphere_b", -1, 1),
    ("sphere_b", 0, 1), ("series_order", -1, 1), ("series_order", False, 1),
    ("horizon", 0, 1), ("horizon", "8", 1),
])
def test_bad_count_budget_exits_one_with_manifest(tmp_path, capsys, key, value, least):
    """Each of these once ran to exit 0 with a wrong result: G on a one-element
    table, an infinite kernel radius, empty or all-zero sphere sums, u_0 = 1."""
    path = write_config(tmp_path, budgets=dict(CONFIG["budgets"], **{key: value}))
    out = tmp_path / "o"
    assert main(["green", path, "--out", str(out)]) == 1
    assert (f"config error: {key}: expected an int >= {least}, got {value!r}"
            in capsys.readouterr().err)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False


@pytest.mark.parametrize("command,key,value,message", [
    ("ancona", "triples", -3, "expected an int >= 0"),
    ("ancona", "triples", 2.5, "expected an int >= 0"),
    ("validate", "depth", -1, "expected an int >= 0"),
    ("validate", "depth", 2.5, "expected an int >= 0"),
    ("radius", "n_max", 2.5, "expected an int >= 0"),
    ("radius", "n_max", True, "expected an int >= 0"),
    ("radius", "memory_cap_mb", True, "expected null or an int >= 0"),
    ("radius", "memory_cap_mb", 1.5, "expected null or an int >= 0"),
])
def test_bad_walk_budget_exits_one_under_its_own_name(tmp_path, capsys, command, key, value,
                                                      message):
    """Each of these once exited 0 as if clamped, failed under another key's
    name, or ended in a bare TypeError."""
    path = write_config(tmp_path, budgets=dict(CONFIG["budgets"], **{key: value}))
    out = tmp_path / "o"
    assert main([command, path, "--out", str(out)]) == 1
    assert f"config error: {key}: {message}, got {value!r}" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["partial"] is False


def test_series_order_flag_below_one_exits_one(config_path, tmp_path, capsys):
    assert run("green", config_path, tmp_path / "o", "--series-order", "0") == 1
    assert "config error: series_order: expected an int >= 1, got 0" in capsys.readouterr().err

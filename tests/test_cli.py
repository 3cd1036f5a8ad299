import fcntl
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovlab import seminorms
from besovlab.cli import FUNCTIONALS, main
from besovlab.errors import InputError
from besovlab.experiments import default_config, json_text, validate_config
from besovlab.fields import FIELDS, REGIONS, RegionSpec, make_field
from besovlab.kernels import KERNELS
from besovlab.mollifiers import MOLLIFIERS, make_mollifier


def test_print_defaults_all_kinds(capsys):
    assert main(["print-defaults"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"kernel_audit", "constants", "sandwich",
                        "kernel_equivalence", "jump_chain", "interpolation",
                        "truncation_convergence", "bounds_audit"}
    assert main(["print-defaults", "--kind", "jump_chain"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert one["field"] == {"name": "step_1d"}


def test_constants_command(capsys, tmp_path):
    assert main(["constants", "--dim", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4.0000000000" in out
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data[0]["moment1"] == 4.0
    assert data[0]["nc_residual"] <= 1e-8


def test_kernel_check_csv(capsys, tmp_path):
    assert main(["kernel-check", "--family", "logarithmic", "--omega", "0.5",
                 "--dim", "2", "--out", str(tmp_path)]) == 0
    path = tmp_path / "kernel_audit_logarithmic_N2.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["neg_log_eps", "epsilon", "mass", "mass_err"]
    assert any(h.startswith("tail_") for h in header)
    assert any(h.startswith("moment_") for h in header)
    assert len(lines) == 11  # header + 10 sweep points


def test_seminorm_record(capsys):
    assert main(["seminorm", "--functional", "besov-constant",
                 "--epsilon", "0.05"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["functional"] == "besov-constant"
    assert rec["epsilon"] == 0.05
    assert rec["value"] == pytest.approx(2.0, rel=1e-6)
    assert "error" in rec and "provenance" in rec


def test_sweep_csv(capsys):
    assert main(["sweep", "--functional", "spherical-variation"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epsilon,value,error,flag"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert float(first[1]) == pytest.approx(4.0, rel=1e-6)


def test_experiment_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "jump_chain",
                               "params": {"q": 2.0, "r": 1.5}}))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "params.r" in err


def test_validate_config_paths():
    with pytest.raises(InputError, match="kind"):
        validate_config({"kind": "nope"})
    with pytest.raises(InputError, match="params.p"):
        validate_config({"kind": "interpolation", "params": {"q": 2.0, "p": 1.0}})
    with pytest.raises(InputError, match="eps_grid.count"):
        validate_config({"kind": "jump_chain",
                         "eps_grid": {"eps0": 0.2, "ratio": 0.5, "count": 2}})
    with pytest.raises(InputError, match="gagliardo_grid.ratio"):
        validate_config({"kind": "jump_chain",
                         "gagliardo_grid": {"eps0": 0.1, "ratio": 1.5, "count": 8}})
    with pytest.raises(InputError, match="gagliardo_grid.count"):
        validate_config({"kind": "jump_chain",
                         "gagliardo_grid": {"eps0": 0.1, "ratio": 0.5, "count": 3}})
    with pytest.raises(InputError, match="unknown config key"):
        validate_config({"kind": "jump_chain", "mystery": 1})
    with pytest.raises(InputError, match="budget: must be an object"):
        validate_config({"kind": "jump_chain", "budget": 5})
    # every kind that pins r = 1/q rejects another r
    for kind in ("sandwich", "kernel_equivalence", "jump_chain",
                 "truncation_convergence"):
        with pytest.raises(InputError, match="params.r"):
            validate_config({"kind": kind, "params": {"q": 2.0, "r": 0.3}})
    with pytest.raises(InputError, match="params.kernel_index"):
        validate_config({"kind": "jump_chain", "params": {"q": 2.0, "kernel_index": 1.0}})
    cfg = validate_config({"kind": "jump_chain", "params": {"q": 2.0, "r": 0.5}})
    assert cfg.tolerance == 0.10


def test_config_sections_take_the_omitted_defaults(tmp_path, capsys):
    cfg = validate_config({"kind": "jump_chain", "eps_grid": {"ratio": 0.5, "count": 6},
                           "budget": {"target_rel_error": 0.02}})
    assert cfg.eps_grid == {"eps0": 0.2, "ratio": 0.5, "count": 6}
    budget = cfg.setup().budget
    assert (budget.max_evaluations, budget.target_rel_error) == (200_000, 0.02)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "jump_chain",
                                "eps_grid": {"ratio": 0.5, "count": 6}}))
    assert main(["sweep", "--functional", "spherical-variation", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7 and float(lines[1].split(",")[0]) == 0.2


@pytest.mark.parametrize("section, path", [
    ({"budget": {"max_evals": 5}}, "budget.max_evals"),
    ({"params": {"q": 2.0, "rr": 0.3}}, "params.rr"),
    ({"eps_grid": {"eps_0": 0.1}}, "eps_grid.eps_0"),
    ({"gagliardo_grid": {"size": 4}}, "gagliardo_grid.size"),
])
def test_config_sections_reject_unknown_keys(section, path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "jump_chain", **section}))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{path}: not a parameter" in capsys.readouterr().err


@pytest.mark.parametrize("section, message", [
    ({"gagliardo_grid": {"eps0": -0.1}}, "gagliardo_grid.eps0: must be positive and finite"),
    ({"eps_grid": {"ratio": "x"}}, "eps_grid.ratio: must be a number"),
    ({"eps_grid": {"count": 6.5}}, "eps_grid.count: must be an integer"),
    ({"seed": "x"}, "seed: must be an integer"),
    ({"budget": {"max_evaluations": 0}}, "budget.max_evaluations: must be >= 1"),
    ({"budget": {"target_rel_error": "x"}}, "budget.target_rel_error: must be a number"),
    ({"field": {"name": "step_1d", "amplitude": "x"}}, "field.amplitude: must be a number"),
    ({"region": {"kind": "box", "lo": [-1], "hi": ["x"]}}, "region.hi[0]: must be a number"),
    ({"kind": "truncation_convergence", "truncation_levels": ["x"]},
     "truncation_levels[0]: must be a number"),
    ({"kind": "bounds_audit", "split_combos": [[0.05]]}, "split_combos[0]: must be three numbers"),
])
def test_bad_grid_budget_or_seed_exits_2_before_any_file(section, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "jump_chain", **section}))
    out = tmp_path / "o"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([1], "config: must be an object"),
    ({"kind": ["jump_chain"]}, "kind: must be one of"),
    ({"kind": "jump_chain", "mollifier": {"kind": "mix", "components": [[1.0, {"kind": "tent"}]]}},
     "mollifier.components: must be (number, MollifierSpec) pairs"),
    ({"kind": "jump_chain", "field": {"name": "disk_2d", "center": 0.5}},
     "field.center: must be a list"),
    ({"kind": "jump_chain", "field": {"name": "box_2d", "lo": [-0.5], "hi": [0.5]}},
     "field.lo: must have 2 coordinates"),
    ({"kind": "jump_chain", "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 3.0}},
     "region: must have the field's dimension, 1"),
    ({"kind": "jump_chain", "region": {"kind": "ball", "center": 0.5, "radius": 2.0}},
     "region.center: must be a list"),
    ({"kind": "jump_chain", "region": {"kind": "half_space", "normal": [1.0], "offset": 3.0}},
     "region: must be bounded"),
    ({"kind": "bounds_audit", "region": {"kind": "complement",
                                         "inner": {"kind": "box", "lo": [-1.0], "hi": [2.0]}}},
     "region: must be bounded"),
])
def test_a_malformed_config_exits_2_before_any_file(config, message, tmp_path, capsys):
    # each once ended in a traceback, or failed only after the output
    # directory existed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, message", [
    ({"mollifier": {"kind": "tent", "width": 2}}, "mollifier.width: not a parameter"),
    ({"field": {"name": "disk_2d", "radus": 0.3}}, "field.radus: not a parameter"),
    ({"region": {"kind": "ball", "center": [0.5], "radius": 2.0, "radus": 3.0}},
     "region.radus: not a parameter"),
    ({"region": {"kind": "box", "lo": [-1.0], "hi": [2.0], "lo2": [-2.0]}},
     "region.lo2: not a parameter"),
    ({"region": {"kind": "union", "parts": [{"kind": "box", "lo": [-1.0], "hi": [2.0]}],
                 "extra": 1}}, "region.extra: not a parameter"),
    ({"kernels": [{"kind": "logarithmic", "omega": 0.5, "sigma_ratio": 0.25}]},
     "kernels[0].sigma_ratio: not a parameter"),
    ({"kernels": [{"kind": "trivial", "omega": 0.5}]}, "kernels[0].omega: not a parameter"),
    ({"kernels": [{"kind": "trivial", "sigma_ratio": 0.25}]},
     "kernels[0].sigma_ratio: not a parameter"),
    ({"kernels": [{"kind": "sigma_approx", "omega": 0.5}]}, "kernels[0].omega: not a parameter"),
])
def test_a_key_the_constructor_does_not_read_exits_2(section, message, tmp_path, capsys):
    # before, each typo was dropped: the plain tent, a disk of radius 0.5,
    # the region and kernels without the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "jump_chain", **section}))
    out = tmp_path / "o"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, path", [
    ({"field": {"name": "nope"}}, "field.name: unknown field name 'nope'"),
    ({"params": {"q": 0.5}}, "params.q: must be >= 1"),
    ({"params": {"q": 0}}, "params.q: must be >= 1"),
    ({"kind": "bounds_audit", "params": {"q": 2.0, "r": 1.5}}, "params.r: must lie in (0, 1)"),
    ({"mollifier": {"kind": "nope"}}, "mollifier.kind: unknown mollifier kind"),
    ({"region": {"kind": "box", "lo": [-1.0]}}, "region: missing key 'hi'"),
    ({"kernels": [{"kind": "trivial"}, {"kind": "logarithmic", "omega": 2.0}]},
     "kernels[1].omega: must lie in (0, 1)"),
    ({"field": "step_1d"}, "field: must be an object"),
])
def test_validation_builds_every_section(config, path):
    with pytest.raises(InputError) as exc:
        validate_config({"kind": "jump_chain", **config})
    assert str(exc.value).startswith(path)


# a value for each builder parameter that has no default
_REQUIRED = {"lo": [-1.0], "hi": [2.0], "center": [0.5], "radius": 2.0, "normal": [1.0],
             "offset": 3.0, "inner": {"kind": "ball", "center": [0.5], "radius": 2.0},
             "parts": [{"kind": "box", "lo": [-1.0], "hi": [2.0]}], "omega": 0.5,
             "components": [(1.0, make_mollifier("tent"))]}
# section -> (kind key, builders, the public call that builds it from a spec)
_SECTIONS = {
    "field": ("name", FIELDS, lambda spec: make_field(**spec)),
    "mollifier": ("kind", MOLLIFIERS, lambda spec: make_mollifier(**spec)),
    "region": ("kind", REGIONS, RegionSpec.from_dict),
    "kernels[0]": ("kind", KERNELS, lambda spec: validate_config(
        {"kind": "jump_chain", "kernels": [spec]}).build_kernels(1)[0]),
}


@given(st.sampled_from([(sec, kind) for sec, (_, table, _) in _SECTIONS.items()
                        for kind in table]),
       st.from_regex(r"[a-z][a-z_0-9]{0,11}", fullmatch=True))
@settings(max_examples=60, deadline=None)
def test_every_builder_takes_its_parameters_and_refuses_other_keys(case, key):
    section, kind = case
    kind_key, table, build = _SECTIONS[section]
    params = inspect.signature(table[kind]).parameters
    assume(key not in {*params, "name", "kind", "dim"})
    spec = {kind_key: kind, **{k: _REQUIRED[k] for k, p in params.items()
                               if p.default is p.empty and k != "dim"}}
    built = build(spec)
    if section == "region":
        assert RegionSpec.from_dict(built.to_dict()) == built
    with pytest.raises(InputError) as exc:
        build({**spec, key: 1.0})
    assert str(exc.value).startswith(f"{section}.{key}: not a parameter")


def test_seed_option_passes_through_validation(tmp_path):
    # the config file and the --seed override are one validated dict
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "constants", "dims": [2], "seed": 3}))
    assert main(["--seed", "7", "experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["seed"] == 7


def test_experiment_interpolation_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "interpolation",
                               "params": {"q": 2.0, "r": 0.5, "p": 3.0}}))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["verdicts"][0]["terms"]["lhs"] == pytest.approx(2.0, abs=1e-9)
    for term in summary["terms"].values():
        assert {"value", "error", "provenance"} <= set(term)


def test_installed_entry_point():
    out = subprocess.run([sys.executable, "-m", "besovlab.cli",
                          "print-defaults", "--kind", "constants"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["kind"] == "constants"


def test_closed_pipe_ends_quietly():
    # the reader takes one line and closes the pipe while the command still
    # writes: a one-page pipe cannot hold the 8.7 kB of all default configs,
    # so the command is blocked in its write when the reader goes
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "besovlab.cli", "print-defaults"],
                            stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    line = b""
    while not line.endswith(b"\n"):
        line += os.read(read, 1)
    os.close(read)
    _, err = proc.communicate(timeout=60)
    assert line == b"{\n"
    assert (proc.returncode, err) == (0, b"")


def test_json_text_writes_numpy_values_as_plain_json():
    obj = {"f": np.float64(0.25), "i": np.int64(3), "b": np.bool_(True),
           "a": np.array([[1.5, 2.0]]), "n": [np.int64(-1), np.bool_(False)]}
    text = json_text(obj)
    assert text == '{"a": [[1.5, 2.0]], "b": true, "f": 0.25, "i": 3, "n": [-1, false]}'
    assert json.loads(text) == {"a": [[1.5, 2.0]], "b": True, "f": 0.25, "i": 3,
                                "n": [-1, False]}


def test_default_config_rejects_unknown_kind():
    with pytest.raises(InputError):
        default_config("mystery")


def test_experiment_emits_sweep_and_plot_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "kernel_equivalence",
        "eps_grid": {"eps0": 0.2, "ratio": 0.5, "count": 4},
        "gagliardo_grid": {"eps0": math.exp(-2), "ratio": math.exp(-1), "count": 4},
    }))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert any(n.startswith("sweep_") and n.endswith(".csv") for n in names)
    assert any(n.startswith("plot_") and n.endswith(".csv") for n in names)
    plot = next(p for p in (tmp_path / "o").iterdir() if p.name.startswith("plot_"))
    assert plot.read_text().splitlines()[0] == "x,y,label"


def test_region_restricted_chain_validates_jump_clearance(tmp_path):
    # a region whose boundary sits on a jump point is rejected up front
    bad = {"kind": "jump_chain",
           "region": {"kind": "box", "lo": [0.0], "hi": [3.0]}}
    cfg = tmp_path / "bad_region.json"
    cfg.write_text(json.dumps(bad))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    good = {"kind": "jump_chain",
            "region": {"kind": "box", "lo": [-0.7], "hi": [1.9]},
            "eps_grid": {"eps0": 0.1, "ratio": 0.5, "count": 6}}
    cfg2 = tmp_path / "good_region.json"
    cfg2.write_text(json.dumps(good))
    rc = main(["experiment", "--config", str(cfg2), "--out", str(tmp_path / "o2")])
    assert rc == 0


def test_a_1d_ball_region_chain_passes(tmp_path):
    # a 1D ball is the interval c +- r: the chain passes, and each term is
    # within its error of the one over the box [c - r, c + r]
    terms = []
    for region in ({"kind": "ball", "center": [0.5], "radius": 2.0},
                   {"kind": "box", "lo": [-1.5], "hi": [2.5]}):
        cfg = tmp_path / f"{region['kind']}.json"
        cfg.write_text(json.dumps({"kind": "jump_chain", "region": region}))
        out = tmp_path / region["kind"]
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        terms.append(json.loads((out / "summary.json").read_text())["terms"])
    ball, box = terms
    assert ball.keys() == box.keys()
    for name in ball:
        assert abs(ball[name]["value"] - box[name]["value"]) \
            <= ball[name]["error"] + box[name]["error"], name


def test_constants_experiment_kind(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "constants", "dims": [2]}))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    table = summary["terms"]["N2"]["table"]
    assert table["moment1"] == 4.0
    assert table["C_N"] == 2.0
    assert table["nc_residual"] <= 1e-8


def test_three_kernel_equivalence_experiment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "kernel_equivalence",
        "kernels": [{"kind": "trivial"},
                    {"kind": "logarithmic", "omega": 0.5},
                    {"kind": "sigma_approx", "sigma_ratio": 0.5}],
        "eps_grid": {"eps0": 0.2, "ratio": 0.5, "count": 6},
    }))
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    terms = {k: v["value"] for k, v in summary["terms"].items()}
    assert len([k for k in terms if k.startswith("besov_constant")]) == 3
    for v in terms.values():
        assert v == pytest.approx(4.0, rel=0.02)


def test_sweep_gagliardo_constant_grid(capsys):
    assert main(["sweep", "--functional", "gagliardo-constant"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9   # header + 8 rows of the gagliardo grid
    eps0 = float(lines[1].split(",")[0])
    assert eps0 == pytest.approx(math.exp(-2.0))


def test_kernel_index_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "jump_chain",
                               "params": {"q": 2.0, "kernel_index": 5}}))
    rc = main(["seminorm", "--functional", "besov-constant", "--epsilon", "0.05",
               "--config", str(cfg)])
    assert rc == 2
    assert "params.kernel_index" in capsys.readouterr().err


def test_empty_kernels_rejected_by_seminorm(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "jump_chain", "kernels": []}))
    rc = main(["seminorm", "--functional", "besov-constant", "--epsilon", "0.05",
               "--config", str(cfg)])
    assert rc == 2
    assert "kernels: must be a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["truncation_convergence", "kernel_equivalence"])
def test_empty_kernels_rejected_by_experiment(kind, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, "kernels": []}))
    out = tmp_path / "o"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "kernels: must be a non-empty list" in capsys.readouterr().err
    assert not out.exists()


# each CLI functional called directly on the config's set-up
_DIRECT = {
    "gagliardo-seminorm": lambda s, eps: seminorms.gagliardo_seminorm_q(
        s.field, s.params, budget=s.budget),
    "besov-seminorm": lambda s, eps: seminorms.besov_seminorm_q(s.field, s.params,
                                                                budget=s.budget),
    "brq": lambda s, eps: seminorms.brq_double_integral(s.field, s.params, eps,
                                                        budget=s.budget),
    "directional-variation": lambda s, eps: seminorms.directional_variation(
        s.field, s.params, [1.0], eps, budget=s.budget),
    "spherical-variation": lambda s, eps: seminorms.spherical_variation(
        s.field, s.params, eps, budget=s.budget),
    "besov-constant": lambda s, eps: seminorms.besov_constant_at(
        s.field, s.params, s.kernels[0], eps, budget=s.budget),
    "gagliardo-constant": lambda s, eps: seminorms.gagliardo_constant_at(
        s.field, s.mollifier, s.params, eps, budget=s.budget),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_seminorm_command_matches_direct_call(name, tmp_path, capsys):
    # at r = 0.3 every functional converges on the step
    config = {"kind": "bounds_audit", "params": {"q": 2.0, "r": 0.3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["seminorm", "--functional", name, "--epsilon", "0.05",
                 "--config", str(cfg)]) == 0
    rec = json.loads(capsys.readouterr().out)
    direct = _DIRECT[name](validate_config(config).setup(), 0.05)
    assert (rec["value"], rec["error"], rec["provenance"]) == \
        (direct.value, direct.error_estimate, direct.provenance)

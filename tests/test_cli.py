import os
import subprocess
import sys

import numpy as np
import pytest

import subinf
from subinf import cli, fieldio

LINE_CFG = """\
[problem]
geometry = euclidean:1
lower = 0
upper = 1
h = 0.125
boundary = linear:1

[solver]
k_max = 16
"""

PLANE_CFG = """\
[problem]
geometry = euclidean:2
lower = 0 0
upper = 1 1
h = 0.25
boundary = linear:1,-0.5

[solver]
k_max = 8
"""

H1_CFG = """\
[problem]
geometry = heisenberg1
lower = -1 -1 -1
upper = 1 1 1
h = 0.5
boundary = linear:1,0,0

[solver]
k_max = 8
"""

ARONSSON_CFG = """\
[problem]
geometry = euclidean:2
lower = -1 -1
upper = 1 1
h = 0.125
boundary = aronsson43
integrand = {integrand}

[solver]
k_max = 8
cross_tolerance = 1
"""


def write_cfg(tmp_path, text, name="prob.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_writes_field_and_deterministic_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["solve", cfg, "-o", out1]) == 0
    assert cli.main(["solve", cfg, "-o", out2]) == 0
    m1 = open(os.path.join(out1, "manifest.txt"), "rb").read()
    m2 = open(os.path.join(out2, "manifest.txt"), "rb").read()
    assert m1 == m2
    f1 = open(os.path.join(out1, "solution.field"), "rb").read()
    f2 = open(os.path.join(out2, "solution.field"), "rb").read()
    assert f1 == f2
    u = fieldio.read_field(os.path.join(out1, "solution.field"))
    x = u.domain.coords[:, 0]
    assert np.max(np.abs(u.values - x)) < 1e-5
    assert "converged" in capsys.readouterr().out


def test_solve_manifest_records_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "run")
    assert cli.main(["solve", cfg, "-o", out, "--seed", "5"]) == 0
    text = open(os.path.join(out, "manifest.txt")).read()
    assert "config.seed = 5" in text
    assert "config.solver.k_max = 16" in text
    assert "config.integrand = squared_norm" in text
    assert "command = solve" in text
    assert "result.converged = true" in text
    assert "result.level.2.stop = gradient_tolerance" in text
    assert "result.level.4.iterations = " in text
    assert "result.level.4.residual = " in text
    assert "result.level.2.change = none" in text
    for key in ("cg_iterations", "energy_start", "energy_end", "change", "scale"):
        assert f"result.level.4.{key} = " in text
    # linear data: the level's start is the answer, with slope 1 in every cell
    assert "result.level.4.unseen = 0" in text


def test_manifest_totals_are_the_level_lines(tmp_path, capsys):
    """result.iterations and result.residual, which the benchmark reads,
    are the sum of the level iterations and the last level's residual."""
    cfg = write_cfg(tmp_path, PLANE_CFG.replace("linear:1,-0.5", "aronsson43"))
    out = tmp_path / "out"
    cli.main(["solve", cfg, "-o", str(out)])
    lines = (out / "manifest.txt").read_text().splitlines()
    man = dict(line.split(" = ", 1) for line in lines)
    ks = sorted(int(key.split(".")[2]) for key in man
                if key.startswith("result.level.") and key.endswith(".stop"))
    assert len(ks) >= 2
    total = sum(int(man[f"result.level.{k}.iterations"]) for k in ks)
    assert total > 0 and man["result.iterations"] == str(total)
    assert man["result.residual"] == man[f"result.level.{ks[-1]}.residual"]
    assert not any(key.startswith("result.k_schedule") for key in man)
    assert f"after {total} iterations over k = {ks}" in capsys.readouterr().out


def test_solve_reports_nonconvergence_with_exit_3(tmp_path, capsys):
    text = PLANE_CFG.replace("boundary = linear:1,-0.5", "boundary = aronsson43")
    text = text.replace("k_max = 8", "k_max = 8\nmax_iterations = 1")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["solve", cfg, "-o", str(tmp_path / "out")]) == 3
    assert "NOT converged" in capsys.readouterr().out
    text = (tmp_path / "out" / "manifest.txt").read_text()
    for k in (2, 4, 8):
        assert f"result.level.{k}.stop = budget" in text
        assert f"result.level.{k}.iterations = 1" in text
    assert ("result.message = k=2: budget; k=4: budget; k=8: budget; "
            "k schedule exhausted before cross-level tolerance\n") in text


def test_solve_with_an_eps_too_large_for_its_scale_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_CFG.replace("boundary = linear:1",
                                               "boundary = linear:1\neps = 1e16"))
    assert cli.main(["solve", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: eps = 1e+16 sets the scale of a level" in err
    assert "eps must be below 1e+16" in err


@pytest.mark.parametrize("key", ["armijo_c = 1e-4", "armijo_shrink = 0.5",
                                 "deterministic = true", "max_backtracks = 60",
                                 "k_schedule = 3 5 9"])
def test_removed_solver_keys_exit_2(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, LINE_CFG + key + "\n")
    assert cli.main(["solve", cfg, "-o", str(tmp_path / "out")]) == 2
    assert "unknown field '%s'" % key.split()[0] in capsys.readouterr().err


def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_CFG.replace("euclidean:1", "torus"))
    assert cli.main(["solve", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "field 'geometry'" in err
    assert "line 2" in err


def test_a_nan_integrand_exponent_exits_2(tmp_path, capsys):
    """NaN passes a plain alpha < 1 test; a solve with it would print
    residual nan and exit 3."""
    cfg = write_cfg(tmp_path, LINE_CFG.replace("h = 0.125", "h = 0.25").replace(
        "k_max = 16", "k_max = 4").replace("boundary = linear:1",
                                           "boundary = linear:1\nintegrand = power:nan"))
    assert cli.main(["solve", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 7: field 'integrand'" in err
    assert "1 <= alpha < inf" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_distance_single_pair_and_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = str(tmp_path / "d")
    code = cli.main(["distance", cfg, "-o", out,
                     "--source", "0,0", "--target", "1,0"])
    assert code == 0
    assert "d_cc = 1" in capsys.readouterr().out
    code = cli.main(["distance", cfg, "-o", out])
    assert code == 0
    lines = open(os.path.join(out, "distance.txt")).read().splitlines()
    assert lines[1] == "# x0 x1 d_cc"
    assert len(lines) == 2 + 25
    assert "distance.edges" in open(os.path.join(out, "manifest.txt")).read()


def test_distance_bad_point_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    assert cli.main(["distance", cfg, "-o", str(tmp_path / "d"),
                     "--source", "0,0,0"]) == 2
    assert "--source" in capsys.readouterr().err


def test_distance_depth_above_2_exits_2_without_a_manifest(tmp_path, capsys):
    """The move set stops at two-leg moves, so depth 3 would build the depth-2 graph."""
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = tmp_path / "d"
    assert cli.main(["distance", cfg, "-o", str(out), "--depth", "3"]) == 2
    assert "graph depth must be at most 2" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_distance_point_outside_the_box_exits_2(tmp_path, capsys):
    """On [0,1]^2 at h = 1/4 a point may lie up to h/2 outside the box."""
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = str(tmp_path / "d")
    assert cli.main(["distance", cfg, "-o", out, "--source", "0,0", "--target", "7,7"]) == 2
    err = capsys.readouterr().err
    assert "--target 7,7" in err and "outside the box" in err
    assert cli.main(["distance", cfg, "-o", out, "--source=-0.13,0.5"]) == 2
    assert "--source -0.13,0.5" in capsys.readouterr().err
    assert cli.main(["distance", cfg, "-o", out, "--source=-0.12,0.5",
                     "--target", "1.12,1"]) == 0
    assert "between nodes 2 and 24" in capsys.readouterr().out


def test_convolve_writes_field_and_gap(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = str(tmp_path / "c")
    assert cli.main(["convolve", cfg, "-o", out, "--eps", "0.05"]) == 0
    rep = fieldio.read_field(os.path.join(out, "sup_convolution.field"))
    assert rep.domain.dims == (5, 5)
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "convolve.mode = sup" in manifest
    assert "convolve.eps = 0.05" in manifest
    assert cli.main(["convolve", cfg, "-o", out, "--eps", "0.05",
                     "--mode", "inf"]) == 0
    assert os.path.exists(os.path.join(out, "inf_convolution.field"))


def test_convolve_on_grushin_exits_2_and_names_the_group_law(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG.replace("euclidean:2", "grushin"))
    assert cli.main(["convolve", cfg, "-o", str(tmp_path / "c"), "--eps", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "convolution needs a group law; grushin has none" in err
    assert "inverse" not in err


def test_verify_viscosity_passes_on_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "v")
    assert cli.main(["verify", cfg, "-o", out, "--check", "viscosity",
                     "--jets", "16"]) == 0
    assert "certified jets" in capsys.readouterr().out


def test_verify_viscosity_records_the_candidates_it_ran(tmp_path, capsys):
    """Random jets come in sign pairs, so --jets 3 runs 4 besides the 15 fixed."""
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = tmp_path / "v"
    assert cli.main(["verify", cfg, "-o", str(out), "--check", "viscosity",
                     "--jets", "3"]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "verify.jets = 3" in manifest
    assert "verify.candidates = 19" in manifest


def _no_solve(cfg):
    raise AssertionError("the solve ran before the options were checked")


def test_verify_negative_jets_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_solve_problem", _no_solve)
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "v")
    assert cli.main(["verify", cfg, "-o", out, "--check", "viscosity",
                     "--jets", "-1"]) == 2
    assert "argument --jets: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_ratio_tol_must_be_positive_and_finite(tmp_path, capsys, monkeypatch, value):
    """A NaN ratio tolerance failed every check, after the whole solve."""
    monkeypatch.setattr(cli, "_solve_problem", _no_solve)
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "v")
    assert cli.main(["verify", cfg, "-o", out, "--check", "amle",
                     "--ratio-tol", value]) == 2
    assert f"argument --ratio-tol: must be positive and finite, got {value}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("check", ["viscosity", "amle"])
def test_negative_seed_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, check):
    """numpy's generators take no negative seed, from the config or --seed."""
    monkeypatch.setattr(cli, "_solve_problem", _no_solve)
    out = str(tmp_path / "v")
    cfg = write_cfg(tmp_path, LINE_CFG.replace("linear:1\n", "linear:1\nseed = -3\n"))
    assert cli.main(["verify", cfg, "-o", out, "--check", check]) == 2
    assert "line 7: field 'seed' must be nonnegative, got -3" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, LINE_CFG)
    assert cli.main(["verify", cfg, "-o", out, "--check", check, "--seed", "-2"]) == 2
    assert "argument --seed: must be at least 0, got -2" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["viscosity", "subelliptic"])
def test_verify_does_not_depend_on_the_integrand_spelling(tmp_path, check):
    """squared_norm and power:2 name one integrand, so one operator."""
    verified = []
    for spelling in ("squared_norm", "power:2"):
        cfg = write_cfg(tmp_path, ARONSSON_CFG.format(integrand=spelling))
        out = tmp_path / spelling.replace(":", "_")
        assert cli.main(["verify", cfg, "-o", str(out), "--check", check]) == 0
        verified.append([line for line in (out / "manifest.txt").read_text()
                         .splitlines() if line.startswith("verify.")])
    assert verified[0] == verified[1]
    assert "verify.passed = true" in verified[0]


def test_verify_records_a_solve_that_did_not_converge(tmp_path, capsys):
    """Every level meets its gradient tolerance, but k = 8 is far from the
    cross-level one: the check does not run, and the manifest says why."""
    cfg = write_cfg(tmp_path, PLANE_CFG.replace("lower = 0 0", "lower = -1 -1")
                    .replace("linear:1,-0.5", "aronsson43"))
    out = tmp_path / "v"
    assert cli.main(["verify", cfg, "-o", str(out), "--check", "viscosity"]) == 3
    assert "solve did not converge" in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "verify.check = viscosity" in manifest
    assert "result.converged = false" in manifest
    assert "result.level.8.stop = gradient_tolerance" in manifest
    assert not any(line.startswith("verify.passed") for line in manifest)


def test_verify_subelliptic_and_amle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "v")
    assert cli.main(["verify", cfg, "-o", out, "--check", "subelliptic",
                     "--trials", "200"]) == 0
    assert cli.main(["verify", cfg, "-o", out, "--check", "amle",
                     "--trials", "5"]) == 0
    txt = capsys.readouterr().out
    assert "subelliptic" in txt and "amle" in txt


def test_table_full_dump_and_axis_line(tmp_path):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = str(tmp_path / "t2")
    assert cli.main(["table", cfg, "-o", out]) == 0
    lines = open(os.path.join(out, "solution.txt")).read().splitlines()
    assert lines[1] == "# x0 x1 u"
    assert len(lines) == 2 + 25

    cfg3 = write_cfg(tmp_path, H1_CFG, name="h1.cfg")
    out3 = str(tmp_path / "t3")
    assert cli.main(["table", cfg3, "-o", out3, "--axis", "2"]) == 0
    lines = open(os.path.join(out3, "solution.txt")).read().splitlines()
    assert lines[1] == "# x2 u"
    assert len(lines) == 2 + 5
    assert cli.main(["table", cfg3, "-o", out3, "--axis", "7"]) == 2


@pytest.mark.parametrize("axis", ["3", "-1"])
def test_table_axis_out_of_range_exits_2_before_the_solve(tmp_path, capsys,
                                                          monkeypatch, axis):
    monkeypatch.setattr(cli, "_solve_problem", _no_solve)
    out = tmp_path / "t"
    for name, text, top in (("h1.cfg", H1_CFG, 2), ("plane.cfg", PLANE_CFG, 1)):
        cfg = write_cfg(tmp_path, text, name=name)
        assert cli.main(["table", cfg, "-o", str(out), "--axis", axis]) == 2
        assert f"--axis must be in [0, {top}], got {axis}" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()


def test_acceptance_only_subset(tmp_path, capsys):
    out = str(tmp_path / "acc")
    assert cli.main(["acceptance", "-o", out, "--only", "A1"]) == 0
    txt = capsys.readouterr().out
    assert "A1" in txt and "pass" in txt
    assert "1/1 criteria passed" in txt
    assert os.path.exists(os.path.join(out, "acceptance_summary.txt"))


def test_acceptance_unknown_name_exits_2(tmp_path, capsys):
    assert cli.main(["acceptance", "-o", str(tmp_path / "acc"),
                     "--only", "A99"]) == 2
    assert "A99" in capsys.readouterr().err


def test_acceptance_takes_no_seed(tmp_path, capsys):
    """The suite's seeds live in its configs; a --seed it would not read is refused."""
    assert cli.main(["acceptance", "-o", str(tmp_path / "acc"), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "acc").exists()


def test_acceptance_empty_config_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["acceptance", "-o", str(tmp_path / "acc"),
                     "--configs", str(empty)]) == 2
    assert "config" in capsys.readouterr().err


def test_thread_cap_env(monkeypatch):
    for var in subinf._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("SUBINF_THREADS", "2")
    subinf._apply_thread_cap()
    for var in subinf._THREAD_VARS:
        assert os.environ[var] == "2"
    monkeypatch.setenv("SUBINF_THREADS", "owl")
    with pytest.raises(SystemExit):
        subinf._apply_thread_cap()


@pytest.mark.parametrize("entry", ["subinf", "subinf.cli"])
def test_thread_cap_is_set_before_numpy_loads(entry):
    """The BLAS thread pools read their variables when numpy loads, so the
    cap must be in the environment by then, whichever module is imported
    first.  A finder on sys.meta_path prints the variable at that moment."""
    spy = (
        "import os, sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Spy())\n"
        f"import {entry}\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in subinf._THREAD_VARS}
    env["SUBINF_THREADS"] = "3"
    src = os.path.dirname(os.path.dirname(os.path.abspath(subinf.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", spy], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["3"]


def test_cli_import_leaves_acceptance_unloaded():
    """cli imports every module its commands use at the top, but acceptance,
    which only `subinf acceptance` runs."""
    script = "import sys, subinf.cli\nprint('subinf.acceptance' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(subinf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_solve_does_not_load_the_graph_stack(tmp_path):
    """metric imports scipy.sparse.csgraph only where it is used, so a
    solve in a fresh interpreter loads neither csgraph nor the linear
    algebra it pulls in."""
    cfg = write_cfg(tmp_path, PLANE_CFG)
    script = (
        "import sys\n"
        "from subinf import cli\n"
        f"code = cli.main(['solve', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "assert code == 0, code\n"
        "print('loaded', *[m for m in ('scipy.sparse.csgraph',\n"
        "    'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(subinf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split() == ["loaded"]


@pytest.mark.parametrize("check", ["subelliptic", "amle"])
def test_verify_zero_trials_exits_2(tmp_path, capsys, monkeypatch, check):
    monkeypatch.setattr(cli, "_solve_problem", _no_solve)
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "v")
    assert cli.main(["verify", cfg, "-o", out, "--check", check,
                     "--trials", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err

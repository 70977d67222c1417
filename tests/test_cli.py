import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import drivenlevel
from drivenlevel import spectral, sweep, volterra
from drivenlevel.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from drivenlevel.config import RunConfig
from drivenlevel.traceio import read_trace

BASE = {
    "spectral_density": {"kind": "semicircle", "eta": 1.0,
                         "eps0": 0.0, "v0": 1.0},
    "system": {"eps_s": 0.0},
    "drive": {"shape": "sine", "mean": 2.5, "amplitude": 0.5,
              "period": 1.25},
    "grid": {"t_max": 5.0, "h": 0.02},
}


def write_config(tmp_path, **changes):
    raw = json.loads(json.dumps(BASE))
    raw.update(changes)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_bound_states(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, payload = run(capsys, "bound-states", "--config", cfg)
    assert code == EXIT_OK
    assert len(payload) == 1
    assert payload[0]["energy"] == pytest.approx(2.9, abs=1e-9)
    assert payload[0]["residue"] == pytest.approx(0.84, abs=1e-9)


def test_bound_states_just_past_a_threshold(tmp_path, capsys):
    # eps_c = 1 for this semicircle: the state sits 1e-10 past the band
    # edge, inside the derivative floor, and carries a Z near 0
    cfg = write_config(tmp_path)
    code, payload = run(capsys, "bound-states", "--config", cfg,
                        "--set", "drive.mean=1.00001")
    assert code == EXIT_OK
    (state,) = payload
    assert 0.0 < state["energy"] - 2.0 < 1e-9
    assert 0.0 < state["residue"] < 1e-4


def test_set_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, payload = run(capsys, "bound-states", "--config", cfg,
                        "--set", "spectral_density.eta=2.5",
                        "--set", "drive.mean=0.5")
    assert code == EXIT_OK
    assert len(payload) == 2


def test_evolve_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, output={"trace": "run.csv", "svg": "run.svg",
                                         "overlay_u0": True})
    code, payload = run(capsys, "evolve", "--config", cfg)
    assert code == EXIT_OK
    assert payload["trace"] == "run.csv"
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.svg").exists()
    assert not (tmp_path / "run.csv.partial").exists()
    assert not (tmp_path / "run.svg.partial").exists()
    header = (tmp_path / "run.csv").read_text().splitlines()[1]
    assert "abs_u0" in header.split(",")


def test_trace_config_round_trips(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, output={"trace": "run.csv"})
    code, _ = run(capsys, "evolve", "--config", cfg)
    assert code == EXIT_OK
    _, meta = read_trace(tmp_path / "run.csv")
    stored = meta["config"]
    assert RunConfig.from_dict(stored).to_dict() == stored


def test_u0_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, drive=None,
                       system={"eps_s": 2.5}, output={"trace": "u0.csv"})
    code, payload = run(capsys, "u0", "--config", cfg)
    assert code == EXIT_OK
    trace, _ = read_trace(tmp_path / "u0.csv")
    assert trace.grid.n_steps == payload["n_nodes"] - 1
    # bound state at 2.9 keeps most of the weight
    assert payload["final_magnitude"] > 0.7


def src_env():
    """This process's environment with the package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(drivenlevel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_commands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    cfg = write_config(tmp_path, oracle={"n_modes": 400},
                       output={"trace": "run.csv", "overlay_u0": True})
    code = ("import sys; sys.modules['scipy'] = None; "
            "from drivenlevel.cli import main\n"
            "for cmd in ('evolve', 'u0', 'oracle-compare'):\n"
            "    rc = main([cmd, '--config', sys.argv[1]])\n"
            "    if rc:\n"
            "        sys.exit(f'{cmd} exited {rc}')")
    out = subprocess.run([sys.executable, "-c", code, cfg], env=src_env(),
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


# the package's public names when __init__ imported every module eagerly;
# each must still resolve, now on first use
EAGER_EXPORTS = (
    "CombOverlap", "CombReport", "comb_report", "comb_reports",
    "late_window_peaks", "survival_metric", "RunConfig", "load_config",
    "DrivingField", "ConfigError", "DrivenLevelError",
    "GridMismatch", "QuadratureFailure", "StepTooLarge",
    "WindowOutOfRange", "QuadratureKernel",
    "SemicircleKernel", "kernel_for", "BoundState",
    "Semicircle", "SystemSpectrum", "Tabulated", "compute_u0", "eval_j",
    "find_bound_states", "self_energy", "self_energy_derivative", "spectrum",
    "SweepAxis", "run_sweep", "read_trace", "write_trace", "PropagatorTrace",
    "TimeGrid", "aligned_grid", "convergence_check", "evolve")

# loaded only by the commands that use them
UNUSED_AT_IMPORT = ("hashlib", "_hashlib", "multiprocessing",
                    "concurrent.futures") + tuple(
    f"drivenlevel.{m}" for m in ("sweep", "oracle", "volterra", "kernel",
                                 "comb", "svgplot", "traceio"))


def test_import_and_evolve_leave_out_unused_layers(tmp_path):
    cfg = write_config(tmp_path, output={"svg": "trace.svg",
                                         "overlay_u0": True})
    code = ("import json, sys, drivenlevel, drivenlevel.cli\n"
            "late = sys.argv[2:]\n"
            "at_import = [m for m in late if m in sys.modules]\n"
            "rc = drivenlevel.cli.main(['evolve', '--config', sys.argv[1]])\n"
            "after = [m for m in ('hashlib', '_hashlib', 'multiprocessing',\n"
            "                     'numpy.ma', 'numpy.polynomial')\n"
            "         if m in sys.modules]\n"
            "print(json.dumps([rc, at_import, after]))")
    out = subprocess.run([sys.executable, "-c", code, cfg, *UNUSED_AT_IMPORT],
                         env=src_env(), cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rc, at_import, after_evolve = json.loads(out.stdout.splitlines()[-1])
    assert rc == EXIT_OK
    assert at_import == []
    assert after_evolve == []


@pytest.mark.parametrize("command, output, unused", [
    # the u0 quadrature takes its Gauss-Legendre rule from constants and
    # dedupes without np.unique
    ("u0", {"trace": "u0.csv"}, ("numpy.ma", "numpy.polynomial")),
    # a report is written without the solver's trace types
    ("bound-states", {"report": "r.json"}, ("drivenlevel.volterra",)),
    ("comb", {"report": "r.json"}, ("drivenlevel.volterra",)),
    # a semicircle's chain is closed-form: no Gauss-Legendre rule
    ("oracle-compare", {}, ("numpy.ma", "numpy.polynomial")),
])
def test_commands_leave_out_unused_layers(tmp_path, command, output, unused):
    cfg = write_config(tmp_path, output=output)
    code = ("import json, sys, drivenlevel.cli\n"
            "rc = drivenlevel.cli.main([sys.argv[1], '--config', sys.argv[2]])\n"
            "print(json.dumps([rc, [m for m in sys.argv[3:] "
            "if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", code, command, cfg, *unused],
                         env=src_env(), cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [EXIT_OK, []]


def test_package_names_resolve_lazily():
    names = dir(drivenlevel)
    for name in EAGER_EXPORTS:
        obj = getattr(drivenlevel, name)
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert name in names and name in drivenlevel.__all__
    assert drivenlevel.sweep is sys.modules["drivenlevel.sweep"]
    assert "__version__" in vars(drivenlevel)      # set without __getattr__
    with pytest.raises(AttributeError):
        drivenlevel.no_such_name
    assert not hasattr(drivenlevel, "no_such_name")


TRIANGLE = {"kind": "tabulated", "grid": [-2.0, 0.0, 2.0],
            "values": [0.0, 1.0, 0.0], "band": [[-2.0, 2.0]]}


@pytest.mark.parametrize("density, lag_span", [
    (None, "kernel.SemicircleKernel.lag_samples"),
    (TRIANGLE, "kernel.QuadratureKernel.lag_samples")])
def test_benchmark_tracer_binds_kernel_names(tmp_path, density, lag_span):
    # perfbench/tracer.py wraps these names by string; a rename or removal
    # in the package must fail here, not first in a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    changes = {"grid": {"t_max": 2.0, "h": 0.01}}
    if density is not None:
        changes["spectral_density"] = density
    cfg = write_config(tmp_path, **changes)
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"),
         "--out", str(spans), "--", "evolve", "--config", cfg],
        env=src_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 0, out.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"kernel.kernel_for", lag_span} <= names


def test_benchmark_tracer_counts_oracle_steps(tmp_path):
    # perfbench/tracer.py reads propagate's grid as its third positional
    # argument or by name; the CLI passes it by name
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = write_config(tmp_path, grid={"t_max": 2.0, "h": 0.01})
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"),
         "--out", str(spans), "--", "oracle-compare", "--config", cfg],
        env=src_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(spans.read_text())["counts"][
        "oracle.propagate_steps"] == 200


def test_benchmark_tracer_names_resolve():
    # every module, function and method perfbench/tracer.py wraps by name
    # must exist in the package
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {m: importlib.import_module(f"drivenlevel.{m}")
               for m in (*tracer.WHOLE_MODULES, *tracer.FUNCTIONS,
                         *tracer.METHODS)}
    for short, names in tracer.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(modules[short], name, None)), \
                f"{short}.{name}"
    for short, classes in tracer.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[short], cls_name, None)
            for m in methods:
                assert callable(getattr(cls, m, None)), \
                    f"{short}.{cls_name}.{m}"


def test_comb_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, payload = run(capsys, "comb", "--config", cfg)
    assert code == EXIT_OK
    assert len(payload["states"]) == 1
    assert payload["states"][0]["prediction"] == "survives"


def test_oracle_compare(tmp_path, capsys):
    cfg = write_config(tmp_path, oracle={"n_modes": 400})
    code, payload = run(capsys, "oracle-compare", "--config", cfg)
    assert code == EXIT_OK
    assert payload["n_modes"] == 400
    assert payload["t_end"] == pytest.approx(5.0)
    assert payload["max_abs_deviation"] < 1e-3
    assert set(payload) == {"n_modes", "t_end", "max_abs_deviation"}


def test_oracle_compare_too_few_modes_is_config_error(tmp_path, capsys,
                                                      monkeypatch, solves):
    # oracle.n_modes caps the chain's sites, here ceil(2.55 t + 50) with
    # 2.55 half the bands' hull; a longer chain is refused before anything
    # is solved or diagonalized
    def eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    three_bands = {"kind": "tabulated",
                   "grid": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.1],
                   "values": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                   "band": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.1]]}
    cfg = write_config(tmp_path, spectral_density=three_bands,
                       grid={"t_max": 1.0, "h": 0.02},
                       oracle={"n_modes": 2})
    code = main(["oracle-compare", "--config", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "needs 53 sites" in err
    assert "n_modes 2" in err
    assert solves == []


def test_sweep_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep = {"axes": [{"name": "period", "values": [1.25, 1.32]}],
             "out": "sweep.csv", "workers": 1}
    cfg = write_config(tmp_path, grid={"t_max": 20.0, "h": 0.02},
                       window=[10.0, 20.0], sweep=sweep)
    code, payload = run(capsys, "sweep", "--config", cfg)
    assert code == EXIT_OK
    assert payload == {"out": "sweep.csv", "rows_computed": 2,
                       "rows_total": 2}
    # a second invocation finds everything done
    code, payload = run(capsys, "sweep", "--config", cfg)
    assert code == EXIT_OK
    assert payload["rows_computed"] == 0


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["bound-states", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err


def _sweep_block(workers=1, values=(1.25,), out="sweep.csv"):
    return {"grid": {"t_max": 1.0, "h": 0.02}, "window": [0.5, 1.0],
            "sweep": {"axes": [{"name": "period", "values": values}],
                      "out": out, "workers": workers}}


TRIANGLE_WITH = {**TRIANGLE, "grid": [-2.0, True, 2.0]}


@pytest.mark.parametrize("command, block, key", [
    ("bound-states", {"window": 5}, "window"),
    ("bound-states", {"window": ["a", 1]}, "window[0]"),
    ("bound-states", {"oracle": 5}, "oracle"),
    ("evolve", {"output": {"trace": 5}}, "output.trace"),
    ("evolve", {"output": {"svg": True}}, "output.svg"),
    ("bound-states", {"output": {"report": ["r.json"]}}, "output.report"),
    ("evolve", {"output": {"overlay_u0": "yes"}}, "output.overlay_u0"),
    ("sweep", _sweep_block("two"), "sweep.workers"),
    ("sweep", _sweep_block(0), "sweep.workers"),
    ("sweep", _sweep_block(1.5), "sweep.workers"),
    ("sweep", _sweep_block(values="ab"), "sweep.axes[0].values"),
    ("sweep", _sweep_block(values=[1, "x"]), "sweep.axes[0].values[1]"),
    ("sweep", _sweep_block(values="12"), "sweep.axes[0].values"),
    ("sweep", _sweep_block(out=5), "sweep.out"),
    # numbers are JSON numbers: true is not 1.0, 2000.7 is not 2000
    ("evolve", {"grid": {"t_max": 5.0, "h": True}}, "grid.h"),
    ("bound-states", {"system": {"eps_s": False}}, "system.eps_s"),
    ("bound-states", {"spectral_density": {"eta": "1.0"}},
     "spectral_density.eta"),
    ("comb", {"drive": {**BASE["drive"], "amplitude": True}},
     "drive.amplitude"),
    ("comb", {"drive": {"shape": "harmonics", "mean": 2.5, "period": 1.25,
                        "coefficients": [[0.5, True]]}},
     "drive.coefficients[0][1]"),
    ("bound-states", {"spectral_density": TRIANGLE_WITH},
     "spectral_density.grid[1]"),
    ("oracle-compare", {"oracle": {"n_modes": 2000.7}}, "oracle.n_modes"),
    ("oracle-compare", {"oracle": {"n_modes": True}}, "oracle.n_modes"),
    ("sweep", _sweep_block(True), "sweep.workers"),
], ids=["window-number", "window-text", "oracle-number", "trace-number",
        "svg-bool", "report-list", "overlay-text", "workers-text",
        "workers-zero", "workers-float", "values-text", "values-mixed",
        "values-digits", "out-number", "h-bool", "eps-bool", "eta-text",
        "amplitude-bool", "coefficient-bool", "table-bool", "modes-float",
        "modes-bool", "workers-bool"])
def test_malformed_block_is_config_error(tmp_path, capsys, monkeypatch,
                                         command, block, key):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **block)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {key} must be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command, setting, key", [
    ("evolve", "gird.h=0.5", "gird"),
    ("evolve", "drive.amplitud=3", "drive.amplitud"),
    ("bound-states", "spectral_density.etta=2", "spectral_density.etta"),
    ("bound-states", "system.eps=1", "system.eps"),
    ("evolve", "grid.dt=0.01", "grid.dt"),
    ("oracle-compare", "oracle.modes=400", "oracle.modes"),
    ("comb", "output.reprot=r.json", "output.reprot"),
    ("sweep", "sweep.workres=2", "sweep.workres"),
    ("sweep", 'sweep.axes=[{"name": "period", "values": [1.25], "step": 1}]',
     "sweep.axes[0].step"),
    ("bound-states", 'spectral_density={"kind": "tabulated", "grid": [0, 1],'
     ' "values": [0, 0], "band": [[0, 1]], "eta": 1}', "spectral_density.eta"),
], ids=["top", "drive", "semicircle", "system", "grid", "oracle", "output",
        "sweep", "axis", "tabulated"])
def test_unknown_key_is_config_error(tmp_path, capsys, monkeypatch,
                                     command, setting, key):
    # a misspelt key used to run the default in its place
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **_sweep_block())
    code = main([command, "--config", cfg, "--set", setting])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"config error: unknown key {key}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("command", ["bound-states", "u0", "evolve", "comb",
                                     "oracle-compare", "sweep"])
def test_report_equals_stdout(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, oracle={"n_modes": 200},
                       output={"report": "r.json"}, **_sweep_block())
    code = main([command, "--config", cfg])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)
    assert (tmp_path / "r.json").read_text() == out


def test_non_object_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("[]")
    for extra in ([], ["--set", "grid.h=0.5"]):
        code = main(["bound-states", "--config", str(path), *extra])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


DRIVES = {
    "sine": BASE["drive"],
    "square": {"shape": "square", "mean": 1.0, "amplitude": 0.3,
               "period": 2.0},
    "harmonics": {"shape": "harmonics", "mean": 2.5, "period": 1.25,
                  "coefficients": [[0.5, 0.0], [0.0, 0.25]]},
}


@pytest.mark.parametrize("blocks", [
    {},
    {"window": [0.5, 1.0], "output": {"trace": "t.csv", "svg": None,
                                      "report": "r.json", "overlay_u0": True},
     "sweep": {"axes": [{"name": "period", "values": [1.25, 1.5]},
                        {"name": "mean", "values": [0.1]}],
               "out": "s.csv", "workers": None}},
], ids=["bare", "window-sweep-output"])
@pytest.mark.parametrize("drive", DRIVES.values(), ids=DRIVES.keys())
@pytest.mark.parametrize("density", [BASE["spectral_density"], TRIANGLE],
                         ids=["semicircle", "tabulated"])
def test_to_dict_passes_the_strict_reader(density, drive, blocks):
    # trace metadata embeds to_dict(), so the reader must take it back
    cfg = RunConfig.from_dict({**BASE, "grid": {"t_max": 1.0, "h": 0.02},
                               "spectral_density": density, "drive": drive,
                               **blocks})
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    if "sweep" in blocks:
        assert len(sweep._parse_sweep(again)[0]) == 2


def test_amplitude_axis_on_harmonics_is_config_error(tmp_path, capsys,
                                                     monkeypatch):
    # a harmonics drive takes its modulation from its coefficients, so an
    # amplitude axis would sweep nothing
    monkeypatch.chdir(tmp_path)
    block = _sweep_block()
    block["sweep"]["axes"] = [{"name": "amplitude", "values": [0.5, 3.0]}]
    cfg = write_config(tmp_path, drive=DRIVES["harmonics"], **block)
    code = main(["sweep", "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == ("config error: amplitude axis needs a sine or "
                            "square drive\n")
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.fixture
def solves(monkeypatch):
    """Names of the solver entry points the CLI calls from here on."""
    calls = []
    for module, name in ((volterra, "evolve"), (spectral, "compute_u0"),
                         (spectral, "find_bound_states"),
                         (sweep, "run_sweep")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("command, block, path", [
    ("evolve", {"output": {"trace": "nodir/t.csv"}}, "nodir/t.csv"),
    ("bound-states", {"output": {"report": "nodir/r.json"}}, "nodir/r.json"),
    ("sweep", _sweep_block(out="nodir/s.csv"), "nodir/s.csv.json"),
    ("u0", {"output": {"svg": "nodir/p.svg"}}, "nodir/p.svg"),
    ("sweep", {**_sweep_block(), "output": {"report": "nodir/r.json"}},
     "nodir/r.json"),
    ("oracle-compare", {"output": {"report": "nodir/r.json"}},
     "nodir/r.json"),
], ids=["trace", "report", "sweep", "u0-svg", "sweep-report",
        "oracle-compare-report"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch,
                                           solves, command, block, path):
    # the directories are checked before the command runs, so nothing is
    # solved and nothing is written
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **block)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == (f"config error: cannot write {path}: "
                   f"No such file or directory\n")
    assert solves == []
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("path, content", [
    ("sweep.csv.json", "{bad"),
    ("sweep.csv.json", "[]"),
    ("sweep.csv.json", None),
    ("sweep.csv", None),
], ids=["sidecar-not-json", "sidecar-not-object", "sidecar-directory",
        "out-directory"])
def test_unreadable_sweep_files_are_config_errors(tmp_path, capsys,
                                                  monkeypatch, path, content):
    # content None: path is an existing directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **_sweep_block())
    if content is None:
        (tmp_path / path).mkdir()
    else:
        (tmp_path / path).write_text(content)
    code = main(["sweep", "--config", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert path in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, key", [
    ("evolve", "grid.h"), ("u0", "grid.t_max"), ("evolve", "drive.period"),
    ("comb", "drive.amplitude"), ("oracle-compare", "drive.mean"),
    ("bound-states", "spectral_density.eta"),
    ("bound-states", "spectral_density.v0"), ("u0", "system.eps_s"),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, monkeypatch,
                                           command, key, value):
    # Python's json reads NaN and Infinity, from the file and from --set
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    code = main([command, "--config", cfg, "--set", f"{key}={value}"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"config error: {key} must be a finite number\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, setting", [
    ("evolve", "grid.t_max=1e-300"), ("evolve", "grid.h=1e300"),
    ("u0", "grid.h=5.5"), ("sweep", "grid.t_max=1e-300"),
    ("evolve", "grid.h=0"), ("u0", "grid.t_max=-1"),
])
def test_grid_without_a_step_is_config_error(tmp_path, capsys, monkeypatch,
                                             command, setting):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **_sweep_block())
    code = main([command, "--config", cfg, "--set", setting])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error: grid.h ")
    assert "must be positive and at most grid.t_max" in captured.err
    assert os.listdir(tmp_path) == ["run.json"]


def test_null_trace_takes_default_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, drive=None, grid={"t_max": 1.0, "h": 0.02},
                       output={"trace": None})
    code, payload = run(capsys, "u0", "--config", cfg)
    assert code == EXIT_OK
    assert payload["trace"] == "u0.csv"
    assert (tmp_path / "u0.csv").exists()


def test_missing_drive_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, drive=None)
    code = main(["evolve", "--config", cfg])
    assert code == EXIT_CONFIG


def test_bad_step_is_numerical_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    code = main(["evolve", "--config", cfg, "--set", "grid.h=1.0"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert "StepTooLarge" in err


def _table(**changes):
    return {"spectral_density": {**TRIANGLE, **changes}}


def _sweep_csv(rows):
    """A sweep CSV over one period axis, with its header and rows."""
    header = ",".join(["period", *sweep._BASE_COLUMNS])
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("command, block, argv, files, message", [
    ("bound-states", _table(values=[0.0, 1.0]), [], {},
     "grid and values must be matching 1-d sequences"),
    ("bound-states", _table(grid=[0.0], values=[0.0]), [], {},
     "grid and values must be matching 1-d sequences"),
    ("bound-states", _table(grid=[-2.0, 1.0, 0.5]), [], {},
     "grid must be strictly ascending"),
    ("bound-states", _table(band=[[-2.0, 0.5], [0.0, 2.0]]), [], {},
     "band intervals must be disjoint and sorted"),
    ("bound-states", _table(band=[[0.5, 2.0], [-2.0, 0.0]]), [], {},
     "band intervals must be disjoint and sorted"),
    ("bound-states", {}, ["--set", "grid.h"], {},
     "override 'grid.h' is not KEY=VALUE"),
    ("bound-states", {}, [], {"run.json": "{bad"},
     "config {cfg} is not valid JSON: "),
    ("bound-states", {"spectral_density": {"kind": "lorentz"}}, [], {},
     "unknown spectral density kind 'lorentz'"),
    ("bound-states", {"spectral_density": 5}, [], {},
     "spectral_density must be an object"),
    ("evolve", {"grid": {"t_max": 5.0}}, [], {},
     "this command needs grid.t_max and grid.h"),
    ("sweep", _sweep_block(out=""), [], {}, "sweep.out must be a file name"),
    ("sweep", {**_sweep_block(), "window": None}, [], {},
     "sweep needs a window [t1, t2]"),
    ("sweep", _sweep_block(), [], {"sweep.csv": "a,b\n1,2\n"},
     "sweep.csv header does not match this sweep"),
    ("sweep", _sweep_block(), [],
     {"sweep.csv": _sweep_csv(["1.25,0,0,0,0,ok", "1.5,0,0,0,0,ok"])},
     "sweep.csv holds 2 rows but the sweep has only 1 points"),
], ids=["table-lengths", "table-one-node", "table-descending",
        "table-overlap", "table-unsorted", "override-without-equals",
        "invalid-json", "unknown-kind", "density-not-object",
        "grid-without-h", "sweep-empty-out", "sweep-no-window",
        "sweep-header", "sweep-extra-rows"])
def test_refusal_exits_with_one_config_error_line(
        tmp_path, capsys, monkeypatch, command, block, argv, files, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **block)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code = main([command, "--config", cfg, *argv])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error: "
                                   + message.format(cfg=cfg))
    assert captured.err.count("\n") == 1
    assert captured.out == ""

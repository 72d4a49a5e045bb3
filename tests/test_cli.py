"""Command-line interface: subcommands, exit codes, config precedence."""

import dataclasses
import hashlib
import json
import math

import pytest

from golp.cli import build_parser, load_run_config, main
from golp.device import DEFAULT_MODELED_PROFILE, OP_TOPK
from golp.gate import DEFAULT_CPU_MODEL, DEVICE, HOST, GateConfig, decide, estimate_cpu_cost
from golp.store import load_table

EXPORTED_FILES = (
    "fig1_guard.csv",
    "fig2_margin.csv",
    "fig3_scaling.csv",
    "fig4_payload.csv",
    "fig5_breakeven.csv",
    "fig6_transfer.csv",
    "fig7_e2e.csv",
    "summary.json",
)


def write_config(tmp_path, **overrides):
    doc = {
        "workload": {
            "n_grid": [1_000, 10_000, 100_000, 500_000],
            "repeats": 2,
            "payload_bytes": 16,
        }
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return main([str(a) for a in argv])


# --- gen --------------------------------------------------------------------


def test_gen_writes_a_deterministic_dump(tmp_path, capsys):
    a = tmp_path / "a.golp"
    b = tmp_path / "b.golp"
    assert run_cli("gen", "--n", 5_000, "--seed", 7, "--out", a) == 0
    assert run_cli("gen", "--n", 5_000, "--seed", 7, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    table = load_table(a)
    assert table.row_count == 5_000
    assert table.payload_bytes == 188
    assert "wrote" in capsys.readouterr().out


def test_gen_respects_payload_width(tmp_path):
    out = tmp_path / "t.golp"
    assert run_cli("gen", "--n", 100, "--payload-bytes", 32, "--out", out) == 0
    assert load_table(out).payload_bytes == 32


def test_gen_requires_a_row_count():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen")
    assert exc.value.code == 2


# --- bench (modeled) --------------------------------------------------------


def test_modeled_bench_exports_everything_and_solves_the_crossover(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--out", out) == 0
    for name in EXPORTED_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_star"] == pytest.approx(134_527.38081520796, rel=1e-6)
    assert summary["breakeven_error"] <= 1e-3
    assert summary["fits"]["a"] == pytest.approx(1.2e-10, rel=1e-9)
    assert summary["fits"]["c"] == pytest.approx(4.8e-10, rel=1e-9)
    assert summary["fits"]["r2_cpu"] == pytest.approx(1.0, abs=1e-9)
    assert summary["fits"]["r2_tx"] == pytest.approx(1.0, abs=1e-9)
    assert set(summary["strategies"]) == {"host_only", "device_always", "gated"}
    stdout = capsys.readouterr().out
    assert "n_star=134527.4" in stdout
    assert stdout.count("wrote") == len(EXPORTED_FILES)


def test_modeled_bench_n_star_is_where_decide_flips(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--backend", "modeled", "--out", out) == 0
    n_star = json.loads((out / "summary.json").read_text(encoding="utf-8"))["n_star"]
    k, payload_bytes = 100, 16  # the workload's default k and write_config's payload
    assert decide(GateConfig(), OP_TOPK, math.floor(n_star), k, payload_bytes).path == HOST
    assert decide(GateConfig(), OP_TOPK, math.ceil(n_star), k, payload_bytes).path == DEVICE


def test_modeled_bench_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("bench", "--config", cfg, "--out", tmp_path / "r1") == 0
    assert run_cli("bench", "--config", cfg, "--out", tmp_path / "r2") == 0
    for name in EXPORTED_FILES:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


# sha256 of every file `golp bench --backend modeled` writes for GOLDEN_WORKLOAD.
# Reruns are compared with each other elsewhere; these digests also catch a
# change to the code that moves a figure. Only a deliberate change to a cost
# model or an output format should update them.
GOLDEN_WORKLOAD = {"n_grid": [1_000, 10_000, 100_000, 200_000], "repeats": 3, "payload_bytes": 16}
GOLDEN_SHA256 = {
    "fig1_guard.csv": "0aa71796f675fea13499d901dfd5333532a9519ff338f0d72952157a3d9c6ba8",
    "fig2_margin.csv": "b3ff24c99582c7a2ec07b0752323b03ab4d393bdeaa96c6956d5ebdf9ec9588e",
    "fig3_scaling.csv": "b3fc997801a7223a0389c1bc91c4c5662b9d570b37fbc891539759d0270c38b1",
    "fig4_payload.csv": "5c4ebf8ed5769e1f89b025cd60e3445ad467d1dd60be9bdd2a1cbc5cf01cecbd",
    "fig5_breakeven.csv": "88962139455f03d53102da20e692f258fdf2ff1927ef750cb7c73c3bd534b50a",
    "fig6_transfer.csv": "df8718a069a804da2a5421b06f951649a100f53e170ca9cd54b5873841ca79e8",
    "fig7_e2e.csv": "a1d6fddf7d25381742188bd3d948f090ac4e61c32d086103b7cd4edbdca04cb6",
    "summary.json": "a06917ae557785aa37895485705835f1923c68fc851edd67fc860fff276fa420",
}


def test_modeled_bench_matches_recorded_digests(tmp_path):
    cfg = write_config(tmp_path, workload=GOLDEN_WORKLOAD)
    out = tmp_path / "golden"
    assert run_cli("bench", "--config", cfg, "--backend", "modeled", "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_bench_rejects_bad_workload_config(tmp_path):
    cfg = write_config(tmp_path, workload={"n_grid": []})
    assert run_cli("bench", "--config", cfg, "--out", tmp_path / "x") == 2


def test_bench_rejects_unknown_backend_in_config(tmp_path):
    cfg = write_config(tmp_path, backend="fpga")
    assert run_cli("bench", "--config", cfg, "--out", tmp_path / "x") == 2


def test_bench_rejects_missing_config_file(tmp_path):
    assert run_cli("bench", "--config", tmp_path / "nope.json") == 2


def test_modeled_bench_exports_a_crossover_its_grid_does_not_bracket(tmp_path, capsys):
    # the solved n_star (~134,527) lies past the largest grid size
    cfg = write_config(tmp_path, workload={
        "n_grid": [1_000, 10_000, 100_000], "repeats": 2, "payload_bytes": 16})
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--backend", "modeled", "--out", out) == 0
    for name in EXPORTED_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_star"] == pytest.approx(134_527.38081520796, rel=1e-6)
    assert summary["breakeven_error"] is None
    assert "never becomes device-cheaper" in capsys.readouterr().err


def test_modeled_bench_reports_curves_that_never_cross_as_null(tmp_path, capsys):
    slow_kernel = dict(dataclasses.asdict(DEFAULT_MODELED_PROFILE), kernel_rate_topk=1.0)
    cfg = write_config(tmp_path, gate={"profile": slow_kernel})
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--backend", "modeled", "--out", out) == 0
    for name in EXPORTED_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_star"] is None and summary["breakeven_error"] is None
    assert "do not cross" in capsys.readouterr().err


# --- bench (proxy) ----------------------------------------------------------


def test_proxy_bench_runs_and_reports_honestly(tmp_path):
    cfg = write_config(tmp_path)
    doc = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    doc["workload"]["n_grid"] = [1_000, 2_000, 4_000]
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "prun"
    assert run_cli("bench", "--config", cfg, "--backend", "proxy",
                   "--workers", 2, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    # measured curves need not cross on this hardware; the fits must exist
    assert summary["fits"] is not None
    assert summary["fits"]["a"] >= 0.0
    for name in EXPORTED_FILES:
        assert (out / name).is_file(), name
    fig3 = (out / "fig3_scaling.csv").read_text(encoding="utf-8").splitlines()
    assert len(fig3) == 1 + 2 * 3  # header + two ops per grid size


# --- fit --------------------------------------------------------------------


def write_plain_curves(tmp_path):
    ns = (10_000, 50_000, 100_000, 500_000, 1_000_000)
    cpu = tmp_path / "cpu.csv"
    cpu.write_text(
        "".join(f"{n},{estimate_cpu_cost(DEFAULT_CPU_MODEL, 'full_sort', n):.12e}\n" for n in ns),
        encoding="utf-8",
    )
    tx = tmp_path / "tx.csv"
    tx.write_text("".join(f"{n},{4.8e-10 * n:.12e}\n" for n in ns), encoding="utf-8")
    return cpu, tx


def test_fit_solves_from_plain_curves(tmp_path, capsys):
    cpu, tx = write_plain_curves(tmp_path)
    assert run_cli("fit", "--cpu", cpu, "--tx", tx) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "a", "b", "c", "d", "rss_cpu", "rss_tx", "r2_cpu", "r2_tx",
        "n_star", "measured_n_star", "relative_error",
    }
    assert doc["a"] == pytest.approx(1.2e-10, rel=1e-9)
    assert doc["n_star"] == pytest.approx(134_527.38081520796, rel=1e-6)
    assert doc["measured_n_star"] is None
    assert doc["relative_error"] is None


def test_fit_consumes_bench_figure_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    fit_out = tmp_path / "fitdir"
    assert run_cli(
        "fit",
        "--cpu", out / "fig3_scaling.csv",
        "--tx", out / "fig4_payload.csv",
        "--sweep", out / "fig5_breakeven.csv",
        "--out", fit_out,
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["relative_error"] is not None
    assert doc["relative_error"] <= 0.05
    on_disk = json.loads((fit_out / "fit.json").read_text(encoding="utf-8"))
    assert on_disk == doc


def test_fit_rejects_underdetermined_curves(tmp_path):
    cpu = tmp_path / "cpu.csv"
    cpu.write_text("1000,0.001\n", encoding="utf-8")
    tx = tmp_path / "tx.csv"
    tx.write_text("1000,0.0001\n2000,0.0002\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", cpu, "--tx", tx) == 4


def test_fit_reports_no_crossing_as_fit_failure(tmp_path):
    _, tx = write_plain_curves(tmp_path)
    flat = tmp_path / "flat_cpu.csv"  # shrinking host curve clamps to zero growth
    flat.write_text("1000,0.003\n10000,0.002\n100000,0.001\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", flat, "--tx", tx) == 4


def test_fit_rejects_a_flat_transfer_curve(tmp_path):
    cpu, _ = write_plain_curves(tmp_path)
    flat = tmp_path / "flat_tx.csv"  # no per-row cost: no transfer bandwidth to fit
    flat.write_text("1000,0.0001\n10000,0.0001\n100000,0.0001\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", cpu, "--tx", flat) == 4


def test_fit_rejects_unbracketable_sweep(tmp_path):
    cpu, tx = write_plain_curves(tmp_path)
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("1000,0.001,0.002\n2000,0.002,0.003\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", cpu, "--tx", tx, "--sweep", sweep) == 4


def test_fit_rejects_role_mismatch(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("bench", "--config", cfg, "--out", out) == 0
    assert run_cli("fit", "--cpu", out / "fig4_payload.csv",
                   "--tx", out / "fig4_payload.csv") == 2


def test_fit_rejects_a_short_cpu_row_as_bad_input(tmp_path, capsys):
    cpu, tx = write_plain_curves(tmp_path)
    short = tmp_path / "short_cpu.csv"
    short.write_text(cpu.read_text(encoding="utf-8") + "2000000\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", short, "--tx", tx) == 2
    assert "1 of 2 columns" in capsys.readouterr().err


def test_fit_rejects_a_short_sweep_row_as_bad_input(tmp_path, capsys):
    cpu, tx = write_plain_curves(tmp_path)
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("n,cpu_s,device_s\n1000,0.001,0.002\n2000,0.002\n", encoding="utf-8")
    assert run_cli("fit", "--cpu", cpu, "--tx", tx, "--sweep", sweep) == 2
    assert "2 of 3 columns" in capsys.readouterr().err


# --- gate-sim ---------------------------------------------------------------


def parse_sim(text):
    lines = text.strip().splitlines()
    assert lines[0] == "n,margin_s,path,c_cpu_est,c_gpu_est,gain"
    rows = []
    for line in lines[1:]:
        n, margin, path, cpu, gpu, gain = line.split(",")
        rows.append((int(n), float(margin), path, float(cpu), float(gpu), float(gain)))
    return rows


def test_gate_sim_decision_table(capsys):
    assert run_cli("gate-sim") == 0
    rows = parse_sim(capsys.readouterr().out)
    assert len(rows) == 3 * 7  # default margins x default grid
    for n, _, path, cpu, gpu, gain in rows:
        assert gain == pytest.approx(cpu - gpu, abs=2e-9)  # columns rounded separately
    at_zero = {n: path for n, margin, path, *_ in rows if margin == 0.0}
    assert at_zero == {
        1_000: "host", 10_000: "host", 20_000: "host", 100_000: "host",
        500_000: "device", 1_000_000: "device", 3_000_000: "device",
    }
    device_counts = {}
    for n, margin, path, *_ in rows:
        device_counts[margin] = device_counts.get(margin, 0) + (path == "device")
    margins = sorted(device_counts)
    assert [device_counts[m] for m in margins] == [3, 1, 0]


def test_gate_sim_guard_pins_small_sizes_to_host(capsys):
    assert run_cli("gate-sim", "--guard", 600_000, "--margins", "0") == 0
    rows = parse_sim(capsys.readouterr().out)
    for n, _, path, *_ in rows:
        assert path == ("device" if n >= 600_000 else "host")


def test_gate_sim_writes_csv_when_out_is_given(tmp_path, capsys):
    assert run_cli("gate-sim", "--out", tmp_path, "--margins", "0") == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    text = (tmp_path / "gate_sim.csv").read_text(encoding="utf-8")
    assert parse_sim(text)


def test_gate_sim_rejects_bad_margins():
    assert run_cli("gate-sim", "--margins", "abc") == 2
    assert run_cli("gate-sim", "--margins", "-0.5") == 2
    assert run_cli("gate-sim", "--margins", "") == 2


# --- config precedence ------------------------------------------------------


def test_output_dir_precedence(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("GOLP_OUT", str(env_dir))
    cfg = write_config(tmp_path)
    doc = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    doc["workload"]["n_grid"] = [1_000, 200_000]  # still brackets the crossover
    doc["workload"]["repeats"] = 1
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")

    assert run_cli("bench", "--config", cfg) == 0  # env replaces the default
    assert (env_dir / "summary.json").is_file()

    flag_dir = tmp_path / "from_flag"
    assert run_cli("bench", "--config", cfg, "--out", flag_dir) == 0
    assert (flag_dir / "summary.json").is_file()
    capsys.readouterr()


def test_config_file_output_dir_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GOLP_OUT", str(tmp_path / "env"))
    file_dir = tmp_path / "from_file"
    cfg = write_config(tmp_path, output_dir=str(file_dir))
    doc = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    doc["workload"]["n_grid"] = [1_000, 200_000]
    doc["workload"]["repeats"] = 1
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("bench", "--config", cfg) == 0
    assert (file_dir / "summary.json").is_file()
    assert not (tmp_path / "env").exists()


def test_flag_backend_beats_config_backend(tmp_path):
    cfg = write_config(tmp_path, backend="proxy")
    args = build_parser().parse_args(["bench", "--config", cfg, "--backend", "modeled"])
    assert load_run_config(args).backend == "modeled"
    args = build_parser().parse_args(["bench", "--config", cfg])
    assert load_run_config(args).backend == "proxy"


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = write_config(tmp_path, workload={"n_grid": [10, 20], "seed": 5})
    args = build_parser().parse_args(["bench", "--config", cfg, "--seed", "9"])
    assert load_run_config(args).workload.seed == 9
    args = build_parser().parse_args(["bench", "--config", cfg])
    assert load_run_config(args).workload.seed == 5

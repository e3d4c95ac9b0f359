"""Front-end tests: config parsing, sweep artifacts, replay, exit codes."""
import csv
import dataclasses
import json
import multiprocessing
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wlansim.bianchi import solve_fixed_point
from wlansim.cli import (
    _PLAN_KEYS,
    SUMMARY_COLUMNS,
    ExperimentPlan,
    main,
    parse_config,
    run_plan,
)
from wlansim.engine import ConfigError, SimConfig, run_experiment
from wlansim.protocols import Mode, ProtocolKind
from wlansim.schedule import DEFAULT_TABLE, ScheduleRow
from wlansim.trace import Outcome, TransmissionRecord


def write(path: Path, text: str) -> Path:
    path.write_text(textwrap.dedent(text))
    return path


def read_summary(out_dir: Path) -> list[dict]:
    with open(out_dir / "experiment_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


SWEEP_INI = """\
    [experiment]
    protocols = CfMac CsmaCa
    rates = 24, 48
    stations = 2
    seeds = 1 2 3
    duration = 0.05
    warmup = 0.01

    [output]
    directory = {out}
    format = json
"""


# -- config parsing -----------------------------------------------------------

def test_empty_config_gives_default_plan(tmp_path):
    plan = parse_config(write(tmp_path / "empty.ini", "# nothing here\n"))
    assert plan == ExperimentPlan()
    assert [key for key, _ in plan.cells] == [("CfMac", 6, 12, 1)]


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="experiment.bogus"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(path)


def test_unsupported_rate_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\nrates = 7\n")
    with pytest.raises(ConfigError, match="unsupported value 7"):
        parse_config(path)


def test_duplicate_axis_values_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\nseeds = 1 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_negative_seed_rejected(tmp_path):
    # random.Random seeds with |seed|: -4 would repeat seed 4's run
    path = write(tmp_path / "c.ini", "[experiment]\nseeds = -4 4\n")
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        parse_config(path)


def test_empty_axis_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\nstations =\n")
    with pytest.raises(ConfigError, match="empty sweep axis"):
        parse_config(path)


@pytest.mark.parametrize("alias, key, value", [
    ("protocol", "protocols", "CfMac"), ("rate", "rates", "48"),
    ("seed", "seeds", "2")])
def test_axis_key_and_its_alias_rejected(tmp_path, alias, key, value):
    path = write(tmp_path / "c.ini",
                 f"[experiment]\n{alias} = {value}\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{alias} and {key} "):
        parse_config(path)


def test_malformed_ini_rejected(tmp_path):
    path = write(tmp_path / "c.ini", "stations = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_fractional_schedule_row_rejected(tmp_path, capsys):
    path = write(tmp_path / "c.ini", """\
        [schedule]
        48 = 400.5, 50
    """)
    assert main(["run", "--config", str(path), "--rate", "48",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schedule.48:")
    assert err.count("\n") == 1


def test_json_section_that_is_a_list_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": [1, 2]}))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: section experiment")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", [True, False, 10 ** 400],
                         ids=["true", "false", "too-large"])
@pytest.mark.parametrize("key", ["duration", "warmup", "cca_error"])
def test_json_number_key_rejects_non_numbers(tmp_path, capsys, key, value):
    # float() reads true/false as 1.0/0.0 and overflows on a huge integer;
    # the rest of the plan is a short valid run, so a misread value runs
    plan = {"protocols": "CfMac", "rates": 48, "stations": 2, "seeds": 1,
            "duration": 0.05, "warmup": 0.01, key: value}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": plan}))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key}: expected a number, got {value!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    json.dumps({"experiment": {"stations": 3}})[:-3],  # truncated
    "[" * 100_000,  # nested past the decoder's recursion limit
], ids=["truncated", "too-deep"])
def test_malformed_json_rejected(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, text, prefix", [
    ("c.ini", "[output]\nformat = xml\n", "format: must be csv or json"),
    ("c.ini", "[experiment]\nprotocols = Aloha\n",
     "protocols: unknown name 'Aloha'"),
    ("c.ini", "[experiment]\nrates = six\n", "rates: expected integers"),
    ("c.ini", "[experiment]\npayload = 1 2\n",
     "payload: expected one integer"),
    ("c.ini", "[schedule]\n48 = 400\n",
     "schedule.48: expected 'share, epsilon'"),
    ("c.ini", "[schedule]\n48 = 400, 50\n048 = 400, 50\n",
     "schedule: 48 and 048 set the same rate, give one"),
    ("c.ini", "[schedule]\n99 = 400, 50\n",
     "schedule.99: rate not in (6, 11, 12, 24, 48)"),
    ("c.json", "[1, 2]", "config: top level must be an object"),
], ids=["format", "protocol", "rates", "payload", "schedule_row",
        "schedule_same_rate", "schedule_unsupported_rate", "json_list"])
def test_plan_refusals(tmp_path, name, text, prefix):
    with pytest.raises(ConfigError) as refused:
        parse_config(write(tmp_path / name, text))
    assert str(refused.value).startswith(prefix)


@pytest.mark.parametrize("fields, message", [
    (dict(rates=[]), "rates: empty sweep axis"),
    (dict(rates=[7]), "rate: unsupported value 7"),
    (dict(seeds=[1, 1]), "seeds: duplicate values"),
    (dict(fmt="xml"), "format: must be csv or json, got xml"),
    (dict(stations=[0]), "n_stations must lie in [1, "),
], ids=["empty_axis", "rate", "duplicate", "format", "cell"])
def test_building_a_plan_checks_it(fields, message):
    with pytest.raises(ConfigError) as refused:
        ExperimentPlan(**fields)
    assert str(refused.value).startswith(message)


def test_a_built_plan_is_frozen():
    plan = ExperimentPlan(stations=[2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.stations = [0]
    # a derived plan is built, and so checked, anew
    with pytest.raises(ConfigError, match="n_stations must lie in"):
        dataclasses.replace(plan, stations=[0])
    assert [cfg.n_stations for _, cfg in plan.cells] == [2]


def count_sim_configs(monkeypatch) -> list:
    """Record each SimConfig built from now on."""
    built, check = [], SimConfig.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(SimConfig, "__post_init__", counted)
    return built


def test_one_cell_run_builds_its_config_once(tmp_path, monkeypatch):
    built = count_sim_configs(monkeypatch)
    assert main(["run", "--stations", "2", "--duration", "0.05", "--warmup",
                 "0.01", "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_untraced_run_builds_no_record_objects(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise RuntimeError("a TransmissionRecord was built")

    monkeypatch.setattr(TransmissionRecord, "__init__", refuse)
    with pytest.raises(RuntimeError):
        TransmissionRecord(0, 0, 1, Outcome.SUCCESS, Mode.LEGACY)
    for fmt, cca in (("csv", 0.0), ("json", 0.05)):
        # a failed cell would report the RuntimeError and return 2
        plan = ExperimentPlan(protocols=list(ProtocolKind), rates=[48],
                              stations=[3], seeds=[1], duration_s=0.3,
                              warmup_s=0.05, cca_error_prob=cca,
                              out_dir=tmp_path / fmt, fmt=fmt)
        assert run_plan(plan) == 0


def test_payload_above_one_msdu_rejected(tmp_path, capsys):
    # 10**320 bytes used to overflow the airtime computation
    path = tmp_path / "c.json"
    path.write_text('{"experiment": {"payload": 1' + "0" * 320 + "}}")
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: payload_bytes")
    assert err.count("\n") == 1


_KEYS = sorted({k for keys in _PLAN_KEYS.values() for k in keys}) + [
    "48", "bogus"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
_SECTIONS = st.sampled_from(["experiment", "output", "schedule", "bogus"])
_JSON_PLANS = st.dictionaries(
    _SECTIONS,
    st.dictionaries(st.sampled_from(_KEYS), _JSON_VALUES, max_size=4)
    | _JSON_VALUES,
    max_size=3).map(json.dumps)
_INI_PLANS = st.lists(
    st.tuples(_SECTIONS, st.lists(st.tuples(st.sampled_from(_KEYS),
                                            st.text(max_size=12)),
                                  max_size=4)),
    max_size=3).map(lambda secs: "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in opts)
        for name, opts in secs))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text() | _JSON_PLANS | _INI_PLANS,
       suffix=st.sampled_from([".ini", ".json"]))
def test_any_plan_text_parses_or_raises_config_error(tmp_path, text, suffix):
    path = tmp_path / f"plan{suffix}"
    path.write_text(text, encoding="utf-8")
    try:
        plan = parse_config(path)
    except ConfigError:
        return
    assert isinstance(plan, ExperimentPlan)


def test_json_plan_equals_ini_plan(tmp_path):
    ini = write(tmp_path / "plan.ini", SWEEP_INI.format(out=tmp_path / "o"))
    blob = {"experiment": {"protocols": ["CfMac", "CsmaCa"], "rates": [24, 48],
                           "stations": 2, "seeds": [1, 2, 3],
                           "duration": 0.05, "warmup": 0.01},
            "output": {"directory": str(tmp_path / "o"), "format": "json"}}
    jsn = tmp_path / "plan.json"
    jsn.write_text(json.dumps(blob))
    assert parse_config(ini) == parse_config(jsn)


def test_schedule_override_merges_over_defaults(tmp_path):
    path = write(tmp_path / "c.ini", """\
        [schedule]
        48 = 400, 50
    """)
    plan = parse_config(path)
    assert plan.schedule.rows[48] == ScheduleRow(share_us=400.0, epsilon_us=50.0)
    assert plan.schedule.rows[24] == DEFAULT_TABLE.rows[24]


def test_schedule_override_changes_the_rotation(tmp_path):
    # a 450 us slice spins one station faster than the stock table allows
    path = write(tmp_path / "c.ini", """\
        [experiment]
        protocol = CfMac
        rate = 48
        stations = 1
        duration = 0.3
        warmup = 0.05

        [schedule]
        48 = 400, 50
    """)
    plan = parse_config(path)
    _, report = run_experiment(plan.cells[0][1])
    assert report.aggregate_throughput == pytest.approx(11760 / 450, rel=0.01)


# -- sweep execution ----------------------------------------------------------

@pytest.fixture
def sweep(tmp_path):
    out = tmp_path / "out"
    config = write(tmp_path / "plan.ini", SWEEP_INI.format(out=out))
    return config, out


def test_sweep_artifacts_and_row_counts(sweep):
    config, out = sweep
    plan = parse_config(config)
    assert len(plan.cells) == 12
    assert run_plan(plan) == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    metrics = sorted(p.name for p in out.glob("metrics_*.json"))
    assert len(traces) == 12 and len(metrics) == 12
    assert "trace_CfMac_r24_n2_s1.csv" in traces
    assert "metrics_CsmaCa_r48_n2_s3.json" in metrics
    rows = read_summary(out)
    # one line per station plus one aggregate line per run
    assert len(rows) == 12 * (2 + 1)
    assert list(rows[0]) == list(SUMMARY_COLUMNS)
    aggregates = [r for r in rows if r["station"] == "aggregate"]
    assert len(aggregates) == 12


def test_sweep_builds_each_cell_config_once(sweep, monkeypatch):
    config, _ = sweep
    built = count_sim_configs(monkeypatch)
    plan = parse_config(config)
    assert run_plan(plan) == 0
    assert len(built) == 12
    assert [cfg for _, cfg in plan.cells] == built


def test_summary_model_column_is_exact(sweep):
    config, out = sweep
    run_plan(parse_config(config))
    p_expected = solve_fixed_point(2)[1]
    rows = read_summary(out)
    assert rows
    assert all(float(r["bianchi_p"]) == p_expected for r in rows)


def test_summary_normalizes_gaps_against_the_deterministic_run(sweep):
    config, out = sweep
    run_plan(parse_config(config))
    rows = read_summary(out)
    station_rows = [r for r in rows if r["station"] != "aggregate"]
    assert all(r["iat_over_cfmac"] != "" for r in station_rows)
    cf = [float(r["iat_over_cfmac"]) for r in station_rows
          if r["protocol"] == "CfMac"]
    # the reference is the run's own mean gap, so CF-MAC rows sit near 1
    assert all(abs(x - 1.0) < 0.05 for x in cf)


def test_replay_is_byte_identical(sweep):
    config, out = sweep
    plan = parse_config(config)
    run_plan(plan)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before
    run_plan(parse_config(config), force=True)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_refuses_to_overwrite_without_force(sweep):
    config, out = sweep
    run_plan(parse_config(config))
    with pytest.raises(ConfigError, match="--force"):
        run_plan(parse_config(config))


def test_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    ini = """\
        [experiment]
        protocols = CfMac CsmaCa
        rates = 48
        stations = 2
        seeds = 1 2
        duration = 0.05
        warmup = 0.01

        [output]
        directory = {out}
    """
    run_plan(parse_config(write(tmp_path / "s.ini", ini.format(out=serial))))
    run_plan(parse_config(write(tmp_path / "p.ini", ini.format(out=parallel))),
             jobs=2)
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_one_cell_plan_starts_no_worker_process(tmp_path, monkeypatch):
    started = []
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    plan = ExperimentPlan(stations=[2], duration_s=0.05, warmup_s=0.01,
                          out_dir=tmp_path / "out")
    assert run_plan(plan, jobs=3) == 0
    assert started == []
    assert read_summary(tmp_path / "out")


def test_failed_run_reports_and_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    # a directory squatting on the trace path makes that one run unwritable
    (out / "trace_CsmaCa_r24_n2_s1.csv").mkdir()
    plan = ExperimentPlan(protocols=[ProtocolKind.CSMA_CA], rates=[24],
                          stations=[2], seeds=[1], duration_s=0.05,
                          warmup_s=0.01, out_dir=out)
    assert run_plan(plan, force=True) == 2
    assert "failed" in capsys.readouterr().err
    assert read_summary(out) == []


# -- command line -------------------------------------------------------------

def test_main_run_with_flag_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--protocol", "CsmaEca", "--stations", "2", "--rate",
               "24", "--duration", "0.05", "--warmup", "0.01", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    rows = read_summary(out)
    assert len(rows) == 3
    assert {r["protocol"] for r in rows} == {"CsmaEca"}
    assert {r["seed"] for r in rows} == {"3"}


def test_flags_apply_before_validation(tmp_path):
    # the file alone is invalid: the default 5 s warmup outlasts the run
    path = write(tmp_path / "c.ini", "[experiment]\nduration = 0.2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--warmup", "0.02",
                 "--stations", "2", "--out", str(out)]) == 0
    assert {r["protocol"] for r in read_summary(out)} == {"CfMac"}


def test_rate_flag_drops_the_rows_it_removes_from_the_sweep(tmp_path):
    # 100 us cannot hold a 48 Mb/s frame exchange, but --rate 6 leaves
    # 48 Mb/s out of the sweep
    path = write(tmp_path / "c.ini", """\
        [experiment]
        rates = 6, 48
        stations = 2
        duration = 0.2
        warmup = 0.02

        [schedule]
        48 = 50, 50
    """)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--rate", "6",
                 "--out", str(out)]) == 0
    assert {r["rate_mbps"] for r in read_summary(out)} == {"6"}


def test_flag_replaces_the_file_alias_key(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\nprotocol = CsmaCa\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--protocol", "CsmaEca",
                 "--stations", "2", "--duration", "0.05", "--warmup", "0.01",
                 "--out", str(out)]) == 0
    assert {r["protocol"] for r in read_summary(out)} == {"CsmaEca"}


def test_out_flag_overrides_the_output_directory(tmp_path):
    path = write(tmp_path / "c.ini", f"""\
        [experiment]
        stations = 2
        duration = 0.05
        warmup = 0.01

        [output]
        directory = {tmp_path / "file"}
    """)
    out = tmp_path / "flag"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert read_summary(out)
    assert not (tmp_path / "file").exists()


def test_empty_out_flag_rejected(tmp_path, capsys, monkeypatch):
    # Path("") is the current directory: nothing may be written there
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--duration", "0.05", "--warmup", "0.01",
                 "--out", ""]) == 1
    assert capsys.readouterr().err == \
        "error: directory: expected a path, got ''\n"
    assert not list(tmp_path.iterdir())


def test_empty_output_directory_key_rejected(tmp_path):
    path = write(tmp_path / "c.ini", """\
        [output]
        directory =
    """)
    with pytest.raises(ConfigError, match="directory: expected a path"):
        parse_config(path)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_plan_rejects_fewer_than_one_job(tmp_path, jobs):
    plan = ExperimentPlan(stations=[2], duration_s=0.05, warmup_s=0.01,
                          out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match="jobs: must be at least 1"):
        run_plan(plan, jobs=jobs)
    assert not (tmp_path / "out").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    rc = main(["run", "--rate", "7", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("duration, warmup", [
    pytest.param("1e-7", "0", id="under_one_us"),
    pytest.param("1.4e-6", "1e-6", id="warmup_rounds_to_the_end")])
def test_main_rejects_runs_shorter_than_one_microsecond(tmp_path, capsys,
                                                        duration, warmup):
    rc = main(["run", "--duration", duration, "--warmup", warmup,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--duration", "--warmup"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e303"])
def test_main_rejects_non_finite_times(tmp_path, capsys, flag, value):
    rc = main(["run", flag, value, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_rejects_overwrite(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--protocol", "CsmaCa", "--stations", "1", "--rate", "48",
            "--duration", "0.05", "--warmup", "0.01", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 1
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_main_rejects_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_model_table_output(capsys):
    assert main(["model", "--stations", "2,4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,tau,p"
    for line, n in zip(lines[1:], (2, 4)):
        n_got, tau, p = line.split(",")
        assert int(n_got) == n
        tau_ref, p_ref = solve_fixed_point(n)
        assert float(tau) == tau_ref
        assert float(p) == p_ref


@pytest.mark.parametrize("stations", ["0", "2,0", "-3"])
def test_model_rejects_counts_below_one(capsys, stations):
    assert main(["model", "--stations", stations]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_model_rejects_counts_beyond_a_float(capsys):
    # the model raises a float to the power n - 1, which 10**308 still fits
    assert main(["model", "--stations", f"2,{10 ** 400}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: stations: counts must lie in [1, ")
    assert err.count("\n") == 1
    assert main(["model", "--stations", str(10 ** 308)]) == 0
    assert capsys.readouterr().out.startswith("n,tau,p\n")


@pytest.mark.parametrize("stations", ["", ","])
def test_model_rejects_an_empty_station_list(capsys, stations):
    # the message `run` gives a plan whose station axis is empty, and no
    # bare header on stdout
    assert main(["model", "--stations", stations]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: stations: empty sweep axis\n"

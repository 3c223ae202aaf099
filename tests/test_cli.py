import concurrent.futures
import gc
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from coopmesh import cli, config, forwarding, sim_engine
from coopmesh.cli import (
    SweepSpec,
    build_arg_parser,
    default_variants,
    emit_comparison,
    main,
    read_sweep_csv,
    run_sweep,
)
from coopmesh.config import (
    MAX_EXPECTED_METERS,
    ConfigError,
    FieldError,
    ScenarioConfig,
    parse_scenario,
    parse_scenario_text,
    render_scenario,
)
from coopmesh.coop_relay import RateWeights, RoutingClass
from coopmesh.forwarding import Protocol
from coopmesh.sim_engine import form_network
from coopmesh.topology import GATEWAY_ID, DisconnectedRootError


def test_empty_config_gives_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert parse_scenario(path) == ScenarioConfig()


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_scenario(tmp_path / "nope.cfg")


def test_parse_basic_fields():
    cfg = parse_scenario_text(
        """
        [scenario]
        seed = 7
        protocol = coop_rpl
        routing_class = a
        n_packets = 123

        [channel]
        lsr_value = 0.7
        tx_range_m = 60
        """
    )
    assert cfg.seed == 7
    assert cfg.protocol is Protocol.COOP_RPL
    assert cfg.routing_class is RoutingClass.CLASS_A
    assert cfg.n_packets == 123
    assert cfg.lsr_value == 0.7
    assert cfg.tx_range_m == 60.0


def test_unknown_key_rejected_with_line_number():
    text = "[scenario]\nseed = 1\nbogus_key = 2\n"
    with pytest.raises(ConfigError, match="line 3.*bogus_key"):
        parse_scenario_text(text)
    # the key is checked before a blank value would keep a default
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus_key'"):
        parse_scenario_text("[scenario]\nbogus_key =\n")


def test_removed_sinr_per_slot_key_is_an_unknown_key(tmp_path, capsys):
    # a file written for the removed per-slot fading option fails at the
    # config boundary, not by running on a channel it did not ask for
    text = "[channel]\nsinr_per_slot = true\n"
    message = "line 2: unknown key 'sinr_per_slot' in [channel]"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_scenario_text(text)
    path = tmp_path / "old.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "text, key, first, second",
    [
        ("[scenario]\nseed = 1\nn_packets = 5\nseed = 2\n", "seed", 2, 4),
        ("[scenario]\nseed =\nseed = 2\n", "seed", 2, 3),  # blank counts as set
        ("[scenario]\nseed = 1\n[rpl]\n[scenario]\nseed = 1\n", "seed", 2, 5),
        ("[weights]\nw_sinr = 0.25\nw_nch = 0.25\nw_sinr = 0.5\n", "w_sinr", 2, 4),
    ],
)
def test_key_set_twice_rejected_at_the_second_line(text, key, first, second):
    with pytest.raises(
        ConfigError, match=f"line {second}: '{key}' in .* already set at line {first}"
    ):
        parse_scenario_text(text)


def test_importing_the_cli_leaves_the_process_pool_out():
    # a serial run never pays for the pool machinery; workers > 1 imports it
    code = "import sys, coopmesh.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "module, left_out",
    [("coopmesh.config", {"coopmesh.sim_engine", "coopmesh.cli"}),
     ("coopmesh.sim_engine", {"coopmesh.cli"})],
)
def test_imports_run_from_the_config_to_the_engine_to_the_cli(module, left_out):
    # the config describes a run, the engine runs it, the cli fronts both
    code = f"import sys, {module}; print(*sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert module in out.stdout.split()
    assert not left_out & set(out.stdout.split())


def test_malformed_value_names_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_scenario_text("[scenario]\nseed = banana\n")


def test_weights_must_sum_to_one_with_line_number():
    text = (
        "[weights]\n"
        "w_sinr = 0.5\n"
        "w_traffic = 0.5\n"
        "w_nch = 0.5\n"
        "w_etx = 0.5\n"
    )
    with pytest.raises(ConfigError, match="line 2.*sum to 1"):
        parse_scenario_text(text)


def test_partial_weights_rejected():
    with pytest.raises(ConfigError, match="missing"):
        parse_scenario_text("[weights]\nw_sinr = 1.0\n")


def test_lsr_out_of_range_diagnostic():
    with pytest.raises(ConfigError, match="line 2.*probability out of range"):
        parse_scenario_text("[channel]\nlsr_value = 1.3\n")


# trickle_imin_ms short enough that these fields' lowest values pass the
# cross-field formation rules (the default 100 ms would break them)
SHORT_TRICKLE_IMIN = {
    "slot_ms": 1e-9, "dis_timeout_ms": 10.0, "quiescence_slots": 10.0, "warmup_slots": 10.0,
}


@pytest.mark.parametrize(
    "section, key, bad, lowest_ok",
    [
        ("scenario", "intensity", 0.0, 1e-9),
        ("scenario", "density_ratio", -1.0, 1e-9),
        ("scenario", "n_packets", 0, 1),
        ("scenario", "warmup_slots", 0, 1),
        ("scenario", "slot_ms", 0.0, 1e-9),
        ("scenario", "traffic_window_slots", 0, 1),
        ("scenario", "quiescence_slots", 1, 2),
        ("scenario", "fset_size", 0, 1),
        ("scenario", "max_retx", -1, 0),
        ("scenario", "relay_retx", -1, 0),
        ("scenario", "retx_wait_slots", -2, 0),
        ("rpl", "dis_timeout_ms", 0.0, 1e-9),
        ("rpl", "trickle_doublings", -1, 0),
        ("rpl", "hysteresis", -0.5, 0.0),
        ("rpl", "etx_max", 0.5, 1.0),
        ("rpl", "trickle_redundancy_k", 0, 1),
        ("scenario", "region_side", 0.0, 1e-9),
        ("channel", "tx_power_w", -1.0, 1e-9),
        ("channel", "noise_floor_w", 0.0, 1e-9),
        ("channel", "tx_range_m", 0.0, 1e-9),
        ("channel", "reference_distance", -5.0, 1e-9),
        ("channel", "path_loss_exponent", 1.9, 2.0),
        ("rpl", "trickle_imin_ms", 0.0, 1e-9),
        ("channel", "lsr_value", 0.0, 1e-9),
        ("scenario", "p_coop", -0.1, 0.0),
        ("channel", "reference_loss_db", -300.5, -300.0),
        ("channel", "sinr_threshold_db", -300.5, -300.0),
    ],
)
def test_field_bounds_enforced_by_config_and_parser(section, key, bad, lowest_ok):
    with pytest.raises(ValueError, match=f"{key} must be"):
        ScenarioConfig(**{key: bad})
    with pytest.raises(ConfigError, match=f"line 3: {key} must be"):
        parse_scenario_text(f"[{section}]\n# lowest bound\n{key} = {bad}\n")
    imin = SHORT_TRICKLE_IMIN.get(key)
    extra = {} if imin is None else {"trickle_imin_ms": imin}
    extra_text = "" if imin is None else f"[rpl]\ntrickle_imin_ms = {imin}\n"
    assert getattr(ScenarioConfig(**{key: lowest_ok}, **extra), key) == lowest_ok
    parsed = parse_scenario_text(f"[{section}]\n{key} = {lowest_ok}\n{extra_text}")
    assert getattr(parsed, key) == lowest_ok


FLOAT_FIELDS = [
    name for name, (_, annotation) in config._FIELD_TYPES.items()
    if "float" in annotation
]
CONFIG_KEYS = {
    config._field_name(section, key): (section, key)
    for section, keys in config._SCHEMA.items()
    for key in keys
}


def test_every_config_field_is_set_by_exactly_one_key():
    # a field added to ScenarioConfig without a config key fails here
    set_by_keys = sorted(
        config._field_name(section, key)
        for section, keys in config._SCHEMA.items()
        if section != "weights"
        for key in keys
    )
    assert set_by_keys == sorted(set(config._FIELD_TYPES) - {"weights"})


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_floats_rejected_by_config_and_parser(name, bad):
    value = float(bad)
    with pytest.raises(ValueError, match=f"{name} must be"):
        ScenarioConfig(**{name: (0.5, value) if name == "sweep_values" else value})
    section, key = CONFIG_KEYS[name]
    raw = f"0.5, {bad}" if name == "sweep_values" else bad
    with pytest.raises(ConfigError, match="line 2: expected .*finite"):
        parse_scenario_text(f"[{section}]\n{key} = {raw}\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        RateWeights(float(bad), 0.5, 0.25, 0.25)
    text = f"[weights]\nw_traffic = 0.5\nw_sinr = {bad}\nw_nch = 0.25\nw_etx = 0.25\n"
    with pytest.raises(ConfigError, match="line 3: expected a finite number"):
        parse_scenario_text(text)


# at 10 ms slots the default trickle_imin_ms is 10 slots, quiescence 20 slots;
# each case gives the value that breaks a formation rule and the nearest
# value that passes it
@pytest.mark.parametrize(
    "section, key, broken, working",
    [
        ("rpl", "dis_timeout_ms", 90.0, 95.0),
        ("rpl", "trickle_imin_ms", 200.0, 190.0),
        ("scenario", "quiescence_slots", 10, 11),
        ("scenario", "slot_ms", 5.0, 5.5),
        ("scenario", "warmup_slots", 9, 10),
    ],
)
def test_formation_killing_combinations_rejected(section, key, broken, working):
    with pytest.raises(ValueError, match="round"):
        ScenarioConfig(**{key: broken})
    with pytest.raises(ConfigError, match="line 2: .*round"):
        parse_scenario_text(f"[{section}]\n{key} = {broken}\n")
    assert getattr(ScenarioConfig(**{key: working}), key) == working
    parsed = parse_scenario_text(f"[{section}]\n{key} = {working}\n")
    assert getattr(parsed, key) == working


@pytest.mark.parametrize(
    "text, line, rule",
    [
        ("[rpl]\ndis_timeout_ms = 90\ntrickle_imin_ms = 100\n", 3, "round"),
        ("[rpl]\ntrickle_imin_ms = 100\n\ndis_timeout_ms = 90\n", 4, "round"),
        ("[rpl]\ntrickle_imin_ms = 200\n[scenario]\nquiescence_slots = 20\n", 4, "round"),
        ("[scenario]\nquiescence_slots = 20\n[rpl]\n# late\ntrickle_imin_ms = 200\n", 5, "round"),
        ("[rpl]\ntrickle_imin_ms = 100\n[scenario]\nwarmup_slots = 9\n", 4, "round"),
        ("[scenario]\nwarmup_slots = 9\n\n[rpl]\ntrickle_imin_ms = 100\n", 5, "round"),
        ("[scenario]\nseed = 2\n[sweep]\naxis = lsr\nvalues =\n", 4, "sweep_values"),
        ("[sweep]\nvalues = 0.9, 0.5\n", 2, "strictly increasing"),
        ("[sweep]\naxis = lsr\nvalues = 1.5\n", 3, r"lsr_value must be in \(0, 1\]"),
        ("[sweep]\nvalues = 0\n\naxis = density\n", 4, "density_ratio must be > 0"),
    ],
    ids=[
        "imin-after-dis", "dis-after-imin", "quiescence-after-imin", "imin-after-quiescence",
        "warmup-after-imin", "imin-after-warmup", "sweep-axis-without-values",
        "sweep-decreasing", "sweep-lsr-above-one", "sweep-density-zero",
    ],
)
def test_formation_rule_error_names_the_later_key(text, line, rule):
    with pytest.raises(ConfigError, match=f"line {line}: .*{rule}"):
        parse_scenario_text(text)


# each value ran into a raw OverflowError or math domain error in the
# channel's dB-to-linear arithmetic, deep in formation
@pytest.mark.parametrize(
    "key, bad",
    [
        ("reference_loss_db", -3081.0),
        ("reference_loss_db", 3210.0),
        ("sinr_threshold_db", 3083.0),
    ],
)
def test_decibel_fields_bounded_to_a_radio_range(key, bad):
    with pytest.raises(ConfigError, match=f"line 3: {key} must be in .*dB range"):
        parse_scenario_text(f"[channel]\n# out of range\n{key} = {bad}\n")
    assert getattr(parse_scenario_text(f"[channel]\n{key} = 300\n"), key) == 300.0


# each failed inside the run (a math domain error, an infinite threshold
# and a silent pdr 0, a raw ValueError from placement) before the boundary
# rejected it
@pytest.mark.parametrize(
    "text, line",
    [
        ("[scenario]\nregion_side = 80\n[channel]\n# subnormal\ntx_power_w = 1e-320\n", 5),
        ("[channel]\npath_loss_exponent = 500\n[scenario]\nn_packets = 20\n", 2),
        ("[channel]\ntx_power_w = 1e300\nnoise_floor_w = 1e-300\nlsr_value = 0.5\n", 2),
        ("[channel]\ntx_power_w = 1e-30\n\nnoise_floor_w = 1e30\n[scenario]\nseed = 3\n", 4),
        ("[scenario]\ndensity_ratio = 1e-200\nintensity = 1e-200\nseed = 2\n", 3),
        ("[sweep]\naxis = density\nvalues = 1e-200, 1\n[scenario]\nintensity = 1e-200\n", 5),
        ("[scenario]\nintensity = 1e-200\n[sweep]\naxis = density\nvalues = 1e-200, 1\n", 5),
        ("[scenario]\n# a Poisson mean numpy refuses\nintensity = 1e300\n", 3),
        ("[scenario]\nintensity = 1\nregion_side = 1e4\n[channel]\nlsr_value = 0.5\n", 3),
        ("[sweep]\naxis = density\nvalues = 0.5, 2\n[scenario]\nintensity = 1\n"
         "region_side = 1000\n", 6),
    ],
    ids=["power-subnormal", "exponent-500", "power-1e300", "joint-budget",
         "intensity-underflow", "sweep-underflow", "sweep-underflow-last",
         "meters-intensity", "meters-side", "meters-sweep"],
)
def test_link_budget_and_intensity_rules_name_a_line(text, line):
    with pytest.raises(ConfigError, match=f"line {line}: "):
        parse_scenario_text(text)


# each formed the network, then ended in numpy's raw "high is out of bounds
# for int64" when the arrival slots were drawn
@pytest.mark.parametrize(
    "text, line",
    [
        ("[scenario]\ntraffic_window_slots = 10000000000000000000\nn_packets = 20\n", 2),
        ("[scenario]\ntraffic_window_slots = 9223372036854775000\nwarmup_slots = 3000\n", 3),
        ("[scenario]\n# a window of 2 * n_packets\nn_packets = 4611686018427387904\n", 3),
    ],
    ids=["window", "window-plus-warmup", "packets"],
)
def test_arrival_slot_rule_names_a_line(text, line):
    with pytest.raises(ConfigError, match=f"line {line}: warmup_slots \\+ the traffic window"):
        parse_scenario_text(text)


# in-bound values whose quotient overflows to infinity slots: Imin or the
# DIS timeout over slot_ms, or the longest trickle interval, Imin doubled
# trickle_doublings times (up to 1017 doublings pass at the default Imin)
IMIN_OVERFLOW = "trickle_imin_ms / slot_ms overflows"
DIS_OVERFLOW = "dis_timeout_ms / slot_ms overflows"
LONGEST_OVERFLOW = "trickle_imin_ms * 2**trickle_doublings / slot_ms overflows"
LONGEST_FIELDS = ("trickle_doublings", "trickle_imin_ms", "slot_ms")


@pytest.mark.parametrize(
    "text, line, changes, message, fields",
    [
        ("[scenario]\nslot_ms = 1e-300\n[rpl]\ntrickle_imin_ms = 1e300\n", 4,
         {"trickle_imin_ms": 1e300, "slot_ms": 1e-300}, IMIN_OVERFLOW,
         ("trickle_imin_ms", "slot_ms")),
        ("[scenario]\nslot_ms = 1e-300\n[rpl]\ndis_timeout_ms = 1e300\n", 4,
         {"dis_timeout_ms": 1e300, "slot_ms": 1e-300}, DIS_OVERFLOW,
         ("dis_timeout_ms", "slot_ms")),
        ("[rpl]\ntrickle_imin_ms = 1e300\n[scenario]\nslot_ms = 1e-300\n", 4,
         {"trickle_imin_ms": 1e300, "slot_ms": 1e-300}, IMIN_OVERFLOW,
         ("trickle_imin_ms", "slot_ms")),
        ("[rpl]\ndis_timeout_ms = 1e300\n[scenario]\nslot_ms = 1e-300\n", 4,
         {"dis_timeout_ms": 1e300, "slot_ms": 1e-300}, DIS_OVERFLOW,
         ("dis_timeout_ms", "slot_ms")),
        ("[rpl]\ntrickle_doublings = 1024\n", 2,
         {"trickle_doublings": 1024}, LONGEST_OVERFLOW, LONGEST_FIELDS),
        ("[rpl]\ntrickle_doublings = 1018\n", 2,
         {"trickle_doublings": 1018}, LONGEST_OVERFLOW, LONGEST_FIELDS),
        ("[rpl]\ntrickle_doublings = 10000000000000000000000\n", 2,
         {"trickle_doublings": 10**22}, LONGEST_OVERFLOW, LONGEST_FIELDS),
        ("[rpl]\ntrickle_doublings = 1000\ntrickle_imin_ms = 1e20\n", 3,
         {"trickle_doublings": 1000, "trickle_imin_ms": 1e20}, LONGEST_OVERFLOW,
         LONGEST_FIELDS),
        ("[rpl]\ntrickle_doublings = 1000\n[scenario]\nslot_ms = 1e-300\n", 4,
         {"trickle_doublings": 1000, "slot_ms": 1e-300}, LONGEST_OVERFLOW, LONGEST_FIELDS),
    ],
    ids=["imin-after-slot", "dis-after-slot", "slot-after-imin", "slot-after-dis",
         "doublings-1024", "doublings-1018", "doublings-huge", "imin-after-doublings",
         "slot-after-doublings"],
)
def test_slot_count_overflow_is_a_config_error(
    text, line, changes, message, fields, tmp_path, capsys
):
    with pytest.raises(FieldError, match=re.escape(message)) as caught:
        ScenarioConfig(**changes)
    assert set(caught.value.fields) == set(fields)
    with pytest.raises(ConfigError, match=f"line {line}: {re.escape(message)}"):
        parse_scenario_text(text)
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text(text)
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"config error: line {line}: " in err and "Traceback" not in err


def test_help_epilog_quotes_scenario_defaults():
    epilog = build_arg_parser().epilog
    defaults = ScenarioConfig()
    assert f"{defaults.tx_range_m:g} m range" in epilog
    assert f"reference link ({defaults.reference_distance:g} m)" in epilog


def test_comments_and_blank_values_are_ignored():
    cfg = parse_scenario_text(
        "[scenario]  # section\nseed = 9  # trailing comment\nn_packets = \n"
    )
    assert cfg.seed == 9
    assert cfg.n_packets == ScenarioConfig().n_packets


RENDERED_DEFAULTS = (
    "[scenario]\nseed = 1\nregion_side = 300.0\nintensity = 0.0008888888888888889\n"
    "density_ratio = 1.0\nprotocol = rpl\nrouting_class = best_effort\np_coop = 1.0\n"
    "max_retx = 3\nrelay_retx = 1\nretx_wait_slots = 1\nfset_size = 3\nn_packets = 1000\n"
    "warmup_slots = 3000\ntraffic_window_slots = \nquiescence_slots = 20\nslot_ms = 10.0\n"
    "\n[channel]\ntx_power_w = 2.0\npath_loss_exponent = 3.0\nreference_loss_db = 40.0\n"
    "noise_floor_w = 1e-13\ntx_range_m = 70.0\nsinr_threshold_db = 40.0\nlsr_value = \n"
    "lsr_mapping = reference\nreference_distance = 41.5\n"
    "\n[rpl]\netx_max = 16.0\nhysteresis = 0.5\ntrickle_imin_ms = 100.0\n"
    "trickle_doublings = 8\ntrickle_redundancy_k = 10\ndis_timeout_ms = 500.0\n"
)


def test_render_text_is_pinned():
    assert render_scenario(ScenarioConfig()) == RENDERED_DEFAULTS
    cfg = ScenarioConfig(
        seed=42,
        protocol=Protocol.COOP_RPL,
        routing_class=RoutingClass.CLASS_C,
        weights=RateWeights(0.4, 0.3, 0.2, 0.1),
        lsr_value=0.65,
        sweep_axis="lsr",
        sweep_values=(0.5, 0.7),
        traffic_window_slots=512,
    )
    expected = (
        RENDERED_DEFAULTS
        .replace("seed = 1\n", "seed = 42\n")
        .replace("protocol = rpl\n", "protocol = coop_rpl\n")
        .replace("routing_class = best_effort\n", "routing_class = c\n")
        .replace("traffic_window_slots = \n", "traffic_window_slots = 512\n")
        .replace("lsr_value = \n", "lsr_value = 0.65\n")
        + "\n[weights]\nw_sinr = 0.4\nw_traffic = 0.3\nw_nch = 0.2\nw_etx = 0.1\n"
        + "\n[sweep]\naxis = lsr\nvalues = 0.5, 0.7\n"
    )
    assert render_scenario(cfg) == expected


def test_render_round_trips():
    for cfg in (
        ScenarioConfig(),
        ScenarioConfig(
            seed=42,
            protocol=Protocol.COOP_RPL,
            routing_class=RoutingClass.CLASS_C,
            lsr_value=0.65,
            reference_distance=33.0,
            sweep_axis="lsr",
            sweep_values=(0.5, 0.7),
            traffic_window_slots=512,
        ),
    ):
        assert parse_scenario_text(render_scenario(cfg)) == cfg


@st.composite
def link_budgets(draw, region_side):
    """The seven fields the link budget rule reads, for a region of side
    region_side; a draw the rule rejects is discarded. The trial config
    expects one meter, so the meter-count cap rejects no region."""
    positive = st.floats(min_value=1e-6, max_value=1e6)
    budget = dict(
        region_side=region_side,
        tx_power_w=draw(positive),
        noise_floor_w=draw(positive),
        reference_loss_db=draw(st.floats(min_value=-300.0, max_value=300.0)),
        path_loss_exponent=draw(st.floats(min_value=2.0, max_value=8.0)),
        tx_range_m=draw(positive),
        reference_distance=draw(positive),
    )
    try:
        ScenarioConfig(**budget, intensity=1.0 / region_side**2)
    except FieldError:
        reject()
    return budget


def most_doublings(trickle_imin_ms, slot_ms):
    """The most trickle doublings ScenarioConfig accepts at trickle_imin_ms
    and slot_ms: the longest interval, trickle_imin_ms * 2**doublings, and
    its slot count must be finite floats."""
    doublings = 1024 - math.frexp(trickle_imin_ms)[1]  # the last finite power
    while not math.isfinite(math.ldexp(trickle_imin_ms, doublings) / slot_ms):
        doublings -= 1
    return doublings


@st.composite
def valid_configs(draw, sides=st.floats(min_value=1e-6, max_value=1e6)):
    positive = st.floats(min_value=1e-6, max_value=1e6)
    decibels = st.floats(min_value=-300.0, max_value=300.0)
    share = st.floats(min_value=0.0, max_value=1.0)
    slot_ms = draw(st.floats(min_value=0.1, max_value=100.0))
    trickle_imin_ms = draw(st.floats(min_value=0.0, max_value=1e4, exclude_min=True))
    imin_slots = max(1, round(trickle_imin_ms / slot_ms))
    weights = None
    if draw(st.booleans()):
        parts = [draw(st.floats(min_value=0.0, max_value=1 / 3)) for _ in range(3)]
        weights = RateWeights(*parts, 1.0 - sum(parts))
    axis = draw(st.sampled_from([None, "lsr", "density"]))
    # a sweep rises strictly and stays inside the bound of the field its
    # axis sets (lsr_value in (0, 1], density_ratio > 0)
    value = (
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
        if axis == "lsr" else positive
    )
    values = st.lists(value, min_size=1, max_size=4, unique=True).map(
        lambda drawn: tuple(sorted(drawn))
    )
    budget = draw(link_budgets(draw(sides)))
    density_ratio = draw(positive)
    sweep_values = draw(values if axis else st.just(()) | values)
    # the intensity follows from an expected meter count within the cap, on
    # the densest ratio the config runs; half the cap leaves room for rounding
    densest = max((density_ratio, *sweep_values) if axis == "density" else (density_ratio,))
    meters = draw(st.floats(min_value=1e-6, max_value=MAX_EXPECTED_METERS / 2))
    return ScenarioConfig(
        **budget,
        intensity=meters / budget["region_side"] ** 2 / densest,
        density_ratio=density_ratio,
        sinr_threshold_db=draw(decibels),
        lsr_value=draw(st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        lsr_mapping=draw(st.sampled_from(["reference", "uniform"])),
        protocol=draw(st.sampled_from(Protocol)),
        routing_class=draw(st.sampled_from(RoutingClass)),
        weights=weights,
        p_coop=draw(share),
        max_retx=draw(st.integers(0, 10)),
        relay_retx=draw(st.integers(0, 10)),
        retx_wait_slots=draw(st.integers(0, 10)),
        fset_size=draw(st.integers(1, 10)),
        n_packets=draw(st.integers(1, 10**6)),
        warmup_slots=imin_slots + draw(st.integers(0, 10**6)),
        traffic_window_slots=draw(st.none() | st.integers(1, 10**6)),
        quiescence_slots=imin_slots + draw(st.integers(1, 1000)),
        slot_ms=slot_ms,
        seed=draw(st.integers(-(2**63), 2**63 - 1)),
        etx_max=draw(st.floats(min_value=1.0, max_value=1e3)),
        hysteresis=draw(st.floats(min_value=0.0, max_value=10.0)),
        trickle_imin_ms=trickle_imin_ms,
        # short schedules, as a run uses, and any up to the longest the
        # config accepts
        trickle_doublings=draw(
            st.integers(0, 16) | st.integers(0, most_doublings(trickle_imin_ms, slot_ms))
        ),
        trickle_redundancy_k=draw(st.integers(1, 100)),
        dis_timeout_ms=trickle_imin_ms + draw(st.floats(min_value=slot_ms, max_value=1e4)),
        sweep_axis=axis,
        sweep_values=sweep_values,
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_render_then_parse_is_identity(cfg):
    assert parse_scenario_text(render_scenario(cfg)) == cfg


# the link budget and range fields of the default channel
DEFAULT_CHANNEL = {
    name: getattr(ScenarioConfig(), name)
    for name in (*config.LINK_BUDGET_FIELDS, "tx_range_m", "sinr_threshold_db",
                 "reference_distance")
}


@st.composite
def runnable_configs(draw):
    """valid_configs() cut down to runs of well under a second: a region of
    at most 150 m holding about 30 meters at most, at most 50 packets sent
    within 200 slots, and a warmup of at most 2,000 slots past the
    gateway's first DIO. About half the draws replace the drawn channel by
    the default link budget at an LSR in [0.3, 0.9], where links fail and
    relays forward; a drawn budget mostly gives links that never fail.
    Every other field is valid_configs()' draw."""
    cfg = draw(valid_configs(st.floats(min_value=10.0, max_value=150.0)))
    if draw(st.booleans()):
        lsr = draw(st.floats(min_value=0.3, max_value=0.9))
        cfg = replace(cfg, **DEFAULT_CHANNEL, lsr_value=lsr)
    meters = draw(st.floats(min_value=1.0, max_value=30.0))
    imin_slots = cfg.ms_to_slots(cfg.trickle_imin_ms)
    window = cfg.traffic_window_slots
    return replace(
        cfg,
        intensity=meters / cfg.region_side**2,
        density_ratio=1.0,
        n_packets=min(cfg.n_packets, 50),
        warmup_slots=min(cfg.warmup_slots, imin_slots + 2000),
        traffic_window_slots=None if window is None else min(window, 200),
        sweep_axis=None,
        sweep_values=(),
    )


@settings(max_examples=100, deadline=None)
@given(runnable_configs())
def test_generated_configs_run_soundly(cfg):
    try:
        sim = form_network(cfg)
    except DisconnectedRootError:
        return  # placement found no meter in the gateway's range
    # formation leaves a DAG: every joined meter's default parents climb to
    # the gateway through strictly falling ranks, visiting no node twice
    for node, state in sim.states.items():
        if node == GATEWAY_ID or not state.joined:
            continue
        seen = {node}
        while state.node_id != GATEWAY_ID:
            parent = sim.states[state.default_parent]
            assert parent.joined and parent.rank < state.rank
            assert parent.node_id not in seen
            seen.add(parent.node_id)
            state = parent
    # every packet the report counts resolved one way: delivered at a slot,
    # or dropped for one of the hop engine's three reasons
    folded = []
    fold = sim_engine.MetricsTally.fold

    def recording_fold(tally, packet):
        folded.append(packet)
        fold(tally, packet)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_engine.MetricsTally, "fold", recording_fold)
        report = sim.run_traffic()
    assert len(folded) == report.packets_sent
    for packet in folded:
        assert (packet.delivered_slot is None) != (packet.drop_reason is None)
        assert packet.drop_reason in (None, "no-route", "link-failure", "loop")
    assert report.dropped == sum(packet.drop_reason is not None for packet in folded)
    assert report.joined_nodes >= 1  # a config that validates forms a network
    assert report.packets_sent == cfg.n_packets
    assert report.delivered + report.dropped == report.packets_sent
    assert math.isfinite(report.pdr) and math.isfinite(report.mean_retransmissions)
    for delay in (report.mean_delay_slots, report.mean_delay_ms):
        assert (delay is None) == (report.delivered == 0)
        assert delay is None or (math.isfinite(delay) and delay >= 0)


def test_generated_configs_reach_the_loss_paths(monkeypatch):
    # the property tests over runnable_configs() are not vacuous: over a
    # fixed sample of drawn configs, run as coop_rpl, some run retransmits
    # and some hop is delivered by the relay that overheard it
    retransmitted = []
    relayed = []
    hop = forwarding.forward_hop

    def counting_hop(*args):
        outcome = hop(*args)
        relayed.append(outcome.delivered_by_relay)
        return outcome

    monkeypatch.setattr(forwarding, "forward_hop", counting_hop)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(runnable_configs())
    def run(cfg):
        try:
            report = sim_engine.run_scenario(replace(cfg, protocol=Protocol.COOP_RPL))
        except DisconnectedRootError:
            return  # placement found no meter in the gateway's range
        retransmitted.append(report.mean_retransmissions > 0)

    run()
    assert any(retransmitted) and any(relayed)


@settings(max_examples=10, deadline=None)
@given(
    cfg=runnable_configs(),
    axis=st.sampled_from(["lsr", "density"]),
    values=st.lists(st.floats(min_value=0.25, max_value=1.0), min_size=2, max_size=2, unique=True),
)
def test_generated_sweeps_replay_across_worker_counts(tmp_path_factory, cfg, axis, values):
    # 2 values x 2 seeds x 2 variants: the CSV is the same bytes however
    # many processes share the points. Eight runs per example, so the warmup
    # is cut to 500 slots past the gateway's first DIO to bound the time.
    imin_slots = cfg.ms_to_slots(cfg.trickle_imin_ms)
    cfg = replace(cfg, warmup_slots=min(cfg.warmup_slots, imin_slots + 500))
    variants = default_variants(["rpl", "coop_rpl"], ["best_effort"])
    spec = SweepSpec(axis, tuple(sorted(values)), variants, seeds=2)
    out = tmp_path_factory.mktemp("replay")
    run_sweep(cfg, spec, out / "one.csv", workers=1)
    run_sweep(cfg, spec, out / "two.csv", workers=2)
    assert (out / "one.csv").read_bytes() == (out / "two.csv").read_bytes()


def test_default_variants_expand_coop_classes():
    variants = default_variants()
    assert variants[0] == (Protocol.RPL, RoutingClass.BEST_EFFORT)
    assert variants[1] == (Protocol.OPP_RPL, RoutingClass.BEST_EFFORT)
    coop = [v for v in variants if v[0] is Protocol.COOP_RPL]
    assert [c.value for _, c in coop] == ["a", "b", "c", "best_effort"]
    assert len(variants) == 6


def test_sweep_spec_validation(tmp_path, monkeypatch):
    variants = default_variants(["rpl"])
    with pytest.raises(ConfigError, match="seeds"):
        SweepSpec("lsr", (0.5,), variants, 0)

    # run_sweep puts the values through the rules of its config, as a
    # [sweep] section is, before any point runs or the CSV is opened
    def no_point_runs(config, emit=None):
        raise AssertionError(f"a point ran at {config.lsr_value}, {config.density_ratio}")

    monkeypatch.setattr(sim_engine, "run_scenario", no_point_runs)
    out = tmp_path / "sweep.csv"
    for axis, values, message in (
        ("lsr", (0.7, 0.5), "strictly increasing"),
        ("lsr", (0.5, 1.2), "probability"),
        ("density", (-1.0,), "density_ratio must be > 0"),
        # each value passes density_ratio's bound; 1e30 would place 8e31 meters
        ("density", (0.5, 1e30), "expected meter count"),
    ):
        spec = SweepSpec(axis, values, variants, 1)
        with pytest.raises(FieldError, match=message):
            run_sweep(ScenarioConfig(n_packets=50), spec, out)
        assert not out.exists()


@pytest.mark.parametrize(
    "protocols, classes, repeated",
    [(["rpl", "rpl"], None, "rpl,-"), (["rpl", "RPL"], None, "rpl,-"),
     (None, ["a", "a"], "coop_rpl,a")],
)
def test_sweep_spec_rejects_a_variant_named_twice(protocols, classes, repeated):
    # it ran twice, and the CSV held two identical data rows and aggregates
    with pytest.raises(ConfigError, match=f"^variant {repeated} is named more than once$"):
        SweepSpec("lsr", (0.5,), default_variants(protocols, classes), 1)


SMALL = ScenarioConfig(region_side=80.0, intensity=10.0 / 6400.0, n_packets=60)


def test_run_sweep_row_counts_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec("lsr", (0.6,), default_variants(["rpl"]), seeds=1)
    rows, failed = run_sweep(SMALL, spec, out)
    assert failed == 0
    assert len(rows) == 1
    parsed = read_sweep_csv(out)
    assert len(parsed) == 3  # 1 data row + mean + stddev
    assert list(parsed[0].keys()) == [
        "protocol", "class", "axis", "axis_value", "seed",
        "pdr", "mean_retx", "mean_delay_slots", "mean_delay_ms",
        "sent", "delivered", "dropped",
    ]
    assert {r["seed"] for r in parsed} == {"1", "mean", "stddev"}


def test_run_sweep_full_matrix_row_count(tmp_path):
    out = tmp_path / "matrix.csv"
    spec = SweepSpec("lsr", (0.5, 0.9), default_variants(), seeds=2)
    rows, failed = run_sweep(SMALL, spec, out)
    assert failed == 0
    assert len(rows) == 2 * 6 * 2  # values x variants x seeds
    parsed = read_sweep_csv(out)
    assert len(parsed) == 24 + 2 * 6 * 2  # data + mean/stddev per (value, variant)


def test_run_sweep_deterministic_csv_bytes(tmp_path):
    spec = SweepSpec("lsr", (0.7,), default_variants(["rpl", "coop_rpl"], ["b"]), seeds=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(SMALL, spec, a, workers=1)
    run_sweep(SMALL, spec, b, workers=2)
    assert a.read_bytes() == b.read_bytes()


def test_run_sweep_starts_at_most_one_worker_per_point(tmp_path, monkeypatch):
    requested = []

    class InProcessPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    variants = default_variants(["rpl"])
    one_point = SweepSpec("lsr", (0.6,), variants, seeds=1)
    run_sweep(SMALL, one_point, tmp_path / "serial.csv", workers=1)
    run_sweep(SMALL, one_point, tmp_path / "wide.csv", workers=64)
    assert requested == []  # one point runs serially
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    two_points = SweepSpec("lsr", (0.6, 0.7), variants, seeds=1)
    run_sweep(SMALL, two_points, tmp_path / "serial.csv", workers=1)
    run_sweep(SMALL, two_points, tmp_path / "wide.csv", workers=100_000)
    assert requested == [2]
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_run_sweep_density_axis(tmp_path):
    out = tmp_path / "density.csv"
    spec = SweepSpec("density", (0.8, 1.2), default_variants(["rpl"]), seeds=1)
    rows, failed = run_sweep(SMALL, spec, out)
    assert failed == 0
    assert {r["axis"] for r in rows} == {"density"}
    assert [r["axis_value"] for r in rows] == [0.8, 1.2]


def test_run_sweep_marks_failed_points_and_continues(tmp_path):
    # an intensity so low that placement cannot connect the gateway
    broken = ScenarioConfig(region_side=80.0, intensity=1e-9, n_packets=10)
    spec = SweepSpec("lsr", (0.5,), default_variants(["rpl"]), seeds=1)
    rows, failed = run_sweep(broken, spec, tmp_path / "f.csv")
    assert failed == 1
    assert rows[0]["pdr"] is None
    parsed = read_sweep_csv(tmp_path / "f.csv")
    assert parsed[0]["pdr"] == ""


def test_run_sweep_lets_program_errors_escape(tmp_path, monkeypatch):
    # only a disconnected placement is a failed point; a bug must surface
    def broken(config, emit=None):
        raise ZeroDivisionError("simulated bug")

    monkeypatch.setattr(sim_engine, "run_scenario", broken)
    spec = SweepSpec("lsr", (0.5,), default_variants(["rpl"]), seeds=1)
    with pytest.raises(ZeroDivisionError, match="simulated bug"):
        run_sweep(SMALL, spec, tmp_path / "z.csv")


def test_a_sweep_that_raises_leaves_an_earlier_csv_whole(tmp_path, monkeypatch):
    # the CSV is opened before the first point; it is cut only once every
    # row is in
    out = tmp_path / "sweep.csv"
    spec = SweepSpec("lsr", (0.6,), default_variants(["rpl"]), seeds=1)
    run_sweep(SMALL, spec, out)
    earlier = out.read_bytes()

    def broken(config, emit=None):
        raise ZeroDivisionError("simulated bug")

    monkeypatch.setattr(sim_engine, "run_scenario", broken)
    with pytest.raises(ZeroDivisionError):
        run_sweep(SMALL, SweepSpec("lsr", (0.7,), spec.variants, seeds=1), out)
    assert out.read_bytes() == earlier
    monkeypatch.undo()
    run_sweep(SMALL, spec, out)
    assert out.read_bytes() == earlier


# SHA-256 of test_physical_channel_sweep_is_pinned's CSV: the one pin on the
# uncalibrated physical channel (lsr_value unset)
PHYSICAL_SWEEP_DIGEST = "962ebff32fe37147ace45527edc15744fe9a7a8c7c70d2819a768797b50f1f0e"


def test_physical_channel_sweep_is_pinned(tmp_path):
    config = ScenarioConfig(region_side=240.0, intensity=60.0 / 240.0**2, n_packets=300)
    assert config.lsr_value is None
    variants = default_variants(["rpl", "coop_rpl"], ["best_effort"])
    out = tmp_path / "physical.csv"
    rows, failed = run_sweep(config, SweepSpec("density", (0.8, 1.2), variants, 2), out)
    assert failed == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PHYSICAL_SWEEP_DIGEST


def _count_calls(monkeypatch, name):
    """Count calls of sim_engine's name, which then runs as before."""
    calls = []
    original = getattr(sim_engine, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sim_engine, name, counting)
    return calls


def test_a_sweep_point_places_its_meters_once(monkeypatch):
    placed = _count_calls(monkeypatch, "place_nodes")
    built = _count_calls(monkeypatch, "Channel")
    rows = cli._sweep_point((SMALL, "lsr", 0.6, 2, default_variants()))
    assert len(rows) == 6 and all(r.get("error") is None for r in rows)
    assert len(placed) == len(built) == 1


@pytest.mark.parametrize("axis, value", [("lsr", 0.6), ("density", 1.2)])
def test_shared_variants_report_what_they_report_alone(monkeypatch, axis, value):
    # the density axis leaves the channel physical: every link its own
    # success probability, cached in the shared channel
    runs = []
    run = sim_engine.run_scenario

    def recording(config, emit=None):
        report = run(config, emit)
        runs.append((config, report))
        return report

    monkeypatch.setattr(sim_engine, "run_scenario", recording)
    cli._sweep_point((SMALL, axis, value, 2, default_variants()))
    monkeypatch.undo()
    assert len(runs) == 6
    for config, report in runs:
        assert run(config) == report


def test_a_sweep_point_keeps_no_network_once_it_returns(monkeypatch):
    channels = []
    init = sim_engine.Simulation.__init__

    def recording(sim, config):
        init(sim, config)
        channels.append(weakref.ref(sim.channel))

    monkeypatch.setattr(sim_engine.Simulation, "__init__", recording)
    cli._sweep_point((SMALL, "lsr", 0.6, 2, default_variants()))
    assert sim_engine._networks is None
    gc.collect()
    assert len(channels) == 6 and all(ref() is None for ref in channels)


def test_runs_outside_a_sweep_point_place_their_own_meters(monkeypatch):
    placed = _count_calls(monkeypatch, "place_nodes")
    config = replace(SMALL, lsr_value=0.6, seed=2)
    assert sim_engine.run_scenario(config) == sim_engine.run_scenario(config)
    assert len(placed) == 2


def test_a_point_whose_placement_fails_gives_every_variant_an_error_row(monkeypatch):
    # a failed placement is not kept, so every variant tries it and fails
    placed = _count_calls(monkeypatch, "place_nodes")
    broken = ScenarioConfig(region_side=80.0, intensity=1e-9, n_packets=10)
    rows = cli._sweep_point((broken, "lsr", 0.5, 1, default_variants()))
    assert [r["error"] for r in rows] == ["disconnected-root"] * 6
    assert all(r["pdr"] is None for r in rows)
    assert len(placed) == 6
    assert sim_engine._networks is None


def _write_csv(path, rows):
    import csv as _csv

    with path.open("w", newline="") as handle:
        writer = _csv.DictWriter(handle, fieldnames=[
            "protocol", "class", "axis", "axis_value", "seed",
            "pdr", "mean_retx", "mean_delay_slots", "mean_delay_ms",
            "sent", "delivered", "dropped",
        ])
        writer.writeheader()
        writer.writerows(rows)


def _mean_row(protocol, cls, value, pdr, delay):
    return {
        "protocol": protocol, "class": cls, "axis": "lsr", "axis_value": value,
        "seed": "mean", "pdr": pdr, "mean_retx": 1.0,
        "mean_delay_slots": delay, "mean_delay_ms": delay * 10,
        "sent": 100, "delivered": int(100 * pdr), "dropped": 100 - int(100 * pdr),
    }


def test_emit_comparison_identical_protocols_all_zero(tmp_path):
    path = tmp_path / "cmp.csv"
    _write_csv(path, [
        _mean_row("rpl", "-", 0.5, 0.6, 8.0),
        _mean_row("opp_rpl", "-", 0.5, 0.6, 8.0),
        _mean_row("coop_rpl", "best_effort", 0.5, 0.6, 8.0),
    ])
    out = io.StringIO()
    results = emit_comparison(path, out=out)
    be = results["best_effort"]
    assert be["dpdr_vs_rpl_points"] == pytest.approx(0.0)
    assert be["dpdr_vs_opp_points"] == pytest.approx(0.0)
    assert be["delay_reduction_vs_rpl_pct"] == pytest.approx(0.0)


def test_emit_comparison_reports_max_over_sweep(tmp_path):
    path = tmp_path / "cmp2.csv"
    _write_csv(path, [
        _mean_row("rpl", "-", 0.5, 0.50, 10.0),
        _mean_row("rpl", "-", 0.9, 0.90, 5.0),
        _mean_row("coop_rpl", "best_effort", 0.5, 0.65, 8.5),
        _mean_row("coop_rpl", "best_effort", 0.9, 0.92, 5.0),
    ])
    results = emit_comparison(path, out=io.StringIO())
    be = results["best_effort"]
    assert be["dpdr_vs_rpl_points"] == pytest.approx(15.0)
    assert be["delay_reduction_vs_rpl_pct"] == pytest.approx(15.0)
    assert be["dpdr_vs_opp_points"] is None


def test_emit_comparison_needs_baseline(tmp_path):
    path = tmp_path / "nobase.csv"
    _write_csv(path, [_mean_row("coop_rpl", "a", 0.5, 0.6, 7.0)])
    with pytest.raises(ValueError, match="rpl baseline"):
        emit_comparison(path, out=io.StringIO())


def test_main_single_run_echoes_config_and_reports(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[scenario]\nregion_side = 80\nintensity = 0.0015625\nn_packets = 40\n"
        "[channel]\nlsr_value = 0.8\n"
    )
    code = main(["--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[scenario]" in out  # resolved config echoed
    assert "pdr = " in out
    # echoed config re-parses to the same thing
    echoed = out.split("packets_sent")[0]
    assert parse_scenario_text(echoed).lsr_value == 0.8


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[channel]\nlsr_value = 1.3\n")
    assert main(["--config", str(bad)]) == 1
    assert "probability out of range" in capsys.readouterr().err


def test_main_rejects_sweep_values_without_axis(tmp_path, capsys):
    cfg_path = tmp_path / "values.cfg"
    cfg_path.write_text(
        "[scenario]\nregion_side = 80\nintensity = 0.0015625\nn_packets = 10\n"
        "[sweep]\nvalues = 0.5, 0.9\n"
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert "[sweep] values need an axis" in captured.err
    assert "pdr = " not in captured.out  # no single run in their place


@pytest.mark.parametrize(
    "flag, value", [("--protocols", "coop_rpl"), ("--classes", "a"), ("--out", "x.csv")]
)
def test_main_rejects_sweep_flags_without_a_sweep(tmp_path, capsys, flag, value):
    # each was ignored: one scenario ran instead, and no CSV was written
    if flag == "--out":
        value = str(tmp_path / value)
    code = main(["--workers", "4", "--seeds", "3", flag, value, "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"config error: {flag} needs --sweep")
    assert "pdr = " not in captured.out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, value", [("--seeds", "3"), ("--workers", "4")])
def test_main_rejects_seeds_and_workers_without_a_sweep(tmp_path, capsys, flag, value):
    # each was ignored: one scenario ran and the run exited 0
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("[scenario]\nregion_side = 80\nintensity = 0.0015625\nn_packets = 20\n")
    code = main(["--config", str(cfg_path), flag, value, "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"config error: {flag} needs --sweep")
    assert "pdr = " not in captured.out


def test_main_sweep_without_seeds_or_workers_runs_20_seeds_on_1_worker(
    tmp_path, capsys, monkeypatch
):
    calls = []

    def recording(config, spec, out_path, workers):
        calls.append((spec.seeds, workers))
        return [], 0

    monkeypatch.setattr(cli, "run_sweep", recording)
    out_csv = tmp_path / "out.csv"
    assert main(["--sweep", "lsr", "--values", "0.5", "--out", str(out_csv), "--quiet"]) == 0
    assert calls == [(20, 1)]
    assert main([
        "--sweep", "lsr", "--values", "0.5", "--out", str(out_csv), "--quiet",
        "--seeds", "3", "--workers", "2",
    ]) == 0
    assert calls[1] == (3, 2)


def test_main_puts_cli_sweep_values_through_the_config_rules(tmp_path, capsys):
    # the same values in a [sweep] section fail at the config boundary;
    # from --values they used to fail inside the first sweep point
    out_csv = tmp_path / "out.csv"
    code = main([
        "--sweep", "density", "--values", "1e-322,0.5", "--out", str(out_csv), "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "config error: --values: sweep value 1e-322: the effective intensity"
    )
    assert not out_csv.exists()


def test_main_rejects_trace_with_sweep(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code = main([
        "--sweep", "lsr", "--values", "0.5,0.9", "--trace", str(trace_path),
        "--out", str(tmp_path / "out.csv"), "--quiet",
    ])
    assert code == 1
    assert "--trace records a single run" in capsys.readouterr().err
    assert not trace_path.exists()
    assert not (tmp_path / "out.csv").exists()  # no sweep ran either


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_workers_below_one(tmp_path, capsys, workers):
    out_csv = tmp_path / "out.csv"
    code = main([
        "--sweep", "lsr", "--values", "0.5", "--workers", workers,
        "--out", str(out_csv), "--quiet",
    ])
    assert code == 1
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flag, value, repeated",
    [("--protocols", "rpl,RPL", "rpl,-"), ("--classes", "a,a", "coop_rpl,a")],
)
def test_main_rejects_a_variant_named_twice_before_any_point(
    tmp_path, capsys, monkeypatch, flag, value, repeated
):
    def no_point_runs(config, emit=None):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim_engine, "run_scenario", no_point_runs)
    out_csv = tmp_path / "out.csv"
    code = main([
        "--sweep", "density", "--values", "0.5", "--seeds", "1", flag, value,
        "--out", str(out_csv), "--quiet",
    ])
    assert code == 1
    assert capsys.readouterr().err == f"config error: variant {repeated} is named more than once\n"
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        # the unknown class exited 0 and wrote the CSV of rpl alone
        (["--protocols", "rpl", "--classes", "zzz"], "unknown routing class 'zzz'"),
        (["--protocols", "zzz"], "unknown protocol 'zzz'"),
        # an empty list ran every protocol, or every class, and empty
        # values ran the config file's
        (["--protocols", ""], "--protocols names nothing"),
        (["--classes", ""], "--classes names nothing"),
        (["--values", ""], "--values names nothing"),
    ],
)
def test_main_rejects_an_unknown_name_or_an_empty_list_before_any_point(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_point_runs(config, emit=None):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim_engine, "run_scenario", no_point_runs)
    out_csv = tmp_path / "out.csv"
    code = main([
        "--sweep", "lsr", "--values", "0.5", "--seeds", "1", *flags,
        "--out", str(out_csv), "--quiet",
    ])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_csv.exists()


def test_main_config_that_cannot_be_opened_is_an_error(tmp_path, capsys):
    # opening a directory raised IsADirectoryError out of main
    assert main(["--config", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--trace", "--out"])
def test_main_rejects_an_output_path_that_is_a_directory(tmp_path, capsys, monkeypatch, flag):
    # --out used to fail with IsADirectoryError after the whole sweep had run
    def no_point_runs(config, emit=None):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim_engine, "run_scenario", no_point_runs)
    sweep = ["--sweep", "lsr", "--values", "0.5", "--seeds", "1"] if flag == "--out" else []
    code = main([*sweep, flag, str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"config error: {flag} names a directory: {tmp_path}\n"
    assert "Traceback" not in err


def test_main_sweep_output_that_cannot_be_created_fails_before_any_point(
    tmp_path, capsys, monkeypatch
):
    # the CSV used to be opened after every point had run, so its results
    # were lost; a parent that is a plain file is found before the first
    def no_point_runs(config, emit=None):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim_engine, "run_scenario", no_point_runs)
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main([
        "--sweep", "lsr", "--values", "0.5", "--seeds", "2", "--protocols", "rpl",
        "--out", str(afile / "x.csv"), "--quiet",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert afile.read_text() == ""


def test_main_sweep_writes_csv_and_comparison(tmp_path, capsys):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(
        "[scenario]\nregion_side = 80\nintensity = 0.0015625\nn_packets = 40\n"
    )
    out_csv = tmp_path / "out.csv"
    code = main([
        "--config", str(cfg_path), "--sweep", "lsr", "--values", "0.6,0.9",
        "--protocols", "rpl,coop_rpl", "--classes", "best_effort",
        "--seeds", "2", "--out", str(out_csv), "--quiet",
    ])
    assert code == 0
    assert out_csv.exists()
    out = capsys.readouterr().out
    assert "max-over-sweep comparison" in out


def test_main_sweep_partial_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "broken.cfg"
    # intensity too thin to ever connect the gateway: every point fails
    cfg_path.write_text("[scenario]\nintensity = 1e-9\nn_packets = 10\n")
    code = main([
        "--config", str(cfg_path), "--sweep", "lsr", "--values", "0.5",
        "--protocols", "rpl", "--seeds", "1",
        "--out", str(tmp_path / "broken.csv"), "--quiet",
    ])
    assert code == 2
    assert "1 failed" in capsys.readouterr().out


def test_main_sweep_with_every_point_failed_exit_code(tmp_path, capsys):
    # every variant fails, so no series can be compared: the exit code
    # reports the failed points, not a missing baseline
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("[scenario]\nintensity = 1e-9\n")
    code = main([
        "--config", str(cfg_path), "--sweep", "lsr", "--values", "0.5",
        "--seeds", "1", "--out", str(tmp_path / "broken.csv"), "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "6 failed" in captured.out
    assert captured.err == ""


def test_main_trace_written_for_single_run(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(
        "[scenario]\nregion_side = 80\nintensity = 0.0015625\nn_packets = 20\n"
        "protocol = coop_rpl\n[channel]\nlsr_value = 0.7\n"
    )
    trace_path = tmp_path / "trace.jsonl"
    code = main(["--config", str(cfg_path), "--trace", str(trace_path), "--quiet"])
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) > 20
    import json

    records = [json.loads(line) for line in lines]
    assert any(r.get("type") == "DIO" for r in records)
    assert any("packet_id" in r for r in records)


# SHA-256 of the --trace file written for TRACED_CONFIG: 36 DIO, 2 DIS,
# 12 DAO, 63 relay and 50 packet records. The trace digests in
# test_sim_engine.py hash sort_keys JSON; this one also pins each record's
# key order and the JSON text as written
TRACE_FILE_DIGEST = "c75b2948a952bd7035091353050a88c29996f78927bf23eadcf2eff861bbfd28"
TRACED_CONFIG = (
    "[scenario]\nseed = 2\nregion_side = 150\nintensity = 0.00044444444444444447\n"
    "n_packets = 50\nprotocol = coop_rpl\n[channel]\nlsr_value = 0.6\n"
)


def test_main_trace_file_bytes_are_pinned(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(TRACED_CONFIG)
    trace_path = tmp_path / "trace.jsonl"
    code = main(["--config", str(cfg_path), "--trace", str(trace_path), "--quiet"])
    assert code == 0
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == TRACE_FILE_DIGEST

import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from coopmesh import cli, sim_engine
from coopmesh.cli import (
    ConfigError,
    SweepSpec,
    build_arg_parser,
    default_variants,
    emit_comparison,
    main,
    parse_scenario,
    parse_scenario_text,
    read_sweep_csv,
    render_scenario,
    run_sweep,
)
from coopmesh.coop_relay import RateWeights, RoutingClass
from coopmesh.forwarding import Protocol
from coopmesh.sim_engine import MAX_EXPECTED_METERS, FieldError, ScenarioConfig, form_network
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
    name for name, (_, annotation) in sim_engine._FIELD_TYPES.items()
    if "float" in annotation
]
CONFIG_KEYS = {
    cli._field_name(section, key): (section, key)
    for section, keys in cli._SCHEMA.items()
    for key in keys
}


def test_every_config_field_is_set_by_exactly_one_key():
    # a field added to ScenarioConfig without a config key fails here
    set_by_keys = sorted(
        cli._field_name(section, key)
        for section, keys in cli._SCHEMA.items()
        if section != "weights"
        for key in keys
    )
    assert set_by_keys == sorted(set(sim_engine._FIELD_TYPES) - {"weights"})


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


# a quotient of in-bound values that overflows to infinity slots
@pytest.mark.parametrize(
    "text, name",
    [
        ("[scenario]\nslot_ms = 1e-300\n[rpl]\ntrickle_imin_ms = 1e300\n", "trickle_imin_ms"),
        ("[scenario]\nslot_ms = 1e-300\n[rpl]\ndis_timeout_ms = 1e300\n", "dis_timeout_ms"),
        ("[rpl]\ntrickle_imin_ms = 1e300\n[scenario]\nslot_ms = 1e-300\n", "trickle_imin_ms"),
        ("[rpl]\ndis_timeout_ms = 1e300\n[scenario]\nslot_ms = 1e-300\n", "dis_timeout_ms"),
    ],
    ids=["imin-after-slot", "dis-after-slot", "slot-after-imin", "slot-after-dis"],
)
def test_slot_count_overflow_is_a_config_error(text, name, tmp_path, capsys):
    with pytest.raises(FieldError, match="overflows") as caught:
        ScenarioConfig(**{name: 1e300, "slot_ms": 1e-300})
    assert set(caught.value.fields) == {name, "slot_ms"}
    with pytest.raises(ConfigError, match=f"line 4: {name} / slot_ms overflows"):
        parse_scenario_text(text)
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text(text)
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    assert "line 4" in capsys.readouterr().err


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
    "lsr_mapping = reference\nreference_distance = 41.5\nsinr_per_slot = false\n"
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
        trickle_doublings=draw(st.integers(0, 16)),
        trickle_redundancy_k=draw(st.integers(1, 100)),
        dis_timeout_ms=trickle_imin_ms + draw(st.floats(min_value=slot_ms, max_value=1e4)),
        sinr_per_slot=draw(st.booleans()),
        sweep_axis=axis,
        sweep_values=sweep_values,
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_render_then_parse_is_identity(cfg):
    assert parse_scenario_text(render_scenario(cfg)) == cfg


@st.composite
def runnable_configs(draw):
    """valid_configs() cut down to runs of well under a second: a region of
    at most 150 m holding about 30 meters at most, at most 50 packets sent
    within 200 slots, and a warmup of at most 2,000 slots past the
    gateway's first DIO. Every other field is valid_configs()' draw."""
    cfg = draw(valid_configs(st.floats(min_value=10.0, max_value=150.0)))
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
    report = sim.run_traffic()
    assert report.joined_nodes >= 1  # a config that validates forms a network
    assert report.packets_sent == cfg.n_packets
    assert report.delivered + report.dropped == report.packets_sent
    assert math.isfinite(report.pdr) and math.isfinite(report.mean_retransmissions)
    for delay in (report.mean_delay_slots, report.mean_delay_ms):
        assert (delay is None) == (report.delivered == 0)
        assert delay is None or (math.isfinite(delay) and delay >= 0)


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


def test_sweep_spec_validation():
    variants = default_variants(["rpl"])
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepSpec("lsr", (0.7, 0.5), variants, 1)
    with pytest.raises(ConfigError, match="probability"):
        SweepSpec("lsr", (0.5, 1.2), variants, 1)
    with pytest.raises(ConfigError, match="density_ratio must be > 0"):
        SweepSpec("density", (-1.0,), variants, 1)
    with pytest.raises(ConfigError, match="seeds"):
        SweepSpec("lsr", (0.5,), variants, 0)


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


def test_main_puts_cli_sweep_values_through_the_config_rules(tmp_path, capsys):
    # the same values in a [sweep] section fail at the config boundary;
    # from --values they used to fail inside the first sweep point
    out_csv = tmp_path / "out.csv"
    code = main([
        "--sweep", "density", "--values", "1e-322,0.5", "--out", str(out_csv), "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("config error: --values: the effective intensity")
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

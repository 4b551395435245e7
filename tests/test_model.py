"""Topology model, validation, and scenario file round trips."""

import dataclasses
import json
import re

import numpy as np
import pytest

from cpsblotto import (ScenarioError, ValidationError, band_probability_table,
                       cross_validate, default_nine_node, default_params,
                       generate_concentric, load_scenario, payoff_table,
                       save_scenario, single_dependency_case,
                       solve_equilibrium, symmetry_sweep)
from cpsblotto.metrics import effective_values
from cpsblotto.model import (NINE_NODE_LEVELS, CpsTopology, GameParams,
                             NodeLevel, normalize_weights, scenario_document,
                             validate, _parse_scenario)


def small_valid_topology() -> CpsTopology:
    # 0 -> 1 -> 2 chain carrying one unit; cyber links 0-1 and 0-2.
    F = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0]])
    C = F * 2.0
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    A[0, 2] = A[2, 0] = 1.0
    return CpsTopology(
        levels=(NodeLevel.REFERENCE, NodeLevel.MAIN, NodeLevel.ORDINARY),
        human_interaction=np.array([2.0, 1.0, 1.0]), flows=F, capacities=C,
        cyber_adjacency=A)


# Divided again and again until no entry moved, these weights fell into a
# 2-cycle: normalizing the result once more moved entries 1 and 4 by 16 ulps.
CYCLING_WEIGHTS = [0.1418484660619769, 9.4734327122382184e-04,
                   0.69868151588177319, 0.15575618747449821,
                   3.5838800954929185e-06, 2.7629034364323292e-03]


def _weight_corpus():
    """Seeded weights: uniform, Dirichlet at n = 5000 as the solver
    benchmark draws them, lognormal spreads up to e^700 on either side of
    1, and weights near float max."""
    rng = np.random.default_rng(20261022)
    yield np.array(CYCLING_WEIGHTS)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        yield rng.uniform(0.01, 1.0, n)
        yield rng.dirichlet(np.full(n, rng.uniform(0.05, 10.0)))
        centre = rng.uniform(-350.0, 350.0)
        yield np.exp(centre + rng.uniform(-350.0, 350.0, n))
    for _ in range(10):
        yield rng.dirichlet(np.ones(5000))
        yield rng.uniform(0.5, 1.0, int(rng.integers(1, 9))) * 1e308


def test_normalize_weights_is_one_idempotent_division():
    h = np.array([3.0, 1.0, 1.0, 2.0])
    assert np.array_equal(normalize_weights(h), h / h.sum())
    for h in _weight_corpus():
        out = normalize_weights(h)
        assert abs(out.sum() - 1.0) <= out.size * np.finfo(float).eps
        assert np.array_equal(normalize_weights(out), out)


def test_normalize_weights_survives_an_overflowing_sum():
    # 3e308 overflows; the pytest config turns a RuntimeWarning into an error
    out = normalize_weights(np.full(3, 1e308))
    assert np.array_equal(out, np.full(3, 1.0 / 3.0))


def test_normalize_weights_rejects_nonpositive():
    with pytest.raises(ValueError):
        normalize_weights(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        normalize_weights(np.array([0.5, -0.1]))
    # Divided by the largest, 1e-300 underflows; 1e-320 alone stays positive
    with pytest.raises(ValidationError, match="^h entry 1 normalizes to 0;"):
        normalize_weights([1e308, 1e-300, 1.0], "h")
    assert normalize_weights([1.0, 1e-320])[1] == 1e-320


_VALUES = [0.5, 0.3, 0.2]
# Each entry point that takes a value vector: the name its messages give
# the vector under test, and a call with that vector in its place.  Every
# other argument is valid, and the vector's partner has three entries.
_VALUE_ENTRY_POINTS = {
    "solve_equilibrium": ("h", lambda v: solve_equilibrium(_VALUES, v, 2.5,
                                                           1.0)),
    "single_dependency_case": ("h", lambda v: single_dependency_case(
        v, 2.5, 1.0)),
    "effective_values": ("h", lambda v: effective_values(v, np.zeros((3, 3)))),
    "payoff_table": ("column 'c'", lambda v: payoff_table(_VALUES, {"c": v},
                                                          2.5, 1.0)),
    "symmetry_sweep": ("g_base", lambda v: symmetry_sweep(_VALUES,
                                                          g_base=v)),
    "band_probability_table": ("g_base", lambda v: band_probability_table(
        _VALUES, (0,), g_base=v)),
    "cross_validate": ("h", lambda v: cross_validate(_VALUES, v, 1.25, 1.0,
                                                     grid_units=20)),
}
# Each fault sums to 1 where it has three entries, so only the fault itself
# can trip a check.
_VALUE_FAULTS = {
    "nan": ([0.5, 0.5, np.nan], "must be finite"),
    "inf": ([0.5, 0.5, np.inf], "must be finite"),
    "zero": ([0.5, 0.5, 0.0], "must be positive"),
    "negative": ([0.6, 0.5, -0.1], "must be positive"),
    "wrong_length": ([0.5, 0.5], "has wrong length 2, expected 3"),
    "empty": ([], "must be a non-empty 1-D vector"),
    "two_d": ([[0.5, 0.3, 0.2]], "must be a non-empty 1-D vector"),
}


# single_dependency_case takes h alone, so no length can be wrong there.
@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in sorted(_VALUE_ENTRY_POINTS)
    for fault in sorted(_VALUE_FAULTS)
    if (entry, fault) != ("single_dependency_case", "wrong_length")])
def test_every_value_entry_point_applies_the_one_value_rule(entry, fault):
    # These once raised ValueError, EquilibriumRegimeError or a message
    # naming "human-interaction weights", or returned a negative g.
    name, call = _VALUE_ENTRY_POINTS[entry]
    values, message = _VALUE_FAULTS[fault]
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(name)} {message}$"):
        call(np.array(values))


def test_topology_arrays_are_read_only():
    topo = small_valid_topology()
    with pytest.raises(ValueError):
        topo.flows[0, 1] = 5.0
    with pytest.raises(ValueError):
        topo.cyber_adjacency[0, 1] = 5.0
    with pytest.raises(ValueError):
        topo.human_interaction[0] = 5.0
    # freezing the topology leaves the caller's own float64 arrays writable,
    # an already-normalized weight vector among them
    F = np.array(topo.flows)
    h = np.array([0.5, 0.25, 0.25])
    frozen = dataclasses.replace(topo, flows=F, human_interaction=h)
    F[0, 1] = 3.0
    h[0] = 3.0
    assert frozen.flows[0, 1] == 1.0
    assert frozen.human_interaction[0] == 0.5
    assert not frozen.flows.flags.writeable
    assert not frozen.human_interaction.flags.writeable


def test_human_interaction_normalized():
    topo = small_valid_topology()
    h = topo.human_interaction
    assert h.sum() == 1.0
    assert np.allclose(h, [0.5, 0.25, 0.25])


def test_validate_accepts_generated_topologies():
    for fill in (0.1, 0.5, 0.7, 1.0):
        topo = generate_concentric(list(NINE_NODE_LEVELS), fill)
        assert validate(topo) == []


@pytest.mark.parametrize("weights, message", [
    ([np.nan, 1.0, 1.0], "must be finite"),
    ([np.inf, 1.0, 1.0], "must be finite"),
    ([1.0, 1.0], "has wrong length 2, expected 3")])
def test_construction_rejects_bad_node_weights(weights, message):
    # Construction is the one place the weights are checked and normalized.
    with pytest.raises(ValidationError,
                       match=f"^node weights h {re.escape(message)}$"):
        dataclasses.replace(small_valid_topology(), human_interaction=weights)


def test_validate_flags_one_ulp_cyber_asymmetry():
    # Dijkstra runs directed on the cyber CSR, so a link must weigh the
    # same both ways to the bit.
    base = small_valid_topology()
    A = base.cyber_adjacency.copy()
    A[0, 2] = np.nextafter(1.0, 2.0)
    with pytest.raises(ValidationError, match="symmetric"):
        dataclasses.replace(base, cyber_adjacency=A)


def test_validate_flags_each_violation():
    base = small_valid_topology()

    with pytest.raises(ValidationError, match="reference"):
        dataclasses.replace(base, levels=(NodeLevel.MAIN,) * 3)
    with pytest.raises(ValidationError,
                       match="^node 2 has level 'ordinary', not a NodeLevel$"):
        dataclasses.replace(base, levels=(NodeLevel.REFERENCE, NodeLevel.MAIN,
                                          "ordinary"))
    with pytest.raises(ValidationError,
                       match="^node weights h must be positive$"):
        dataclasses.replace(base, human_interaction=[2.0, 0.0, 1.0])

    with pytest.raises(ValidationError,
                       match=r"^flows matrix must be 3x3, got \(2, 2\)$"):
        dataclasses.replace(base, flows=np.zeros((2, 2)))

    C = base.capacities.copy()
    C[2, 0] = -1.0  # no edge 2 -> 0
    with pytest.raises(ValidationError,
                       match="^capacities must be non-negative"):
        dataclasses.replace(base, capacities=C)

    F = base.flows.copy()
    F[0, 1] = 5.0  # above capacity 2
    with pytest.raises(ValidationError,
                       match=r"^flow exceeds capacity on edge \(0, 1\)$"):
        dataclasses.replace(base, flows=F)

    F = base.flows.copy()
    F[0, 1] = -1.0
    with pytest.raises(ValidationError, match="non-negative"):
        dataclasses.replace(base, flows=F)

    F = base.flows.copy(); C = base.capacities.copy()
    F[1, 0] = 1.0; C[1, 0] = 2.0
    with pytest.raises(ValidationError,
                       match="cycle in flow graph through node 0"):
        dataclasses.replace(base, flows=F, capacities=C)

    F = base.flows.copy(); C = base.capacities.copy()
    F[1, 1] = 1.0; C[1, 1] = 2.0
    with pytest.raises(ValidationError, match="self-loop"):
        dataclasses.replace(base, flows=F, capacities=C)

    # 3-cycle 0->1->2->0 is balanced everywhere, so only the cycle rule fires.
    F = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="cycle"):
        dataclasses.replace(base, flows=F, capacities=F * 2)

    F = base.flows.copy(); C = base.capacities.copy()
    F[1, 2] = 0.25; C[1, 2] = 0.5  # node 1 takes in 1.0, sends 0.25
    with pytest.raises(ValidationError,
                       match="conservation violated at node 1"):
        dataclasses.replace(base, flows=F, capacities=C)

    A = np.zeros((3, 3))  # no cyber links: three cyber parts
    F = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError,
                       match=r"cyber graph is disconnected \(nodes 0 and 1\)"):
        dataclasses.replace(base, flows=F, capacities=F * 2,
                            cyber_adjacency=A)

    A = base.cyber_adjacency.copy()
    A[0, 2] = 3.0  # breaks symmetry
    with pytest.raises(ValidationError, match="symmetric"):
        dataclasses.replace(base, cyber_adjacency=A)

    A = base.cyber_adjacency.copy()
    A[1, 1] = 1.0
    with pytest.raises(ValidationError, match="diagonal"):
        dataclasses.replace(base, cyber_adjacency=A)

    A = base.cyber_adjacency.copy()
    A[0, 1] = A[1, 0] = -2.0
    with pytest.raises(ValidationError, match="non-negative"):
        dataclasses.replace(base, cyber_adjacency=A)


def test_each_flow_fault_has_one_message():
    base = small_valid_topology()
    # Two-way edges 0 <-> 1 <-> 2, balanced at every node: a two-way edge
    # is a strong component, which the cycle rule names.
    F = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0]])
    with pytest.raises(ValidationError,
                       match="^cycle in flow graph through node 0$"):
        dataclasses.replace(base, flows=F, capacities=F * 2)
    # A balanced flow self-loop at node 1 sits on a capacity self-loop.
    F = base.flows.copy(); C = base.capacities.copy()
    F[1, 1] = 1.0; C[1, 1] = 2.0
    with pytest.raises(ValidationError,
                       match="^self-loop flows are not allowed$"):
        dataclasses.replace(base, flows=F, capacities=C)


@pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** 40, 2.0 ** 60,
                                   3.0 ** 25])
@pytest.mark.parametrize("levels", [
    [(1, 4.0), (12, 3.0), (48, 2.0), (240, 1.0)],
    [(1, 4.0), (2, 2.0), (4, 2.0), (3, 1.0)]],
    ids=["tiers_1_12_48_240", "tiers_1_2_4_3"])
def test_construction_does_not_depend_on_the_unit_of_flow(levels, scale):
    # Capacity is compared exactly and conservation relative to each node's
    # throughput, so a rescaled valid system stays valid.
    topo = generate_concentric(levels, 0.7)
    dataclasses.replace(topo, flows=topo.flows * scale,
                        capacities=topo.capacities * scale)


def test_default_params_shape():
    params = default_params(9)
    assert params.alpha + params.beta == 1.0
    assert params.alpha == 0.3
    assert params.t0 == pytest.approx(1.0 / 8.0)
    assert params.budget_d == 2.5 and params.budget_a == 1.0
    with pytest.raises(ValueError):
        default_params(9, budget_d=1.0, budget_a=2.0)


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams(alpha=0.7, beta=0.7, t0=0.1, budget_d=2.0, budget_a=1.0)
    with pytest.raises(ValueError):
        GameParams(alpha=0.5, beta=0.5, t0=-0.1, budget_d=2.0, budget_a=1.0)


def test_generate_concentric_structure():
    topo = generate_concentric([(1, 4.0), (3, 2.0), (5, 1.0)], flow_fill=0.7)
    assert topo.n == 9
    assert topo.levels.count(NodeLevel.REFERENCE) == 1
    assert validate(topo) == []
    # capacities follow the fill factor uniformly on existing edges
    mask = topo.capacities > 0
    assert np.allclose(topo.flows[mask] / topo.capacities[mask], 0.7)
    # the reference feeds the three mains with round-robin ordinary loads
    assert np.allclose(topo.capacities[0], [0, 1.5, 2.0, 1.5, 0, 0, 0, 0, 0])
    assert np.allclose(topo.flows[0], np.array([0, 1.5, 2.0, 1.5, 0, 0, 0, 0, 0]) * 0.7)


def test_generate_concentric_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_concentric([(2, 4.0), (3, 1.0)], flow_fill=0.7)
    with pytest.raises(ValueError):
        generate_concentric([(1, 4.0), (3, 2.0), (5, 1.0)], flow_fill=0.0)
    with pytest.raises(ValueError):
        generate_concentric([(1, 4.0), (3, 2.0), (5, 1.0)], flow_fill=1.2)
    with pytest.raises(ValueError, match="^levels must be non-empty$"):
        generate_concentric([], flow_fill=0.7)
    with pytest.raises(ValueError,
                       match="^level node counts must be positive$"):
        generate_concentric([(1, 4.0), (0, 2.0)], flow_fill=0.7)
    for levels in ([(1.0, 4.0), (3, 1.0)], [(1, 4.0), (2.5, 1.0)],
                   [(1, 4.0), (True, 1.0)]):
        with pytest.raises(ValidationError,
                           match="^level node counts must be integers$"):
            generate_concentric(levels, flow_fill=0.7)


def test_scenario_round_trip(tmp_path):
    # A copy, through the file or through dataclasses.replace, normalizes
    # the weights again and keeps their bits.
    cycling = dataclasses.replace(
        generate_concentric([(1, 1.0), (2, 1.0), (3, 1.0)], 0.7),
        human_interaction=np.array(CYCLING_WEIGHTS))
    path = tmp_path / "cycling.json"
    save_scenario(cycling, default_params(6), str(path))
    for copy in (load_scenario(str(path))[0],
                 dataclasses.replace(cycling, flows=cycling.flows.copy())):
        assert np.array_equal(copy.human_interaction,
                              cycling.human_interaction)

    topo = default_nine_node()
    params = default_params(9)
    path = tmp_path / "scenario.json"
    save_scenario(topo, params, str(path))
    loaded_topo, loaded_params = load_scenario(str(path))
    assert np.allclose(loaded_topo.flows, topo.flows)
    assert np.allclose(loaded_topo.capacities, topo.capacities)
    assert np.allclose(loaded_topo.cyber_adjacency, topo.cyber_adjacency)
    assert loaded_params == params
    assert loaded_topo.levels == topo.levels
    assert np.array_equal(loaded_topo.human_interaction,
                          topo.human_interaction)
    # The saved text lists each section's keys in SCENARIO_FIELDS order: a
    # node's id, level and weight, then the GameParams field order.
    doc = json.loads(path.read_text())
    assert list(doc) == ["nodes", "edges", "cyber_edges", "params"]
    for section, keys in (("nodes", ["id", "level", "h"]),
                          ("edges", ["from", "to", "flow", "capacity"]),
                          ("cyber_edges", ["a", "b", "weight"])):
        assert doc[section]
        assert all(list(entry) == keys for entry in doc[section])
    assert list(doc["params"]) == ["alpha", "beta", "t0", "R_D", "R_A"]
    # without cyber_edges, the cyber graph is the unit-weight skeleton of
    # the flow edges, which is what default_nine_node generates
    doc = scenario_document(topo, params)
    del doc["cyber_edges"]
    assert np.array_equal(_parse_scenario(doc)[0].cyber_adjacency,
                          topo.cyber_adjacency)


def test_scenario_schema_rejects_missing_and_unknown_keys():
    topo = small_valid_topology()
    params = default_params(3)
    doc = scenario_document(topo, params)

    broken = {k: v for k, v in doc.items() if k != "edges"}
    with pytest.raises(ScenarioError):
        _parse_scenario(broken)

    extra = dict(doc)
    extra["surprise"] = 1
    with pytest.raises(ScenarioError):
        _parse_scenario(extra)

    bad = dict(doc)
    bad["edges"] = [dict(doc["edges"][0], to=7)]  # references unknown node
    with pytest.raises(ScenarioError):
        _parse_scenario(bad)


def test_load_scenario_validates(tmp_path):
    topo = small_valid_topology()
    params = default_params(3)
    doc = scenario_document(topo, params)
    doc["edges"][0]["flow"] = 99.0  # now exceeds capacity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from cpsblotto import ValidationError
    with pytest.raises(ValidationError):
        load_scenario(str(path))

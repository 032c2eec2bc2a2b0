"""Property tests: the local-gate kernel and the compiled Pauli action
against the dense references in ``kron_reference``, and slot restrictions
against full runs of the kernel."""

import itertools
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrvec import circuits, pauli
from corrvec.circuits import (ROTATION_KINDS, Circuit, MeasurementSettings,
                              NoiseModel, OverlapEngine, restrictions,
                              run_density, run_pure, simulate)
from corrvec.oracle import materialize
from corrvec.pauli import (PauliSum, apply_sum, string_overlaps, string_traces,
                           weighted_sum)
from corrvec.vqe import AnsatzSpec, build_hea, vqe_ground_state
import kron_reference as ref

TOL = 1e-12
ONE_QUBIT = ("H", "X", "PHASE", "RX", "RY", "RZ")
TWO_QUBIT = ("CX",)
# what the controlled references take: the gates build_hea emits
CONTROLLABLE_ONE_QUBIT = ("RX", "RY", "RZ")

# on top of the suite's derandomized profile (conftest.py)
PROPERTY = settings(max_examples=30)
angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def random_circuits(draw, max_width=6, max_gates=12, controllable=False,
                    slots=True, width=None):
    """(circuit, angles) over every gate kind, fixed and slot-bound angles."""
    if width is None:
        width = draw(st.integers(1, max_width))
    circ = Circuit(width)
    one = CONTROLLABLE_ONE_QUBIT if controllable else ONE_QUBIT
    for _ in range(draw(st.integers(0, max_gates))):
        if width > 1 and draw(st.booleans()):
            kind = draw(st.sampled_from(TWO_QUBIT))
            qubits = draw(st.lists(st.integers(0, width - 1), min_size=2,
                                   max_size=2, unique=True))
        else:
            kind = draw(st.sampled_from(one))
            qubits = [draw(st.integers(0, width - 1))]
        if kind not in ROTATION_KINDS:
            circ.add(kind, *qubits)
        elif slots and draw(st.booleans()):
            circ.add(kind, *qubits, slot=draw(st.integers(0, 3)))
        else:
            circ.add(kind, *qubits, angle=draw(angles))
    theta = np.array(draw(st.lists(angles, min_size=circ.n_slots,
                                   max_size=circ.n_slots)))
    return circ, theta


def kernel_unitary(circ, theta):
    """Columns U|b> from the kernel, preparing each basis state with X gates."""
    cols = []
    for b in range(1 << circ.width):
        prep = Circuit(circ.width)
        for q in range(circ.width):
            if b >> q & 1:
                prep.add("X", q)
        prep.gates += circ.gates
        prep.n_slots = circ.n_slots
        cols.append(run_pure(prep, theta if circ.n_slots else None))
    return np.stack(cols, axis=1)


def max_diff(a, b):
    return float(np.max(np.abs(a - b)))


@PROPERTY
@given(random_circuits())
def test_run_pure_matches_kron(case):
    circ, theta = case
    assert max_diff(run_pure(circ, theta), ref.run_pure(circ, theta)) <= TOL


@PROPERTY
@given(random_circuits(max_width=5))
def test_kernel_unitary_matches_circuit_unitary(case):
    circ, theta = case
    assert max_diff(kernel_unitary(circ, theta),
                    ref.circuit_unitary(circ, theta)) <= TOL


@PROPERTY
@given(random_circuits(), st.sampled_from((0.0, 0.01, 0.3, 15.0 / 16.0)))
def test_run_density_matches_kron(case, p2):
    circ, theta = case
    assert max_diff(run_density(circ, theta, p2=p2),
                    ref.run_density(circ, theta, p2=p2)) <= TOL


@pytest.mark.parametrize("width", range(1, 7))
@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_apply_matches_kron_on_both_branches(width, seed):
    """``_apply`` against the dense matrix of its gate, for every target and
    every (control, target) placement on a batch of registers of ``width``
    qubits, one member and batches just below and at the size from which
    gates on low qubits take the block path; both branches must run."""
    rng = np.random.default_rng(seed)
    # not unitary, so that a transposed or conjugated entry shows
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    dim = 1 << width
    edge = -(-circuits._BLOCK_MIN_SIZE // dim)
    ran = Counter()
    block = circuits._block_source
    placements = [(t, c) for t in range(width) for c in [None, *range(width)]
                  if c != t]
    with mock.patch.object(circuits, "_block_source",
                           lambda *key: ran.update(["block"]) or block(*key)):
        for target, control in placements:
            dense = (ref.embed({target: u}, width) if control is None else
                     ref.embed({control: ref.P0}, width)
                     + ref.embed({control: ref.P1, target: u}, width))
            for batch in sorted({1, max(1, edge - 1), edge}):
                vec = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
                out = vec.copy()
                circuits._apply(out, u, target, control)
                ran["calls"] += 1
                assert max_diff(out, vec @ dense.T) <= TOL, (batch, target, control)
    assert 0 < ran["block"] < ran["calls"]


@pytest.mark.parametrize("min_size", [1 << 62, 0], ids=["view", "block"])
@PROPERTY
@given(data=st.data())
def test_stacked_levels_match_per_level_runs(min_size, data):
    """A batch of Pauli coefficient vectors holding every noise level runs
    the channel, and the gates, exactly as one run per level does, and a
    batch of statevectors runs each of its members as a run of that
    member alone does.  The kernel branch is pinned for both runs: the
    view path everywhere, or the block path wherever the digits allow.
    Each branch computes a member alike however large its batch, so
    equality is exact; each level or member gets two or three rows, so
    that no block matmul has a single row, which BLAS would take as a
    matrix-vector product."""
    circ, theta = data.draw(random_circuits(max_width=3, max_gates=8))
    levels = data.draw(st.lists(st.sampled_from((0.0, 0.01, 0.3, 15.0 / 16.0)),
                                min_size=1, max_size=3))
    m = circ.width
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(2, 3)), len(levels), 4 ** m)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    th = theta if circ.n_slots else None
    # (rows, members, 2^m)
    vectors = np.ascontiguousarray(stack[..., :1 << m])
    with mock.patch.object(circuits, "_BLOCK_MIN_SIZE", min_size):
        together = circuits.apply_gates(stack.copy(), circ.gates, th, levels)
        for k, p2 in enumerate(levels):
            alone = circuits.apply_gates(np.ascontiguousarray(stack[:, k]),
                                         circ.gates, th, p2)
            assert np.array_equal(together[:, k], alone), p2
        together = circuits.apply_gates(vectors.copy(), circ.gates, th, None)
        for k in range(vectors.shape[1]):
            alone = circuits.apply_gates(np.ascontiguousarray(vectors[:, k]),
                                         circ.gates, th, None)
            assert np.array_equal(together[:, k], alone), k
    if m >= 2:
        q1, q2 = data.draw(st.lists(st.integers(0, m - 1), min_size=2,
                                    max_size=2, unique=True))
        c = circuits._mixing_weight(levels)
        together = circuits._depolarize(stack, q1, q2, c)
        for k, p2 in enumerate(levels):
            assert np.array_equal(together[:, k],
                                  circuits._depolarize(stack[:, k], q1, q2, c[k])), p2


@PROPERTY
@given(random_circuits(max_width=5, max_gates=6, controllable=True),
       st.sampled_from((0.0, 0.02)))
def test_controlled_circuits_match_kron(case, p2):
    circ, theta = case
    ctrl = ref.make_controlled(circ.bound(theta))
    assert max_diff(run_pure(ctrl), ref.run_pure(ctrl)) <= TOL
    assert max_diff(run_density(ctrl, p2=p2), ref.run_density(ctrl, p2=p2)) <= TOL


@st.composite
def overlap_cases(draw):
    """(bound u1, u2, its angles, label, phi) on one register of width 1-5."""
    u1, _ = draw(random_circuits(max_width=5, max_gates=4, controllable=True,
                                 slots=False))
    u2, theta = draw(random_circuits(max_gates=4, controllable=True,
                                     width=u1.width))
    label = draw(st.text("IXYZ", min_size=u1.width, max_size=u1.width))
    return u1, u2, theta, label, draw(angles)


def hea_overlap_case(pattern, width, label, phi):
    """An overlap case between two depth-1 ansatzes of ``pattern``."""
    spec = AnsatzSpec(width, 1, pattern)
    rng = np.random.default_rng(width)
    u1 = build_hea(spec).bound(rng.uniform(-np.pi, np.pi, spec.n_slots))
    return u1, build_hea(spec), rng.uniform(-np.pi, np.pi, spec.n_slots), label, phi


@PROPERTY
@given(overlap_cases())
@example(hea_overlap_case(("RX",), 2, "XZ", 0.4))
@example(hea_overlap_case(("RY", "RZ"), 1, "Y", -1.3))
def test_overlap_circuits_match_kron(case):
    u1, u2, theta, label, phi = case
    width = u1.width
    u2_bound = u2.bound(theta)
    circ = ref.overlap_circuit(u1, u2_bound, label, phi)
    assert max_diff(run_pure(circ), ref.run_pure(circ)) <= TOL
    if width <= 3:
        assert max_diff(run_density(circ, p2=0.01),
                        ref.run_density(circ, p2=0.01)) <= TOL
        th = theta if u2.n_slots else None
        half = 1 << width
        prefix = ref.prefix_circuit(u1, u2_bound)
        for p2 in (0.01, 0.3, 15.0 / 16.0):
            noise = NoiseModel(enabled=True, p2=p2, zne=False)
            engine = OverlapEngine(u1, u2, MeasurementSettings(), noise)
            # the coherence block the engine evolves against the literal
            # prefix's, and its closed-form suffix against the literal
            # circuit, on the drawn label and on fixed ones whose weight
            # counts Z letters
            block = run_density(engine.circuit, th, p2=p2)
            assert max_diff(engine.block_scale[0] * block,
                            ref.run_density(prefix, p2=p2)[half:, :half]) <= TOL, p2
            for fixed in (label, "Z" * width, ("XZ" * width)[:width]):
                op = PauliSum(width, {fixed: 1.0})
                states = simulate(engine.circuit, th, noise, [op])
                assert abs(engine.estimate_sum(states, op, None) - ref.estimate_overlap(
                    u1, u2, th, op, MeasurementSettings(), noise, None)) <= TOL, \
                    (fixed, p2)


@st.composite
def ansatz_specs(draw, max_width=4):
    """Ansatzes of width 1 to ``max_width`` and depth 1-2 over RX, RY and
    RZ."""
    return AnsatzSpec(draw(st.integers(1, max_width)), draw(st.integers(1, 2)),
                      tuple(draw(st.lists(st.sampled_from(("RX", "RY", "RZ")),
                                          min_size=1, max_size=2))))


@pytest.mark.parametrize("case", ["pure", "noisy", "zne", "overlap"])
@settings(max_examples=8)
@given(spec=ansatz_specs(), p2=st.sampled_from((0.01, 0.3, 15.0 / 16.0)),
       seed=st.integers(0, 2**32 - 1))
@example(spec=AnsatzSpec(2, 1, ("RX",)), p2=0.01, seed=1)
@example(spec=AnsatzSpec(1, 2, ("RY", "RZ")), p2=0.3, seed=2)
def test_restrictions_match_full_runs(case, spec, p2, seed):
    """Slot by slot, the restriction at an angle equals a full run with
    the slot at that angle, while the sweep moves each slot in turn, so
    each slot also checks the prefix its predecessors advanced.  "pure"
    runs the ansatz without noise, "noisy" at one noise level and "zne" at
    both ZNE levels where the boosted p2 is valid.  A noisy restriction is
    read through operators: up to width 3 first through every string of
    the register, which determines the density matrices, then through a
    drawn operator.  "overlap" sweeps the coherence block of an
    ``OverlapEngine`` whose U2 is the ansatz: its complex string values,
    the identity's included, against those of the block of the literal
    (m+1)-qubit prefix, then the drawn operator's against full runs of the
    block.  Up to 4 qubits the rule of the module notes pulls these reads
    back; the suffix side has its own test below."""
    rng = np.random.default_rng(seed)
    noise = (NoiseModel() if case == "pure" else
             NoiseModel(enabled=True, p2=p2,
                        zne=case != "noisy" and 2.0 * p2 <= 15.0 / 16.0))
    theta, probes, moves = rng.uniform(-2 * np.pi, 2 * np.pi, (3, spec.n_slots))
    labels = ["".join(rng.choice(list("IXYZ"), spec.width))
              for _ in range(rng.integers(1, 9))]
    op = PauliSum(spec.width, zip(labels, rng.uniform(-2.0, 2.0, len(labels))))
    every = op
    if spec.width <= 3:
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=spec.width)]
        every = PauliSum(spec.width, zip(strings, rng.uniform(0.5, 2.0, len(strings))))
    circ = build_hea(spec)
    if case == "overlap":
        u1 = build_hea(replace(spec, depth=1))
        u1 = u1.bound(rng.uniform(-2 * np.pi, 2 * np.pi, u1.n_slots))
        engine = OverlapEngine(u1, circ, MeasurementSettings(), noise)
        half = 1 << spec.width

        def literal(probe):
            prefix = ref.prefix_circuit(u1, circ.bound(probe))
            return [run_density(prefix, p2=lvl)[half:, :half]
                    for lvl in levels_of(noise)]

        check_sweep(engine.circuit, noise, theta.copy(), probes, moves, every,
                    literal=(literal, engine.block_scale))
        circ = engine.circuit
    elif case == "pure":
        check_sweep(circ, noise, theta.copy(), probes, moves)
    elif every is not op:
        check_sweep(circ, noise, theta.copy(), probes, moves, every)
    if case != "pure":
        check_sweep(circ, noise, theta, probes, moves, op)


@pytest.mark.parametrize("pattern", [("RX",), ("RX", "RZ")])
def test_pulled_back_strings_under_full_depolarization(pattern, monkeypatch):
    """At p2 = 15/16 every pair channel leaves the maximally mixed pair;
    the pulled-back values of an RX ansatz still match full runs."""
    spec = AnsatzSpec(3, 2, pattern)
    noise = NoiseModel(enabled=True, p2=15.0 / 16.0, zne=False)
    op = PauliSum(3, [("III", 0.5), ("XIZ", 1.0), ("YYI", -0.7), ("IIX", 0.3),
                      ("ZZZ", 1.1)])
    rng = np.random.default_rng(len(pattern))
    theta, probes, moves = rng.uniform(-np.pi, np.pi, (3, spec.n_slots))
    passes = []
    pull_back = circuits._pull_back
    monkeypatch.setattr(circuits, "_pull_back",
                        lambda *args: passes.append(1) or pull_back(*args))
    check_sweep(build_hea(spec), noise, theta, probes, moves, op)
    assert passes == [1]


def levels_of(noise):
    return [noise.p2, noise.boost * noise.p2] if noise.zne else [noise.p2]


def full_runs(circ, theta, noise):
    return [run_density(circ, theta, p2=lvl) for lvl in levels_of(noise)]


def check_sweep(circ, noise, theta, probes, moves, op=None, literal=None):
    """Each slot's restriction at its probe angle against a full run, the
    sweep moving each slot to its ``moves`` angle after it is checked.
    Without noise the restriction is a statevector.  With it, it is read
    as the values of the strings of ``op`` per noise level, checked against
    ``string_traces`` of each level's full run: the real values after the
    identity for an expectation, the complex values of every string for
    the coherence block of a ``block`` circuit.  With ``literal``, a pair
    (function of the probe angles, scale per level), the block's values
    times the scale are checked against the string traces of that
    function's blocks instead: divided by the scale, where it is not 0, so
    that a small scale hides nothing."""
    block = circ.block
    count = 0
    for d, restriction in enumerate(restrictions(circ, theta, noise,
                                                 () if op is None else [op])):
        probe = theta.copy()
        probe[d] = probes[d]
        at = restriction.at(probes[d])
        if op is None:
            assert max_diff(at, run_pure(circ, probe)) <= TOL, d
        else:
            strings, values = at.of(op)
            ident = 0 if block else len(strings) - len(values)
            runs = (full_runs(circ, probe, noise) if literal is None
                    else literal[0](probe))
            expect = np.array([string_traces(op, rho)[1][ident:] for rho in runs]).T
            if not block:
                expect = expect.real
            elif literal is not None:
                # the literal blocks over the scale, or, where it is 0,
                # the literal blocks against 0
                zero = literal[1] == 0
                expect = np.where(zero, expect, expect / np.where(zero, 1, literal[1]))
                values = np.where(zero, 0, values)
            assert values.shape == expect.shape == (len(strings) - ident, len(runs))
            assert np.abs(values - expect).max(initial=0.0) <= TOL, d
        theta[d] = moves[d]
        count += 1
    assert count == circ.n_slots


def test_noisy_sweeps_pull_back_once_per_sweep(h2_hamiltonian, monkeypatch):
    """A noisy ground-state sweep over ``build_hea`` runs one adjoint pass
    per sweep, keeps depth + 1 stacks of pulled-back strings, one at each
    CX ladder and one at the end, and runs no slot's suffix: no split
    batch, (members, levels, 4^m), meets a two-qubit gate, and the only
    density matrices read as string values are the full runs'."""
    spec = AnsatzSpec(4, 2)
    stacks = []
    pull_back = circuits._pull_back
    monkeypatch.setattr(circuits, "_pull_back", lambda *args: stacks.append(
        pull_back(*args)) or stacks[-1])
    read = circuits._string_values
    read_shapes = []
    monkeypatch.setattr(circuits, "_string_values", lambda ops, stack, block:
                        read_shapes.append(stack.shape) or read(ops, stack, block))
    forward = circuits.apply_gates
    suffixes = []
    monkeypatch.setattr(circuits, "apply_gates", lambda states, gates, *args: suffixes.extend(
        [1] * (states.ndim == 3 and any(len(g.qubits) == 2 for g in gates)))
        or forward(states, gates, *args))
    settings_ = MeasurementSettings(mode="sampled", shots=1000, seed=5)
    noise = NoiseModel(enabled=True, p2=0.01)
    _, _, trace = vqe_ground_state(h2_hamiltonian, spec, settings_, noise,
                                   settings_.make_rng(), tol=1e-9, max_sweeps=2)
    assert trace.sweeps == 2
    assert len(stacks) == 2
    assert not suffixes
    assert read_shapes and all(shape == (2, 16, 16) for shape in read_shapes)
    circ = build_hea(spec)
    ladders = [i for i, g in enumerate(circ.gates)
               if len(g.qubits) == 2 and len(circ.gates[i - 1].qubits) == 1]
    for kept in stacks:
        assert sorted(kept) == ladders + [len(circ.gates)]
        assert len(kept) == spec.depth + 1
        strings = len(h2_hamiltonian) - 1  # every string but the identity
        assert all(s.shape == (2, 16 * 16, strings) for s in kept.values())


def test_noisy_sweeps_run_suffixes_for_many_strings_or_a_wide_register(monkeypatch):
    """The pull-back is taken only where the rule of the module notes
    predicts it wins: every string of 4 qubits, 255 against 16 slots, read
    on the ansatz and on an overlap's coherence block, runs a suffix per
    slot (255 x 19 > 8 x 144 suffix steps, and 255 x 116 > 8 x 456 for
    the block), and still matches full runs; 7 strings on an 8-qubit
    register, 7 x 39 <= 608 / 2 but with stacks of 28 MiB, over the cap,
    run a suffix too and still read as their strings' values."""
    monkeypatch.setattr(circuits, "_pull_back", mock.Mock(
        side_effect=AssertionError("a pull-back")))
    noise = NoiseModel(enabled=True, p2=0.01)
    spec = AnsatzSpec(4, 1)
    every = PauliSum(4, [("".join(p), 0.1 * (k + 1)) for k, p in
                         enumerate(itertools.product("IXYZ", repeat=4))])
    rng = np.random.default_rng(7)
    theta, probes, moves = rng.uniform(-np.pi, np.pi, (3, spec.n_slots))
    check_sweep(build_hea(spec), noise, theta.copy(), probes, moves, every)
    u1 = build_hea(spec).bound(rng.uniform(-np.pi, np.pi, spec.n_slots))
    engine = OverlapEngine(u1, build_hea(spec), MeasurementSettings(), noise)
    check_sweep(engine.circuit, noise, theta, probes, moves, every)
    wide = AnsatzSpec(8, 1)
    few = PauliSum(8, [("I" * q + "Z" + "I" * (7 - q), 1.0) for q in range(7)])
    first = next(restrictions(build_hea(wide), np.zeros(wide.n_slots), noise, [few]))
    strings, values = first.at(0.0).of(few)
    assert len(strings) == 7 and values.shape == (7, 2)


@pytest.mark.parametrize("spec, cap, pulled", [
    # 2^5 x 38 gates <= 3 x 555 suffix steps, and (3 + 2) x 4^5 complex
    # entries fit: the pass, although 32 states outnumber the 30 slots
    pytest.param(AnsatzSpec(5, 2), None, True, id="pass-5q-d2"),
    # the same sweep with room for one byte fewer than the pass holds
    pytest.param(AnsatzSpec(5, 2), 5 * 4**5 * 16 - 1, False, id="capped-5q-d2"),
    pytest.param(AnsatzSpec(2, 2), None, True, id="pass-2q-d2"),
    # 72 slots: T kept over a long sweep
    pytest.param(AnsatzSpec(4, 8), None, True, id="pass-4q-d8"),
    # 2^4 x 11 > 3 x 40 and 2^8 x 38 > 3 x 444
    pytest.param(AnsatzSpec(4, 1, ("RY",)), None, False, id="suffix-4q-d1"),
    pytest.param(AnsatzSpec(8, 2, ("RY",)), None, False, id="suffix-8q-d2"),
])
def test_statevector_sweeps_pull_back_by_the_rule(spec, cap, pulled, monkeypatch):
    """A noiseless sweep pulls the rest of the circuit back once, and runs
    no slot's suffix, exactly when the rule of the module notes says so;
    otherwise it runs a suffix per slot.  Either way each restriction
    matches a full run."""
    if cap is not None:
        monkeypatch.setattr(circuits, "_PULL_BACK_BYTES", cap)
    passes, suffixes = [], []
    pull_back, forward = circuits._pull_back, circuits.apply_gates
    monkeypatch.setattr(circuits, "_pull_back",
                        lambda *args: passes.append(1) or pull_back(*args))
    # a slot's split pair (the state it splits is one vector) stops at its
    # next two-qubit gate when pulled back; a suffix run takes it through
    # the ladders after it, which every slot before the closing layer meets;
    # full runs and the state before each slot are single vectors
    monkeypatch.setattr(circuits, "apply_gates", lambda states, gates, *args: suffixes.extend(
        [1] * (states.ndim == 2 and any(len(g.qubits) == 2 for g in gates)))
        or forward(states, gates, *args))
    rng = np.random.default_rng(spec.n_slots)
    theta, probes, moves = rng.uniform(-np.pi, np.pi, (3, spec.n_slots))
    check_sweep(build_hea(spec), NoiseModel(), theta, probes, moves)
    before_closing = spec.n_slots - spec.width * len(spec.pattern)
    assert (len(passes), len(suffixes)) == ((1, 0) if pulled else (0, before_closing))


@settings(max_examples=12)
@given(spec=ansatz_specs(max_width=5), seed=st.integers(0, 2**32 - 1))
@example(spec=AnsatzSpec(5, 1, ("RY",)), seed=3)
@example(spec=AnsatzSpec(3, 2, ("RX", "RY", "RZ")), seed=4)
def test_pure_pass_keeps_the_unitary_of_the_rest(spec, seed):
    """Without noise levels the backward pass keeps, at each ladder and at
    the end of the circuit, the transpose of the dense unitary of the gates
    from there on: the closing rotation layer and every ladder after the
    stop, at the drawn angles."""
    circ = build_hea(spec)
    theta = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, spec.n_slots)
    gates = circ.gates
    stops = [i for i, g in enumerate(gates)
             if len(g.qubits) == 2 and len(gates[i - 1].qubits) == 1] + [len(gates)]
    dim = 1 << spec.width
    kept = circuits._pull_back(gates, stops, theta, None, np.eye(dim, dtype=complex))
    assert sorted(kept) == stops
    for stop in stops:
        rest = ref.circuit_unitary(Circuit(spec.width, gates[stop:]), theta)
        assert max_diff(kept[stop].T, rest) <= TOL, stop


def coefficients(rng, shape):
    """Random complex Pauli coefficient vectors."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("side", [None, "row", "col"])
@PROPERTY
@given(kind=st.sampled_from(ONE_QUBIT), angle=angles, width=st.integers(1, 4))
@example(kind="H", angle=0.0, width=1)
@example(kind="RY", angle=2.5, width=4)
def test_one_qubit_steps_match_their_superoperators(kind, angle, side, width):
    """A fused one-qubit step is a 4x4 matrix on its qubit's digit: real
    for U X U+, complex for the one-sided U X and X U+.  Applied by
    ``_digit_step`` to a batch of coefficient vectors, one vector and a batch
    large enough for the block path, it matches the dense superoperator
    of the map on every target."""
    rng = np.random.default_rng(width)
    u = circuits._matrix(circuits._entries(kind, angle))
    step = circuits._transfer(u, side)
    assert step.shape == (4, 4) and np.isrealobj(step) == (side is None)
    edge = -(-circuits._BLOCK_MIN_SIZE // 4 ** width)
    for target in range(width):
        full = ref.embed({target: ref.one_qubit_matrix(kind, angle)}, width)
        channel = {None: lambda x: full @ x @ full.conj().T,
                   "row": lambda x: full @ x, "col": lambda x: x @ full.conj().T}[side]
        dense = ref.superoperator(channel, width)
        for batch in (1, edge):
            vec = coefficients(rng, (batch, 4 ** width))
            out = vec.copy()
            circuits._digit_step(out, step, target)
            assert max_diff(out, vec @ dense.T) <= TOL, (target, batch)


@pytest.mark.parametrize("width, control, target", [
    (2, 0, 1), (2, 1, 0), (3, 0, 2), (3, 2, 0), (4, 3, 1), (4, 0, 3)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_cx_is_the_signed_permutation_of_its_superoperator(width, control, target, seed):
    """CX on a pair, adjacent or not, in either orientation, is a signed
    permutation of the coefficients: its dense superoperator, which is its
    own transpose."""
    full = ref.gate_matrix(circuits.Gate("CX", (control, target)), width)
    dense = ref.superoperator(lambda x: full @ x @ full.conj().T, width)
    assert max_diff(dense, dense.T) <= TOL
    assert set(np.round(np.abs(dense), 12).ravel()) == {0.0, 1.0}
    vec = coefficients(np.random.default_rng(seed), (3, 4 ** width))
    assert max_diff(circuits._cx(vec, control, target), vec @ dense.T) <= TOL


def small_noisy_circuit(width):
    circ = Circuit(width)
    circ.add("RY", 0, angle=0.4)
    if width > 1:
        circ.add("CX", width - 1, 0)
        circ.add("RX", width - 1, angle=-1.1)
        circ.add("CX", 0, width - 1)
    return circ, np.zeros(0)


@PROPERTY
@given(case=random_circuits(max_width=3, max_gates=6),
       levels=st.lists(st.sampled_from((0.0, 0.01, 0.3, 15.0 / 16.0)),
                       min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(case=small_noisy_circuit(1), levels=[0.3, 0.01], seed=1)
@example(case=small_noisy_circuit(3), levels=[15.0 / 16.0], seed=2)
@example(case=small_noisy_circuit(2), levels=[0.01, 15.0 / 16.0, 0.0], seed=3)
def test_stacked_noisy_runs_match_their_superoperators(case, levels, seed):
    """A (levels, 4^m) stack of coefficient vectors run through a circuit
    with the pair channel at one strength per level: each level matches
    the dense superoperator of the circuit with the Kraus channel at its
    strength, for any input, not only |0...0><0...0|."""
    circ, theta = case
    m = circ.width
    th = theta if circ.n_slots else None
    vec = coefficients(np.random.default_rng(seed), (len(levels), 4 ** m))
    out = circuits.apply_gates(vec.copy(), circ.gates, th, levels)
    for k, p2 in enumerate(levels):
        dense = ref.superoperator(lambda x: ref.evolve_density(circ, x, th, p2), m)
        assert max_diff(out[k], dense @ vec[k]) <= TOL, p2


@PROPERTY
@given(case=random_circuits(max_width=3, max_gates=8),
       levels=st.lists(st.sampled_from((0.0, 0.01, 0.3, 15.0 / 16.0)),
                       min_size=1, max_size=2),
       sides=st.lists(st.sampled_from((None, "row", "col")), min_size=8, max_size=8),
       data=st.data())
def test_pull_back_is_the_transpose_of_the_forward_run(case, levels, sides, data):
    """For random observables o and inputs x, sum o.(A x) = sum (A^T o).x:
    every stop's pulled-back stack against the forward run from that stop,
    at each level, with one-qubit gates on both sides or one."""
    circ, theta = case
    m = circ.width
    gates = [replace(g, side=side) if len(g.qubits) == 1 else g
             for g, side in zip(circ.gates, sides + [None] * len(circ.gates))]
    th = theta if circ.n_slots else None
    stops = sorted(set(data.draw(st.lists(st.integers(0, len(gates)), min_size=1,
                                          max_size=3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    obs = coefficients(rng, (data.draw(st.integers(1, 4)), 4 ** m))
    x = coefficients(rng, (len(levels), 4 ** m))
    stacks = circuits._pull_back(gates, stops, th, levels, obs)
    assert sorted(stacks) == stops
    for stop in stops:
        ax = circuits.apply_gates(x.copy(), gates[stop:], th, levels)
        assert stacks[stop].shape == (len(levels), 4 ** m, len(obs))
        assert max_diff(np.einsum("sp,lp->ls", obs, ax),
                        np.einsum("lps,lp->ls", stacks[stop], x)) <= TOL, stop


@PROPERTY
@given(st.data())
def test_places_read_each_strings_value(data):
    """A string's value is one entry of the coefficient vector: at the
    place ``_places`` gives it, in the sorted label order the density
    reads use."""
    op = data.draw(pauli_sums(max_width=4).filter(len))
    rng = np.random.default_rng(len(op))
    dim = 1 << op.width
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    strings, places = circuits._places(op)
    expect_strings, traces = string_traces(op, mat)
    assert strings == expect_strings
    assert max_diff(ref.pauli_vector(mat)[places], traces) <= TOL
    assert max_diff(circuits._density(ref.pauli_vector(mat)), mat) <= TOL


@st.composite
def pauli_sums(draw, max_width=6):
    width = draw(st.integers(1, max_width))
    labels = draw(st.lists(st.text("IXYZ", min_size=width, max_size=width),
                           max_size=24))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3.0),
                           min_size=len(labels), max_size=len(labels)))
    return PauliSum(width, zip(labels, coeffs))


@PROPERTY
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_compiled_apply_sum_matches_string_loop(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    assert max_diff(apply_sum(op, psi), ref.apply_sum_loop(op, psi)) <= TOL
    # the compiled form is kept: a second call gives the same result
    assert np.array_equal(apply_sum(op, psi), apply_sum(op, psi))


@PROPERTY
@given(pauli_sums(max_width=5), st.integers(0, 2**32 - 1))
def test_compiled_density_expectation_matches_dense(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    direct = complex(np.trace(rho @ materialize(op)))
    strings, traces = string_traces(op, rho)
    summed = sum((coeff * t for (_, _, _, coeff), t in zip(strings, traces)), 0j)
    assert abs(summed - direct) <= TOL


@PROPERTY
@given(pauli_sums(max_width=5), st.integers(0, 2**32 - 1))
def test_string_tables_match_dense(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    bra, ket = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    bra, ket = bra / np.linalg.norm(bra), ket / np.linalg.norm(ket)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    strings, overlaps = string_overlaps(op, bra, ket)
    _, traces = string_traces(op, rho)
    labels = [label for label, _, _, _ in strings]
    assert labels == sorted(dict(op))
    for label, ov, tr in zip(labels, overlaps, traces):
        p = materialize(PauliSum(op.width, {label: 1.0}))
        assert abs(ov - np.vdot(bra, p @ ket)) <= TOL
        assert abs(tr - np.trace(rho @ p)) <= TOL


@PROPERTY
@given(st.data())
def test_weighted_sum_combines_its_parts_forms(data):
    """A weighted sum takes its action and its string table from the forms
    its parts built by use, compiling no string, and both match the forms
    compiled from its terms."""
    first = data.draw(pauli_sums(max_width=4))
    parts = [(data.draw(st.complex_numbers(max_magnitude=3.0)),
              data.draw(pauli_sums(max_width=4).filter(
                  lambda op: op.width == first.width)) if k else first)
             for k in range(3)]
    rng = np.random.default_rng(len(first))
    dim = 1 << first.width
    bra, ket = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    for _, op in parts:
        apply_sum(op, ket)
        string_overlaps(op, bra, ket)
    with mock.patch.object(pauli, "string_action",
                           side_effect=AssertionError("a string compiled again")):
        combined = weighted_sum(first.width, parts)
        action = apply_sum(combined, ket)
        strings, overlaps = string_overlaps(combined, bra, ket)
    fresh = PauliSum(first.width, dict(combined))
    assert max_diff(action, apply_sum(fresh, ket)) <= TOL
    fresh_strings, fresh_overlaps = string_overlaps(fresh, bra, ket)
    assert strings == fresh_strings
    assert np.array_equal(overlaps, fresh_overlaps)

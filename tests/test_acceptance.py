"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Everything is seeded and exact; no tolerances except the growth-exponent
check, which allows 5% around the expected polynomial degrees.
"""

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

from wroca import (
    Configuration,
    Dwa,
    ResourceBudgetExceeded,
    bounds_for_k,
    check_equivalence,
    compute_bounds,
    dwa_equiv,
    prime_field,
    rational,
    replay_witness,
    underlying_wa,
    unfold,
)
from wroca.cli import main as cli_main
from wroca.dwa import SearchStats, WaConfig
from wroca.dwa import _difference_search, _lockstep
from wroca.pumping import harvest_theorem1_tuples, theorem1_trial
from wroca.testkit import (
    GeneratorConfig,
    brute_force_witness,
    default_weight_pool,
    find_k_equiv_wa_config,
    generate,
    language_equiv_witness,
    random_words,
    split_state,
)

FIELDS = (rational(), prime_field(7))


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _pair_stream(base_seed, count, num_states=(2, 4), split_every=5, fields=FIELDS):
    """Seeded random automaton pairs mixing fields, alphabet sizes, and
    equivalent-by-construction split pairs."""
    for i in range(count):
        rng = random.Random(base_seed + i)
        field = fields[i % len(fields)]
        sigma = 2 + (i // 2) % 2
        left = generate(
            GeneratorConfig(
                seed=rng.randrange(2**32),
                field=field,
                num_states=num_states,
                alphabet_size=(sigma, sigma),
            )
        )
        if i % split_every == split_every - 1:
            right = split_state(left, rng.randrange(2**32))
        else:
            right = generate(
                GeneratorConfig(
                    seed=rng.randrange(2**32),
                    field=field,
                    num_states=num_states,
                    alphabet_size=(sigma, sigma),
                )
            )
        yield left, right


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_oracle_agreement(tmp_path):
    """cmd_equiv --bound 12 vs exhaustive enumeration on 500 seeded pairs:
    same outcome, and for inequivalent pairs the exact lex-first witness."""
    left_path = tmp_path / "left.json"
    right_path = tmp_path / "right.json"
    pairs = inequivalent = 0
    for left, right in _pair_stream(91_000, 500):
        left_path.write_text(json.dumps(left.to_json()))
        right_path.write_text(json.dumps(right.to_json()))
        code, out = _run_cli(
            "--json", "equiv", str(left_path), str(right_path), "--bound", "12"
        )
        assert code in (0, 1), f"unexpected exit code {code}"
        verdict = json.loads(out)
        oracle = brute_force_witness(left, right, 12)
        if oracle.shortest_witness is None:
            assert code == 0 and verdict["outcome"] == "equivalent"
        else:
            inequivalent += 1
            assert code == 1 and verdict["outcome"] == "not_equivalent"
            assert tuple(verdict["witness_symbols"]) == oracle.shortest_witness
            assert len(verdict["witness_symbols"]) == len(oracle.shortest_witness)
        pairs += 1
    assert pairs == 500
    assert 0 < inequivalent < 500  # both outcomes must actually occur
    _report("oracle agreement", f"500 pairs, {inequivalent} inequivalent, exact witnesses")


def test_lockstep_certificate_soundness():
    """The lockstep certificate never proves a pair that the oracle
    separates within length 12; every split copy is proved."""
    certified = splits = 0
    for i, (left, right) in enumerate(_pair_stream(16_000, 2000)):
        if _lockstep(left, right):
            assert brute_force_witness(left, right, 12).shortest_witness is None
            certified += 1
            splits += i % 5 == 4
    assert (certified, splits) == (411, 400)
    _report("lockstep certificate", f"2000 pairs, {certified} certified, no oracle witness among them")


def test_certificate_first_verdicts():
    """600 pairs over Q, GF(7) and GF(2^31 - 1) at budget 2,000, each also
    searched without the certificate: a NotEquivalent verdict has that
    search's witness, weights and stats; a verdict the certificate ends
    after the empty word, stats (1, 1, 0), has ``_lockstep`` True, and that
    search finds no witness: it saturates or runs out of budget."""
    fields = (*FIELDS, prime_field(2**31 - 1))
    separated = certified = exhausted = 0
    for left, right in _pair_stream(25_000, 600, fields=fields):
        verdict = check_equivalence(left, right, budget=2000)
        limit = compute_bounds(left.size, right.size).witness_bound
        try:
            witness, stats = _difference_search(left, right, max_len=limit, budget=2000)
        except ResourceBudgetExceeded:
            witness, stats = None, None
            exhausted += 1
        if verdict.equivalent and verdict.stats == SearchStats(1, 1, 0):
            assert _lockstep(left, right)
            assert witness is None
            certified += 1
        else:  # the certificate failed or was not asked: the search went on
            assert (witness, stats) == (verdict.witness, verdict.stats)
            separated += not verdict.equivalent
    assert (separated, certified, exhausted) == (478, 122, 61)
    _report(
        "certificate first",
        f"600 pairs, {separated} witnesses as searched uncertified, {certified} certified "
        f"({exhausted} of the uncertified searches ran out of budget)",
    )


def test_witness_replay():
    """Every NotEquivalent verdict replays through the counter semantics to
    the reported weights, and the weights differ exactly."""
    replayed = 0
    for left, right in _pair_stream(47_000, 200):
        verdict = check_equivalence(left, right, 12)
        if verdict.equivalent:
            continue
        replay = replay_witness(left, right, verdict.witness.word)
        assert replay.f1 == verdict.witness.f1
        assert replay.f2 == verdict.witness.f2
        assert replay.f1 != replay.f2
        replayed += 1
    assert replayed >= 50
    _report("witness replay", f"{replayed} witnesses, all exact, all distinguishing")


def test_unfolding_faithfulness():
    """200 random machines, bounds 1..8, every word up to the bound: the
    materialized unfolding reproduces the acceptance weight exactly."""
    checked_words = 0
    for i in range(200):
        rng = random.Random(150_000 + i)
        field = FIELDS[i % 2]
        machine = generate(
            GeneratorConfig(
                seed=rng.randrange(2**32), field=field, alphabet_size=(2, 2)
            )
        )
        bound = 1 + i % 8
        wa = unfold(machine, bound)
        start = WaConfig(wa.initial[0], wa.initial[1])
        for length in range(bound + 1):
            for word in itertools.product(machine.alphabet.symbols, repeat=length):
                assert machine.accept_weight_or_zero(word) == wa.accept_weight(start, word)
                checked_words += 1
    _report("unfolding faithfulness", f"200 machines, {checked_words} words, exact")


def test_basis_bound_and_equivalent_spot_checks():
    """500 weighted-automaton pairs never keep more than |Q1|+|Q2| vectors;
    equivalent verdicts are spot-checked on 1000 random words each length
    <= 20 with zero disagreements."""
    equivalent_pairs = []
    for i in range(500):
        rng = random.Random(260_000 + i)
        field = FIELDS[i % 2]
        pool = default_weight_pool(field)
        source = generate(
            GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(1, 4))
        )
        left = underlying_wa(source).with_initial(0, rng.choice(pool))
        kind = i % 5
        if kind == 0:
            right = left
        elif kind == 1:
            scale = rng.choice(pool)
            transitions = {
                (left.states[src], left.alphabet.symbols[sym]): (left.states[dst], w)
                for (src, sym), (dst, w) in left.transitions.items()
            }
            finals = {
                name: left.final_weights[j] * scale.inverse()
                for j, name in enumerate(left.states)
            }
            right = Dwa(
                left.states,
                left.alphabet,
                transitions,
                finals,
                (left.states[left.initial[0]], left.initial[1] * scale),
            )
        else:
            other = generate(
                GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(1, 4))
            )
            right = underlying_wa(other).with_initial(0, rng.choice(pool))
            if right.alphabet != left.alphabet or right.field != left.field:
                right = left  # keep the pair well-formed; counts as equivalent
        verdict = dwa_equiv(left, right)
        assert verdict.stats.basis_size <= left.size + right.size
        if verdict.equivalent:
            equivalent_pairs.append((left, right, rng.randrange(2**32)))
    assert equivalent_pairs
    disagreements = 0
    for left, right, seed in equivalent_pairs:
        for word in random_words(left.alphabet, 1000, 20, seed):
            if left.initial_accept_weight(word) != right.initial_accept_weight(word):
                disagreements += 1
    assert disagreements == 0
    _report(
        "basis bound",
        f"500 pairs within |Q1|+|Q2|, {len(equivalent_pairs)} equivalent verdicts "
        f"spot-checked on 1000 words each, zero disagreements",
    )


def test_loop_removal_theorem():
    """At least 100 harvested (c, c', w, I, J) tuples from small instances;
    some residual word distinguishes on every one, and every merged removal
    that is not a pumping has stacked positive loops.

    Lemma: let I and J be disjoint interval lists, each a pumping of w from
    c on the left machine and from c' on the right. If on each side one of
    the lists removes only loops of counter effect <= 0 in that side's run,
    then I ∪ J is a pumping from both sides. Sketch, on a side where J's
    loops are all <= 0, by induction over the kept positions: the merged
    residual's counter at a kept step is the I residual's counter minus J's
    removed effect before that step, so it is at least the I residual's
    counter and stays > 0 wherever the original counter was > 0. Where the
    original counter was 0, both single removals keep it at 0, so both
    removed effects before that step are 0 and the merged counter is 0.
    Every kept step thus takes its original table, the merged prefix effects
    are at least the I residual's, so the minimal prefix effect does not
    drop, and the last zero-test, kept by both lists, stays kept.

    The harvest is exhaustive and unfiltered. Merges where both lists remove
    a positive loop on some side ("positive loops stack") can fail: 3 of the
    1000 tuples here, each a +1/+1 loop pair, with a hand-checked instance
    pinned in tests/test_testkit.py. The PASS line reports those counts."""
    trials = stacked = failed_merges = 0
    counterexamples = []
    missing_distinguisher = []
    seed = 0
    while trials < 1000 and seed < 2000:
        seed += 1
        rng = random.Random(310_000 + seed)
        field = FIELDS[seed % 2]
        left = generate(
            GeneratorConfig(
                seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9
            )
        )
        right = generate(
            GeneratorConfig(
                seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9
            )
        )
        for c, c_prime, word, ivs_i, ivs_j in harvest_theorem1_tuples(
            left, right, 8, max_tuples=8
        ):
            outcome = theorem1_trial(left, right, c, c_prime, word, ivs_i, ivs_j)
            trials += 1
            stacked += outcome.positive_loops_stack
            if not outcome.union_is_pumping:
                failed_merges += 1
                if not outcome.positive_loops_stack:
                    counterexamples.append((left, right, word, ivs_i, ivs_j, outcome))
            if not outcome.distinguishing:
                missing_distinguisher.append((left, right, word, ivs_i, ivs_j))
    assert trials >= 100
    assert not missing_distinguisher, "a harvested instance had no distinguishing residual"
    if counterexamples:
        left, right, word, ivs_i, ivs_j, outcome = counterexamples[0]
        detail = (
            f"{len(counterexamples)}/{trials} merged removals without stacked "
            f"positive loops are not pumpings; "
            f"first: word={word}, I={ivs_i}, J={ivs_j}, "
            f"distinguishing={outcome.distinguishing}, "
            f"left={json.dumps(left.to_json())}, right={json.dumps(right.to_json())}"
        )
        print(f"ACCEPTANCE loop-removal theorem: FAIL ({detail})")
        raise AssertionError("merged-removal lemma has counterexamples: " + detail)
    _report(
        "loop-removal theorem",
        f"{trials} harvested tuples, {stacked} with stacked positive loops, "
        f"{failed_merges} merges not pumpings, all of them stacked",
    )


def test_weight_independent_membership():
    """Whether a configuration has a k-equivalent weighted-automaton
    configuration never depends on the configuration's weight."""
    for i in range(100):
        rng = random.Random(420_000 + i)
        field = FIELDS[i % 2]
        pool = default_weight_pool(field)
        machine = generate(
            GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3))
        )
        wa = underlying_wa(
            generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3)))
        )
        k = rng.randint(0, 3)
        state = rng.randrange(machine.size)
        counter = rng.randint(0, 3)
        base = find_k_equiv_wa_config(
            machine, Configuration(state, counter, rng.choice(pool)), wa, k
        )
        for _ in range(5):
            other = find_k_equiv_wa_config(
                machine, Configuration(state, counter, rng.choice(pool)), wa, k
            )
            assert (base is None) == (other is None)
    _report("weight-independent membership", "100 triples x 5 reweightings, invariant")


def test_bound_formulas():
    """Exact bound values for two size-1 machines, and the expected growth
    degrees (12 and 26) recovered from the log-log slope at k = 50."""
    report = compute_bounds(1, 1)
    assert report.counter_bound == 295_810
    assert report.witness_bound == 700_028_448_800
    hi, lo = bounds_for_k(50), bounds_for_k(49)
    step = math.log(50) - math.log(49)
    slope_counter = (math.log(hi.counter_bound) - math.log(lo.counter_bound)) / step
    slope_witness = (math.log(hi.witness_bound) - math.log(lo.witness_bound)) / step
    assert abs(slope_counter - 12) / 12 < 0.05, slope_counter
    assert abs(slope_witness - 26) / 26 < 0.05, slope_witness
    _report(
        "bound formulas",
        f"295810 / 700028448800 exact; slopes {slope_counter:.3f} and {slope_witness:.3f}",
    )


def test_plain_language_corollary():
    """All-weights-one machines: the pipeline verdict at depth 12 matches a
    plain language-equivalence oracle (acceptance = nonzero weight)."""
    inequivalent = 0
    for i in range(100):
        rng = random.Random(530_000 + i)
        field = FIELDS[i % 2]
        one = field.one()
        cfg = dict(
            field=field,
            weight_pool=(one,),
            zero_final_prob=0.5,
            alphabet_size=(2, 2),
        )
        left = generate(GeneratorConfig(seed=rng.randrange(2**32), **cfg))
        right = generate(GeneratorConfig(seed=rng.randrange(2**32), **cfg))
        verdict = check_equivalence(left, right, 12)
        language_witness = language_equiv_witness(left, right, 12)
        assert verdict.equivalent == (language_witness is None)
        if not verdict.equivalent:
            inequivalent += 1
            assert verdict.witness.word == language_witness
    _report(
        "plain-language corollary",
        f"100 all-ones pairs, {inequivalent} inequivalent, outcomes match",
    )
